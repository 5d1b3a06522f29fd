//! Deterministic cost-model tests: the paper's performance claims,
//! asserted on *operation counts* instead of wall-clock time, so they
//! hold on any host.
//!
//! The asymmetry that drives every figure: guarded copy moves the whole
//! object (twice) plus red zones and checksums per get/release pair,
//! while MTE4JNI touches one tag per 16-byte granule.

use mte4jni_repro::prelude::*;

/// One acquire/release session over a `len`-int array; returns what moved.
fn session(scheme: Scheme, len: usize) -> (mte_sim::MteStatsSnapshot, u64) {
    let vm = scheme.build_vm();
    let thread = vm.attach_thread("cost");
    let env = vm.env(&thread);
    let a = env.new_int_array(len).unwrap();
    let native_before = vm.heap().native_alloc().peak_bytes();
    let before = vm.heap().memory().stats().snapshot();
    env.call_native("session", NativeKind::Normal, |env| {
        let elems = env.get_primitive_array_critical(&a)?;
        env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
    })
    .unwrap();
    let delta = vm.heap().memory().stats().snapshot().since(&before);
    let native_peak = vm.heap().native_alloc().peak_bytes() - native_before;
    (delta, native_peak)
}

#[test]
fn mte4jni_tags_exactly_the_payload_granules() {
    for len in [1usize, 4, 18, 100, 1024, 4096] {
        let (delta, native) = session(Scheme::Mte4JniSync, len);
        let granules = ((len * 4) as u64).div_ceil(16);
        assert_eq!(delta.irg_ops, 1, "one random tag per first acquire");
        assert_eq!(
            delta.stg_ops,
            2 * granules,
            "len {len}: tag the payload once, zero it once at release"
        );
        assert_eq!(native, 0, "MTE4JNI allocates no shadow buffers");
    }
}

#[test]
fn guarded_copy_allocates_and_moves_the_whole_object() {
    for len in [4usize, 1024, 4096] {
        let (delta, native_peak) = session(Scheme::GuardedCopy, len);
        let payload = (len * 4) as u64;
        assert!(
            native_peak >= payload + 2 * 512,
            "len {len}: shadow block must hold payload + both red zones (got {native_peak})"
        );
        assert_eq!(delta.stg_ops, 0, "guarded copy never touches tags");
        assert_eq!(delta.irg_ops, 0);
        // Bulk traffic: copy-out at acquire, block write, block read at
        // release, copy-back — at least four bulk operations.
        assert!(delta.loads >= 2, "copy-out + verification read");
        assert!(delta.stores >= 2, "shadow write + copy-back");
    }
}

#[test]
fn shared_acquisitions_reuse_the_tag_without_retagging() {
    let vm = Scheme::Mte4JniSync.build_vm();
    let thread = vm.attach_thread("cost");
    let env = vm.env(&thread);
    let a = env.new_int_array(1024).unwrap();
    env.call_native("nested", NativeKind::Normal, |env| {
        let first = env.get_primitive_array_critical(&a)?;
        let before = env.heap().memory().stats().snapshot();
        // Nine more concurrent borrows of the same object.
        let mut extra = Vec::new();
        for _ in 0..9 {
            extra.push(env.get_primitive_array_critical(&a)?);
        }
        let delta = env.heap().memory().stats().snapshot().since(&before);
        assert_eq!(delta.irg_ops, 0, "no new tags while shared");
        assert_eq!(delta.stg_ops, 0, "no re-tagging while shared");
        assert_eq!(delta.ldg_ops, 9, "one ldg per sharing acquire (Algorithm 1)");
        for e in extra.into_iter().rev() {
            env.release_primitive_array_critical(&a, e, ReleaseMode::CopyBack)?;
        }
        env.release_primitive_array_critical(&a, first, ReleaseMode::CopyBack)
    })
    .unwrap();
}

#[test]
fn tag_traffic_is_sixteen_times_smaller_than_copy_traffic() {
    // The structural source of the paper's 11×/27× reductions: per
    // get/release pair, guarded copy moves ≥ 2 payloads of bytes while
    // MTE4JNI writes payload/16 tag entries twice.
    let len = 4096usize;
    let payload = (len * 4) as u64;
    let (mte, _) = session(Scheme::Mte4JniSync, len);
    let (_, gc_native_peak) = session(Scheme::GuardedCopy, len);
    let mte_tag_bytes = mte.stg_ops; // one tag nibble per granule ≈ 1 byte
    assert!(gc_native_peak >= payload, "guarded copy touches whole payloads");
    assert!(
        mte_tag_bytes * 16 <= 2 * payload + 2 * 1024,
        "tag traffic is granule-sized: {mte_tag_bytes} entries for {payload} bytes"
    );
}

#[test]
fn no_protection_does_no_extra_work_at_all() {
    let (delta, native) = session(Scheme::NoProtection, 4096);
    assert_eq!(delta.irg_ops, 0);
    assert_eq!(delta.stg_ops, 0);
    assert_eq!(delta.ldg_ops, 0);
    assert_eq!(delta.loads, 0, "no bulk copies");
    assert_eq!(delta.stores, 0);
    assert_eq!(native, 0);
}
