//! End-to-end per-interface telemetry attribution for one MTE4JNI OOB
//! scenario: acquire → tag ops → sync fault → release. The latency
//! histograms attribute the borrow to its `JniInterface`; the VM's
//! counters carry the tag instructions, the fault and the scheme's own
//! counts, all in one snapshot of the one VM.
//!
//! The recording flag is process-wide, so this file holds exactly one
//! test: a second test in the binary could turn recording off under it.

use mte4jni_repro::prelude::*;
use telemetry::LatencyOp;

#[test]
fn oob_scenario_attributes_events_to_primitive_array_critical() {
    telemetry::set_enabled(true);

    let vm = Scheme::Mte4JniSync.build_vm();
    let thread = vm.attach_thread("attribution");
    let env = vm.env(&thread);
    let a = env.new_int_array_from(&[1, 2, 3, 4]).unwrap();

    env.call_native("oob", NativeKind::Normal, |env| {
        let elems = env.get_primitive_array_critical(&a)?;
        let mem = env.native_mem();
        elems.write_i32(&mem, 0, 7)?; // in bounds: tag check passes
        let oob = elems.write_i32(&mem, 100, 9); // 400 B past the end
        assert!(oob.is_err(), "sync MTE faults on the spot");
        env.release_primitive_array_critical(&a, elems, ReleaseMode::Abort)?;
        Ok(())
    })
    .unwrap();

    let snap = vm.snapshot();

    // Interface attribution: the borrow opened and closed under
    // PrimitiveArrayCritical, one timed acquire and one timed release
    // keyed by (scheme, interface).
    let timed = |op| {
        snap.histograms
            .iter()
            .filter(|h| h.key.op == op)
            .map(|h| (h.key.scheme, h.key.interface, h.count))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        timed(LatencyOp::Acquire),
        [("mte4jni", "PrimitiveArrayCritical", 1)],
        "{:?}",
        snap.histograms.iter().map(|h| h.key).collect::<Vec<_>>()
    );
    assert_eq!(timed(LatencyOp::Release), [("mte4jni", "PrimitiveArrayCritical", 1)]);

    // The whole causal chain is visible in the same snapshot's counters:
    // the tag instructions and fault its MteStats counted exactly, and
    // the scheme's own counts, under one prefix.
    let counters = &snap.counters;
    assert!(
        counters["scheme.mte4jni.mte.irg_ops"] >= 1,
        "acquire drew a random tag: {counters:?}"
    );
    assert!(
        counters["scheme.mte4jni.mte.stg_ops"] >= 1,
        "tags were written to granules: {counters:?}"
    );
    assert_eq!(
        counters["scheme.mte4jni.mte.sync_faults"], 1,
        "the OOB write tripped one synchronous fault: {counters:?}"
    );
    assert_eq!(counters["scheme.mte4jni.acquires"], 1);
    assert_eq!(counters["scheme.mte4jni.releases"], 1);
    assert_eq!(counters["scheme.mte4jni.heap.pins_total"], 1);
    assert_eq!(counters["scheme.mte4jni.heap.unpins_total"], 1);
    // The lock-free default has no table mutex to count; the slab
    // materialized at least one chunk for the first acquire, and each
    // last release freed its tag at once (no safepoint needed).
    assert!(counters["scheme.mte4jni.atomic_slab_chunks"] >= 1);
    assert_eq!(
        counters["scheme.mte4jni.acquires"] - counters["scheme.mte4jni.shared_acquires"],
        counters["scheme.mte4jni.tag_frees"]
    );

    telemetry::set_enabled(false);
}
