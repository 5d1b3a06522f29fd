//! A release is timed once per borrow it ends, as an acquire is timed
//! once per borrow it opens: a `JNI_COMMIT` release, and a release that
//! ends in a transient error its caller retries, add no sample of their
//! own. Under injected tag-store faults the release histograms therefore
//! still count borrows, and equal the acquire histograms and the heap's
//! unpins, which is what `gate`'s count reconciliation checks.
//!
//! The recording flag is process-wide, so this file holds exactly one
//! test: a second test in the binary could turn recording off under it.

use std::collections::BTreeMap;
use std::sync::Arc;

use jni_rt::NativeArray;
use mte4jni_repro::prelude::*;
use mte_sim::inject::{self, FaultPlan, InjectCounters, InjectPoint};
use telemetry::{LatencyOp, SizeClass};

#[test]
fn release_samples_equal_acquires_and_unpins_under_tag_store_faults() {
    telemetry::set_enabled(true);
    let vm = Scheme::Mte4JniSync.build_vm();
    let thread = vm.attach_thread("release-timing");
    let env = vm.env(&thread);
    let arrays = [4, 1024].map(|n| env.new_int_array(n).unwrap());

    // Half of all tag stores fail while the releases run: one release in
    // 16 exhausts the environment's three retries and hands the
    // transient error back. The acquires run disarmed, because a failed
    // acquire pins and unpins its object without opening a borrow.
    let counters = Arc::new(InjectCounters::default());
    let plan = FaultPlan {
        stg_fail_ppm: 500_000,
        ..FaultPlan::default()
    };
    let mut caller_retries = 0;
    let mut release = |a: &ArrayRef, elems: &NativeArray, critical: bool, mode| loop {
        let result = if critical {
            env.release_primitive_array_critical(a, elems.clone(), mode)
        } else {
            env.release_int_array_elements(a, elems.clone(), mode)
        };
        match result {
            Err(e) if e.is_transient() => caller_retries += 1,
            result => break result.unwrap(),
        }
    };
    for round in 0..200 {
        for a in &arrays {
            let critical = round % 2 == 0;
            let acquired = if critical {
                env.get_primitive_array_critical(a)
            } else {
                env.get_int_array_elements(a)
            };
            let elems = acquired.unwrap();
            inject::install(plan, round, Arc::clone(&counters));
            if !critical {
                release(a, &elems, critical, ReleaseMode::Commit);
            }
            release(a, &elems, critical, ReleaseMode::Abort);
            inject::clear();
        }
    }
    telemetry::set_enabled(false);
    drop(env);
    assert!(counters.get(InjectPoint::Stg) > 0);
    assert!(caller_retries > 0, "no release exhausted its retries");

    let snap = vm.snapshot();
    let mut per_key: BTreeMap<(&str, SizeClass), [u64; 2]> = BTreeMap::new();
    for h in &snap.histograms {
        let side = match h.key.op {
            LatencyOp::Acquire => 0,
            LatencyOp::Release => 1,
            _ => continue,
        };
        per_key.entry((h.key.interface, h.key.size_class)).or_default()[side] += h.count;
    }
    assert_eq!(per_key.len(), 4, "two interfaces x two sizes: {per_key:?}");
    for (key, [acquires, releases]) in &per_key {
        assert_eq!(acquires, releases, "{key:?}");
    }
    let releases: u64 = per_key.values().map(|[_, r]| r).sum();
    let pins = snap.counters["scheme.mte4jni.heap.pins_total"];
    let unpins = snap.counters["scheme.mte4jni.heap.unpins_total"];
    assert_eq!((pins, unpins), (releases, releases));
}
