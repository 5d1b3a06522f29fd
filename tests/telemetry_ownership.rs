//! Latency histograms belong to the VM that recorded them: two VMs in
//! one process each snapshot only their own samples, and a bench report
//! built from one VM holds that VM's samples and nothing of another's.
//!
//! The recording flag is process-wide, so this file holds exactly one
//! test: a second test in the binary could turn recording off under it.

use bench::BenchReport;
use mte4jni_repro::prelude::*;
use telemetry::json::JsonValue;
use telemetry::{LatencyOp, Snapshot};

/// A VM that has made `borrows` critical borrows of one array.
fn vm_with_borrows(borrows: u64) -> Vm {
    let vm = Scheme::Mte4JniSync.build_vm();
    let thread = vm.attach_thread("owner");
    let env = vm.env(&thread);
    let a = env.new_int_array_from(&[1, 2, 3, 4]).unwrap();
    for _ in 0..borrows {
        let elems = env.get_primitive_array_critical(&a).unwrap();
        env.release_primitive_array_critical(&a, elems, ReleaseMode::Abort)
            .unwrap();
    }
    drop(env);
    vm
}

/// Samples under `op` in `snap`, summed over its histograms.
fn timed(snap: &Snapshot, op: LatencyOp) -> u64 {
    snap.histograms
        .iter()
        .filter(|h| h.key.op == op)
        .map(|h| h.count)
        .sum()
}

#[test]
fn each_vm_snapshots_only_its_own_samples() {
    telemetry::set_enabled(true);
    let three = vm_with_borrows(3);
    let five = vm_with_borrows(5);
    telemetry::set_enabled(false);

    for (vm, borrows) in [(&three, 3), (&five, 5)] {
        let snap = vm.snapshot();
        assert_eq!(
            timed(&snap, LatencyOp::Acquire),
            borrows,
            "{:?}",
            snap.histograms
        );
        assert_eq!(timed(&snap, LatencyOp::Release), borrows);
        assert_eq!(snap.counters["scheme.mte4jni.acquires"], borrows);
        assert_eq!(snap.counters["scheme.mte4jni.heap.pins_total"], borrows);
    }

    // Dropping one VM drops its histograms with it; a report built from
    // the other holds exactly that VM's samples.
    drop(three);
    let mut report = BenchReport::new("ownership");
    report.merge([five.snapshot()]);
    let json = report.to_json();
    let telemetry = json.get("telemetry").unwrap();
    let count = |op: &str| -> u64 {
        telemetry
            .get("histograms")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .filter(|h| h.get("op").and_then(JsonValue::as_str) == Some(op))
            .filter_map(|h| h.get("count").and_then(JsonValue::as_u64))
            .sum()
    };
    assert_eq!((count("acquire"), count("release")), (5, 5));
    assert_eq!(
        telemetry
            .get("counters")
            .and_then(|c| c.get("scheme.mte4jni.heap.pins_total"))
            .and_then(JsonValue::as_u64),
        Some(5)
    );
}
