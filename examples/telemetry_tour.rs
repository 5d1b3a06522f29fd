//! A tour of the telemetry layer: turn it on, drive some JNI traffic
//! through an MTE4JNI VM (including one caught out-of-bounds write), and
//! print the VM's schema-versioned snapshot — its latency histograms
//! and its counters, the same shape the bench binaries attach to
//! `BENCH_<name>.json` under `--json`.
//!
//! Run with `cargo run --example telemetry_tour`.

use mte4jni_repro::prelude::*;
use telemetry::LatencyOp;

fn main() {
    // Recording is off until enabled.
    telemetry::set_enabled(true);

    let vm = mte4jni::mte4jni_vm(TcfMode::Sync, TableConfig::default());
    let thread = vm.attach_thread("tour");
    let env = vm.env(&thread);

    // Array traffic through two interfaces: the critical borrow (via the
    // RAII guard) and the copying elements interface.
    let a = env.new_int_array_from(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
    env.call_native("sum", NativeKind::Normal, |env| {
        let guard = env.critical(&a)?;
        let mem = guard.mem();
        let mut total = 0i64;
        for i in 0..guard.array().len() as isize {
            total += i64::from(guard.array().read_i32(&mem, i)?);
        }
        guard.commit(ReleaseMode::CopyBack)?;
        Ok(total)
    })
    .unwrap();
    let elems = env.get_int_array_elements(&a).unwrap();
    env.release_int_array_elements(&a, elems, ReleaseMode::Abort).unwrap();

    // String traffic, and one out-of-bounds write that the sync MTE
    // check catches — it shows up as `scheme.mte4jni.mte.sync_faults`
    // below.
    let s = env.new_string("telemetry").unwrap();
    let chars = env.get_string_critical(&s).unwrap();
    env.release_string_critical(&s, chars).unwrap();
    env.call_native("oob", NativeKind::Normal, |env| {
        let guard = env.critical(&a)?;
        let mem = guard.mem();
        assert!(guard.array().write_i32(&mem, 64, 0).is_err(), "caught");
        guard.abort()
    })
    .unwrap();

    // The VM's snapshot holds its latency histograms, with p50/p90/p99
    // per (scheme, interface, size class), and the exact counters it
    // reads from the owners that keep them.
    let snapshot = vm.snapshot();
    println!("{}", snapshot.to_json().to_pretty_string());

    // Both come from the one VM: every timed acquire and release is one
    // pin and one unpin of the heap.
    let timed = |op| {
        snapshot
            .histograms
            .iter()
            .filter(|h| h.key.op == op)
            .map(|h| h.count)
            .sum::<u64>()
    };
    let counter = |key: &str| snapshot.counters[&format!("scheme.mte4jni.heap.{key}")];
    assert_eq!(timed(LatencyOp::Acquire), counter("pins_total"));
    assert_eq!(timed(LatencyOp::Release), counter("unpins_total"));
}
