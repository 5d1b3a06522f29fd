//! Concurrent telemetry writers must produce an internally consistent
//! [`telemetry::Snapshot`]: per-kind and per-interface event counts that
//! match what was recorded, exact counter totals, and a histogram
//! population equal to the recorded samples. The writers share one
//! histogram handle, resolved once before they start, the way the VM
//! and the serving tenants hold theirs.
//!
//! Telemetry state is process-global (one set of event counts, one
//! counter registry), so this file holds exactly one test: sharing a
//! binary with other telemetry-enabling tests would race on the counts.

use std::time::Duration;

use telemetry::{Event, HistKey, JniInterface, LatencyOp, SizeClass, Snapshot};

const WRITERS: usize = 8;
/// Far past any fixed per-thread buffer: every event must be counted.
const ACQUIRES_PER_WRITER: u64 = 5_000;
const SAMPLES_PER_WRITER: u64 = 50;

#[test]
fn concurrent_writers_yield_a_consistent_snapshot() {
    telemetry::reset();
    telemetry::set_enabled(true);
    let key = HistKey {
        tenant: None,
        scheme: "consistency-test",
        interface: "GetPrimitiveArrayCritical",
        size_class: SizeClass::Small,
        op: LatencyOp::Acquire,
    };
    let histogram = telemetry::histogram(key);

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let histogram = &histogram;
            scope.spawn(move || {
                let interfaces = JniInterface::ALL;
                for i in 0..ACQUIRES_PER_WRITER {
                    let interface = interfaces[(w + i as usize) % interfaces.len()];
                    telemetry::record(Event::Acquire { interface });
                    telemetry::record(Event::Release { interface });
                    telemetry::counters().add("test.acquires", 1);
                }
                for i in 0..SAMPLES_PER_WRITER {
                    histogram.record(Duration::from_nanos(100 + i));
                }
            });
        }
    });

    let snap = Snapshot::collect();
    let writers = WRITERS as u64;

    // Per-kind counts match exactly what the writers recorded.
    let kinds = &snap.events.by_kind;
    assert_eq!(kinds["acquire"], writers * ACQUIRES_PER_WRITER);
    assert_eq!(kinds["release"], writers * ACQUIRES_PER_WRITER);
    assert_eq!(snap.events.total, writers * ACQUIRES_PER_WRITER * 2);

    // Per-interface counts: every acquire and release carries an
    // interface, so the interface total is exactly the acquire+release
    // population, and each interface never exceeds the exact counter
    // total.
    let by_if = &snap.events.by_interface;
    let interface_total: u64 = by_if.values().sum();
    assert_eq!(interface_total, writers * ACQUIRES_PER_WRITER * 2);
    let counter_total = telemetry::counters().get("test.acquires");
    assert_eq!(counter_total, writers * ACQUIRES_PER_WRITER);
    for (iface, &n) in by_if {
        assert!(
            n <= counter_total * 2,
            "{iface}: {n} events exceed the {counter_total} counted acquire/release pairs"
        );
    }
    // The writers spread interfaces round-robin, so every interface saw
    // at least one event.
    assert_eq!(by_if.len(), JniInterface::ALL.len());

    // Histogram population equals the recorded samples across all
    // writers, under the one key the writers used.
    let h = snap
        .histograms
        .iter()
        .find(|h| h.key == key)
        .expect("the writers' histogram must be registered");
    assert_eq!(h.count, writers * SAMPLES_PER_WRITER);
    assert!(h.max_ns >= 100, "samples of ≥100ns were recorded");

    telemetry::set_enabled(false);
    telemetry::reset();
}
