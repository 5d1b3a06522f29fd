//! Concurrent telemetry writers must produce an internally consistent
//! [`telemetry::Snapshot`]: a histogram population equal to the
//! recorded samples. The writers share one histogram handle, resolved
//! once before they start, the way the VM and the serving tenants hold
//! theirs.
//!
//! Telemetry state is process-global (one histogram registry), so this
//! file holds exactly one test: sharing a binary with other
//! telemetry-enabling tests would race on the counts.

use std::time::Duration;

use telemetry::{HistKey, LatencyOp, SizeClass, Snapshot};

const WRITERS: usize = 8;
/// Far past any fixed per-thread buffer: every sample must be counted.
const SAMPLES_PER_WRITER: u64 = 5_000;

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
        for _ in 0..WRITERS {
            let histogram = &histogram;
            scope.spawn(move || {
                for i in 0..SAMPLES_PER_WRITER {
                    histogram.record(Duration::from_nanos(100 + i % 50));
                }
            });
        }
    });

    let snap = Snapshot::collect();
    let writers = WRITERS as u64;

    // Histogram population equals the recorded samples across all
    // writers, under the one key the writers used; the buckets, the sum
    // and the max account for every sample exactly.
    let h = snap
        .histograms
        .iter()
        .find(|h| h.key == key)
        .expect("the writers' histogram must be registered");
    assert_eq!(h.count, writers * SAMPLES_PER_WRITER);
    assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    assert_eq!(h.max_ns, 149);
    assert_eq!(h.mean_ns, 124, "the 100..=149 ns samples average 124.5 ns");

    telemetry::set_enabled(false);
    telemetry::reset();
}
