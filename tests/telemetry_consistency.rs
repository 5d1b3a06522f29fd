//! Concurrent telemetry writers must produce an internally consistent
//! [`telemetry::HistogramSummary`]: a histogram population equal to the
//! recorded samples. The writers share one histogram slot, the way a
//! VM's threads share its acquire slots.

use std::time::Duration;

use telemetry::{HistKey, HistSlot, LatencyOp, SizeClass};

const WRITERS: usize = 8;
/// Far past any fixed per-thread buffer: every sample must be counted.
const SAMPLES_PER_WRITER: u64 = 5_000;

#[test]
fn concurrent_writers_yield_a_consistent_snapshot() {
    let key = HistKey {
        tenant: None,
        scheme: "consistency-test",
        interface: "GetPrimitiveArrayCritical",
        size_class: SizeClass::Small,
        op: LatencyOp::Acquire,
    };
    let histogram = HistSlot::default();

    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            let histogram = &histogram;
            scope.spawn(move || {
                for i in 0..SAMPLES_PER_WRITER {
                    histogram.record(|| key, Duration::from_nanos(100 + i % 50));
                }
            });
        }
    });

    let writers = WRITERS as u64;

    // Histogram population equals the recorded samples across all
    // writers, under the one key the writers used; the buckets, the sum
    // and the max account for every sample exactly.
    let h = histogram.summary().expect("the writers recorded samples");
    assert_eq!(h.key, key);
    assert_eq!(h.count, writers * SAMPLES_PER_WRITER);
    assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    assert_eq!(h.max_ns, 149);
    assert_eq!(
        h.mean_ns(),
        124,
        "the 100..=149 ns samples average 124.5 ns"
    );
}
