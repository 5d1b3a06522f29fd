//! Log-bucketed latency histograms (HDR-style) keyed by
//! `(tenant, scheme, interface, payload-size-class, operation)`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Number of power-of-two buckets: bucket `i` holds durations in
/// `[2^(i-1), 2^i)` nanoseconds (bucket 0 holds 0–1 ns). 2^39 ns ≈ 9
/// minutes, far beyond any JNI call.
const BUCKETS: usize = 40;

/// Payload size classes for histogram keys, so a 16-byte scratch array
/// and a 16 MiB image don't share a distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SizeClass {
    /// ≤ 64 bytes.
    Tiny,
    /// ≤ 1 KiB.
    Small,
    /// ≤ 16 KiB.
    Medium,
    /// > 16 KiB.
    Large,
}

impl SizeClass {
    /// Classifies a payload length in bytes.
    pub fn from_bytes(bytes: u64) -> SizeClass {
        match bytes {
            0..=64 => SizeClass::Tiny,
            65..=1024 => SizeClass::Small,
            1025..=16384 => SizeClass::Medium,
            _ => SizeClass::Large,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SizeClass::Tiny => "tiny(<=64B)",
            SizeClass::Small => "small(<=1KiB)",
            SizeClass::Medium => "medium(<=16KiB)",
            SizeClass::Large => "large(>16KiB)",
        }
    }
}

/// Which timed operation a histogram covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LatencyOp {
    /// A `Get*` interface (protection `on_acquire` included).
    Acquire,
    /// A `Release*` interface (protection `on_release` included).
    Release,
    /// A whole `call_native` trampoline invocation.
    Trampoline,
    /// A stop-the-world compacting GC pass.
    GcPause,
    /// A whole serving-layer request (admission through completion).
    Request,
}

impl LatencyOp {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            LatencyOp::Acquire => "acquire",
            LatencyOp::Release => "release",
            LatencyOp::Trampoline => "trampoline",
            LatencyOp::GcPause => "gc_pause",
            LatencyOp::Request => "request",
        }
    }
}

/// A histogram's key: what it times, in which scheme and interface, for
/// which payload size. `interface` is a display label rather than
/// [`crate::JniInterface`] so trampolines can key by native-call kind
/// (`"Normal"`, `"FastNative"`, …). The derived order is the snapshot
/// order: `tenant` leads, so the untenanted histograms (`None`) come
/// first and the serving layer's sort last.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HistKey {
    /// Serving-layer tenant id, for per-tenant request histograms.
    pub tenant: Option<u32>,
    /// Protection scheme name (e.g. `"mte4jni"`).
    pub scheme: &'static str,
    /// Interface label (a [`crate::JniInterface::label`] or a native
    /// kind name for trampoline timings).
    pub interface: &'static str,
    /// Payload size class.
    pub size_class: SizeClass,
    /// Timed operation.
    pub op: LatencyOp,
}

/// A concurrent log-bucketed histogram under its own key.
#[derive(Debug)]
struct LatencyHistogram {
    key: HistKey,
    buckets: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

fn bucket_for(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((64 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// One latency histogram, held by what it times (a VM's acquire,
/// release and trampoline timings, a heap's compaction pauses, a serving
/// tenant's requests). The histogram is allocated on the slot's first
/// sample, so an owner whose recording stays off holds one empty
/// `OnceLock` per slot and nothing else.
#[derive(Debug, Default)]
pub struct HistSlot(OnceLock<Box<LatencyHistogram>>);

impl HistSlot {
    /// Records one duration, creating the histogram under `key()` on
    /// the slot's first sample.
    pub fn record(&self, key: impl FnOnce() -> HistKey, d: Duration) {
        let h = self.0.get_or_init(|| {
            Box::new(LatencyHistogram {
                key: key(),
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum_ns: AtomicU64::new(0),
                max_ns: AtomicU64::new(0),
            })
        });
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        h.buckets[bucket_for(ns)].fetch_add(1, Ordering::Relaxed);
        h.sum_ns.fetch_add(ns, Ordering::Relaxed);
        h.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// The histogram's summary, or `None` before its first sample.
    pub fn summary(&self) -> Option<HistogramSummary> {
        let h = self.0.get()?;
        let buckets: Vec<u64> = h
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        (count > 0).then(|| HistogramSummary {
            key: h.key,
            count,
            sum_ns: h.sum_ns.load(Ordering::Relaxed),
            max_ns: h.max_ns.load(Ordering::Relaxed),
            buckets,
        })
    }
}

/// A histogram read out: its key, its raw log2 buckets and the sum and
/// max they cannot carry. The percentiles are computed from the buckets,
/// so two summaries under one key [`merge`](Self::merge) exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSummary {
    /// The histogram's key.
    pub key: HistKey,
    /// Samples recorded (the buckets' sum).
    pub count: u64,
    /// Sum of every sample, nanoseconds.
    pub sum_ns: u64,
    /// Largest sample, nanoseconds.
    pub max_ns: u64,
    /// Raw log2 bucket counts: bucket `i` holds `[2^(i-1), 2^i)` ns.
    pub buckets: Vec<u64>,
}

impl HistogramSummary {
    /// An upper-bound estimate of the `q`-quantile, `q` in `[0, 1]`: the
    /// ceiling of the bucket holding the rank, `2^i − 1` ns (bucket 0 is
    /// "≤ 1 ns"), clamped to the observed max so p99 never exceeds it.
    /// Returns 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let ceiling = if i == 0 { 1 } else { (1u64 << i) - 1 };
                return ceiling.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Adds `other`'s samples: buckets, count and sum add, the larger
    /// max stays. Both must share a key.
    pub fn merge(&mut self, other: &HistogramSummary) {
        debug_assert_eq!(
            self.key, other.key,
            "merging histograms under different keys"
        );
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_for(0), 0);
        assert_eq!(bucket_for(1), 1);
        assert_eq!(bucket_for(2), 2);
        assert_eq!(bucket_for(3), 2);
        assert_eq!(bucket_for(1024), 11);
        assert_eq!(bucket_for(u64::MAX), BUCKETS - 1);
    }

    fn key(op: LatencyOp) -> HistKey {
        HistKey {
            tenant: None,
            scheme: "test-scheme",
            interface: "ArrayElements",
            size_class: SizeClass::Tiny,
            op,
        }
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let slot = HistSlot::default();
        assert_eq!(slot.summary(), None, "no histogram before the first sample");
        for ns in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 1000] {
            slot.record(|| key(LatencyOp::Acquire), Duration::from_nanos(ns));
        }
        let h = slot.summary().unwrap();
        assert_eq!(h.key, key(LatencyOp::Acquire));
        assert_eq!(h.count, 10);
        let p50 = h.quantile_ns(0.50);
        assert!((32..=127).contains(&p50), "p50 bucket ceiling: {p50}");
        assert_eq!(h.max_ns, 1000);
        assert_eq!(h.quantile_ns(1.0), 1000, "p100 clamps to max");
        assert!(h.quantile_ns(0.99) <= 1023);
        assert_eq!(h.mean_ns(), 145);
    }

    #[test]
    fn merging_adds_samples_and_keeps_the_larger_max() {
        let (a, b) = (HistSlot::default(), HistSlot::default());
        for ns in [10u64, 20] {
            a.record(|| key(LatencyOp::Release), Duration::from_nanos(ns));
        }
        b.record(|| key(LatencyOp::Release), Duration::from_nanos(300));
        let mut merged = a.summary().unwrap();
        merged.merge(&b.summary().unwrap());
        let both = HistSlot::default();
        for ns in [10u64, 20, 300] {
            both.record(|| key(LatencyOp::Release), Duration::from_nanos(ns));
        }
        assert_eq!(
            merged,
            both.summary().unwrap(),
            "a merge equals one histogram of every sample"
        );
        assert_eq!((merged.count, merged.sum_ns, merged.max_ns), (3, 330, 300));
    }

    #[test]
    fn size_classes_partition() {
        assert_eq!(SizeClass::from_bytes(0), SizeClass::Tiny);
        assert_eq!(SizeClass::from_bytes(64), SizeClass::Tiny);
        assert_eq!(SizeClass::from_bytes(65), SizeClass::Small);
        assert_eq!(SizeClass::from_bytes(1024), SizeClass::Small);
        assert_eq!(SizeClass::from_bytes(16384), SizeClass::Medium);
        assert_eq!(SizeClass::from_bytes(16385), SizeClass::Large);
    }
}
