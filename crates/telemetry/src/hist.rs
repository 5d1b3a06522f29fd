//! Log-bucketed latency histograms (HDR-style) keyed by
//! `(tenant, scheme, interface, payload-size-class, operation)`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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

/// A histogram registry key. `interface` is a display label rather than
/// [`crate::JniInterface`] so trampolines can key by native-call kind
/// (`"Normal"`, `"FastNative"`, …) through the same table. The derived
/// order is the snapshot order: `tenant` leads, so the untenanted
/// histograms (`None`) come first and the serving layer's sort last.
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

/// A concurrent log-bucketed histogram.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

fn bucket_for(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((64 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

impl LatencyHistogram {
    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket_for(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// An upper-bound estimate of the `q`-quantile, `q` in `[0, 1]`: the
    /// ceiling of the bucket holding the rank, `2^i − 1` ns (bucket 0 is
    /// "≤ 1 ns"), clamped to the observed max so p99 never exceeds it.
    /// Returns 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let ceiling = if i == 0 { 1 } else { (1u64 << i) - 1 };
                return ceiling.min(self.max_ns());
            }
        }
        self.max_ns()
    }

    /// Largest recorded duration in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Raw bucket counts, for JSON export.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Zeroes every bucket and summary, in place.
    fn clear(&self) {
        for a in self
            .buckets
            .iter()
            .chain([&self.count, &self.sum_ns, &self.max_ns])
        {
            a.store(0, Ordering::Relaxed);
        }
    }
}

static REGISTRY: Mutex<BTreeMap<HistKey, Arc<LatencyHistogram>>> = Mutex::new(BTreeMap::new());

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<HistKey, Arc<LatencyHistogram>>> {
    REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The histogram for `key`, created on first use. This takes the
/// registry lock: a recording site resolves its handle once and keeps
/// it, so each later sample is just [`LatencyHistogram::record`].
pub fn histogram(key: HistKey) -> Arc<LatencyHistogram> {
    Arc::clone(registry().entry(key).or_default())
}

/// Every registered histogram, in key order.
pub(crate) fn all_histograms() -> Vec<(HistKey, Arc<LatencyHistogram>)> {
    registry()
        .iter()
        .map(|(&k, h)| (k, Arc::clone(h)))
        .collect()
}

/// Zeroes every registered histogram in place. The entries stay, so a
/// handle resolved before the reset keeps feeding the registry.
pub(crate) fn reset_all() {
    registry().values().for_each(|h| h.clear());
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

    #[test]
    fn quantiles_bracket_the_data() {
        let h = LatencyHistogram::default();
        for ns in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 1000] {
            h.record(Duration::from_nanos(ns));
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_ns(0.50);
        assert!((32..=127).contains(&p50), "p50 bucket ceiling: {p50}");
        assert_eq!(h.max_ns(), 1000);
        assert_eq!(h.quantile_ns(1.0), 1000, "p100 clamps to max");
        assert!(h.quantile_ns(0.99) <= 1023);
        assert_eq!(h.mean_ns(), 145);
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

    #[test]
    fn registry_reuses_histograms() {
        let key = HistKey {
            tenant: None,
            scheme: "test-scheme",
            interface: "ArrayElements",
            size_class: SizeClass::Tiny,
            op: LatencyOp::Acquire,
        };
        let a = histogram(key);
        a.record(Duration::from_nanos(5));
        let b = histogram(key);
        assert_eq!(b.count(), 1);
    }
}
