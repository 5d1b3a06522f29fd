//! Observability substrate for the MTE4JNI reproduction.
//!
//! Sits at the bottom of the workspace dependency stack (everything may
//! depend on it, it depends on nothing) and provides three pieces:
//!
//! * **Latency histograms** — log-bucketed (HDR-style) distributions
//!   under a typed, `Copy` [`HistKey`] (`tenant`, `scheme`, `interface`,
//!   payload size class, `op`) with p50/p90/p99/max summaries, collected
//!   into one [`Snapshot`];
//! * **Tallies** — [`Tally`], exact per-thread-row counters whose bump
//!   is a plain load and store, for the runtime's own statistics
//!   (`MteStats`, the heap's pin and GC totals, the schemes' and tag
//!   tables' counters). Each count is kept once, by its owner; a VM
//!   reads its owners' counts on demand (`jni_rt::Vm::counters`), and a
//!   bench report sums those reads over the VMs it measured;
//! * **JSON** — a dependency-free writer/parser powering the bench
//!   binaries' schema-versioned `BENCH_*.json` exports.
//!
//! The ordered, replayable event stream is the separate [`trace`]
//! funnel.
//!
//! # Cost model
//!
//! Recording is **off by default**: every entry point first checks one
//! relaxed atomic. Benches that export JSON call [`set_enabled`]`(true)`;
//! the paper-calibration hot paths (Fig. 5 no-protection baseline) leave
//! it off and pay a branch-on-load per operation. Enabled, a latency
//! sample costs two `Instant::now` reads plus four relaxed atomics on a
//! handle its owner (the VM, a serving tenant) resolved once through
//! [`histogram`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
mod hist;
mod interface;
pub mod json;
mod snapshot;
mod tally;
pub mod trace;

pub use hist::{histogram, HistKey, LatencyHistogram, LatencyOp, SizeClass};
pub use interface::JniInterface;
pub use snapshot::{HistogramSummary, Snapshot, SCHEMA_VERSION};
pub use tally::Tally;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns recording on or off process-wide (default: off).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts a latency measurement: `None` (skip the timing entirely) when
/// telemetry is disabled. Pair with [`LatencyHistogram::record`] on a
/// handle from [`histogram`].
#[inline]
pub fn start_timing() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// Zeroes every histogram in place (handles resolved before the call
/// keep recording into the registry). The boundary between two measured
/// phases; tests call it between cases, and `fig5` after its telemetry
/// on/off row.
pub fn reset() {
    hist::reset_all();
}

/// Serializes the unit tests that touch process-global telemetry state
/// (the enable flag, the histograms): run in
/// parallel, one test's `set_enabled(false)` or `reset()` would cut
/// into another's measurement.
#[cfg(test)]
pub(crate) static GLOBAL_STATE_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_record_and_snapshot() {
        let _serial = GLOBAL_STATE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        // Disabled: timing short-circuits.
        set_enabled(false);
        assert!(start_timing().is_none());

        set_enabled(true);
        let t0 = start_timing().expect("enabled");
        histogram(HistKey {
            tenant: None,
            scheme: "test-scheme",
            interface: "PrimitiveArrayCritical",
            size_class: SizeClass::Small,
            op: LatencyOp::Acquire,
        })
        .record(t0.elapsed());

        let snap = Snapshot::collect();
        assert_eq!(snap.schema_version, SCHEMA_VERSION);
        let mine = |snap: &Snapshot| {
            snap.histograms
                .iter()
                .find(|h| h.key.scheme == "test-scheme" && h.key.interface == "PrimitiveArrayCritical")
                .cloned()
        };
        let h = mine(&snap).expect("recorded histogram");
        assert_eq!(h.count, 1);
        assert_eq!(h.key.op, LatencyOp::Acquire);

        // Collecting does not consume: histograms are cumulative until
        // `reset`.
        assert_eq!(mine(&Snapshot::collect()), Some(h));
        reset();
        assert_eq!(mine(&Snapshot::collect()), None, "a zeroed histogram is omitted");

        set_enabled(false);
    }
}
