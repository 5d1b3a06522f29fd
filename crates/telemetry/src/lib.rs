//! Observability substrate for the MTE4JNI reproduction.
//!
//! Sits at the bottom of the workspace dependency stack (everything may
//! depend on it, it depends on nothing) and provides three pieces:
//!
//! * **Latency histograms** — log-bucketed (HDR-style) distributions
//!   under a typed, `Copy` [`HistKey`] (`tenant`, `scheme`, `interface`,
//!   payload size class, `op`). Each is held in a [`HistSlot`] by what
//!   it times (a VM's acquire, release and trampoline slots, a heap's
//!   compaction pauses, a serving tenant's requests) and read out as a
//!   [`HistogramSummary`] with p50/p90/p99/max;
//! * **Tallies** — [`Tally`], exact per-thread-row counters whose bump
//!   is a plain load and store, for the runtime's own statistics
//!   (`MteStats`, the heap's pin and GC totals, the schemes' and tag
//!   tables' counters). Each count is kept once, by its owner; a VM
//!   reads its owners' counts on demand;
//! * **Snapshots** — one owner's counters and histograms as one
//!   [`Snapshot`] (`jni_rt::Vm::snapshot`). [`Snapshot::merge`] sums
//!   several, so a bench report covers exactly the VMs it measured;
//! * **JSON** — a dependency-free writer/parser powering the bench
//!   binaries' schema-versioned `BENCH_*.json` exports.
//!
//! The ordered, replayable event stream is the separate [`trace`]
//! funnel; [`hooks`] is the one word a checked native access reads to
//! learn whether a trace sink or a fault injector could act on it.
//!
//! # Cost model
//!
//! Recording is **off by default**: every entry point first checks one
//! relaxed atomic. Benches that export JSON call [`set_enabled`]`(true)`;
//! the paper-calibration hot paths (Fig. 5 no-protection baseline) leave
//! it off and pay a branch-on-load per operation. Enabled, a latency
//! sample costs two `Instant::now` reads plus three relaxed atomics on
//! the histogram its owner allocated on the slot's first sample.
//!
//! Besides the tallies' per-thread row claims, the recording flag, the
//! trace sink and the hooks word are the crate's only process-wide
//! state: every histogram and every count belongs to an owner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
pub mod hooks;
mod interface;
pub mod json;
mod snapshot;
mod tally;
pub mod trace;

pub use hist::{HistKey, HistSlot, HistogramSummary, LatencyOp, SizeClass};
pub use interface::JniInterface;
pub use snapshot::{Snapshot, SCHEMA_VERSION};
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
/// telemetry is disabled. Pair with [`HistSlot::record`].
#[inline]
pub fn start_timing() -> Option<Instant> {
    enabled().then(Instant::now)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The only test in this crate that touches the recording flag.
    #[test]
    fn timing_follows_the_recording_flag() {
        set_enabled(false);
        assert!(start_timing().is_none());
        set_enabled(true);
        assert!(start_timing().is_some());
        set_enabled(false);
    }
}
