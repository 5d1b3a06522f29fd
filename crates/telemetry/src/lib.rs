//! Observability substrate for the MTE4JNI reproduction.
//!
//! Sits at the bottom of the workspace dependency stack (everything may
//! depend on it, it depends on nothing) and provides four pieces:
//!
//! * **Event counts** — exact per-kind and per-[`JniInterface`] tallies
//!   of structured [`Event`]s (acquires, releases, guard drops, `TCO`
//!   toggles, GC passes, contained faults, degradations), counted where
//!   they happen;
//! * **Latency histograms** — log-bucketed (HDR-style) distributions
//!   under a typed, `Copy` [`HistKey`] (`tenant`, `scheme`, `interface`,
//!   payload size class, `op`) with p50/p90/p99/max summaries;
//! * **Counters** — a process-wide named-counter registry that absorbs
//!   `MteStats` (the exact `irg`/`ldg`/`stg` and fault counts) and the
//!   per-scheme counters behind one [`Snapshot`];
//! * **JSON** — a dependency-free writer/parser powering the bench
//!   binaries' schema-versioned `BENCH_*.json` exports.
//!
//! The ordered, replayable event stream is the separate [`trace`]
//! funnel; this crate's events are counts only.
//!
//! # Cost model
//!
//! Recording is **off by default**: every entry point first checks one
//! relaxed atomic. Benches that export JSON call [`set_enabled`]`(true)`;
//! the paper-calibration hot paths (Fig. 5 no-protection baseline) leave
//! it off and pay a branch-on-load per operation. Enabled, an event
//! costs one or two relaxed atomic adds, and a latency sample two
//! `Instant::now` reads plus four relaxed atomics on a handle its owner
//! (the VM, a serving tenant) resolved once through [`histogram`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod event;
pub mod fleet;
mod hist;
mod interface;
pub mod json;
mod snapshot;
pub mod trace;

pub use counters::{counters, CounterRegistry};
pub use event::{DegradeReason, Event, FaultClass};
pub use hist::{histogram, HistKey, LatencyHistogram, LatencyOp, SizeClass};
pub use interface::JniInterface;
pub use snapshot::{EventSummary, HistogramSummary, Snapshot, SCHEMA_VERSION};

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

/// Counts one runtime event under its kind and, for acquires, releases
/// and guard drops, its interface. Call sites pay one load and one
/// branch while recording is disabled.
#[inline]
pub fn record(event: Event) {
    if enabled() {
        event::count(event);
    }
}

/// Starts a latency measurement: `None` (skip the timing entirely) when
/// telemetry is disabled. Pair with [`LatencyHistogram::record`] on a
/// handle from [`histogram`].
#[inline]
pub fn start_timing() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// Clears event counts and counters and zeroes every histogram in place
/// (handles resolved before the call keep recording into the registry).
/// The boundary between two measured phases; tests call it between
/// cases, and `fig5` after its telemetry on/off row.
pub fn reset() {
    event::reset();
    hist::reset_all();
    counters().clear();
}

/// Serializes the unit tests that touch process-global telemetry state
/// (the enable flag, event counts, histograms, counters): run in
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
        // Disabled: nothing records, timing short-circuits.
        set_enabled(false);
        record(Event::Acquire {
            interface: JniInterface::PrimitiveArrayCritical,
        });
        assert!(start_timing().is_none());
        assert_eq!(Snapshot::collect().events.total, 0);

        set_enabled(true);
        record(Event::Acquire {
            interface: JniInterface::PrimitiveArrayCritical,
        });
        record(Event::ContainedFault {
            class: FaultClass::Sync,
        });
        let t0 = start_timing().expect("enabled");
        histogram(HistKey {
            tenant: None,
            scheme: "test-scheme",
            interface: "PrimitiveArrayCritical",
            size_class: SizeClass::Small,
            op: LatencyOp::Acquire,
        })
        .record(t0.elapsed());
        counters().add("test.counter", 2);

        let snap = Snapshot::collect();
        assert_eq!(snap.schema_version, SCHEMA_VERSION);
        assert_eq!(snap.counters["test.counter"], 2);
        assert_eq!(snap.events.total, 2);
        assert_eq!(snap.events.by_kind["acquire"], 1);
        assert_eq!(snap.events.by_kind["contained_sync"], 1);
        assert_eq!(snap.events.by_interface["PrimitiveArrayCritical"], 1);
        let mine = |snap: &Snapshot| {
            snap.histograms
                .iter()
                .find(|h| h.key.scheme == "test-scheme" && h.key.interface == "PrimitiveArrayCritical")
                .cloned()
        };
        let h = mine(&snap).expect("recorded histogram");
        assert_eq!(h.count, 1);
        assert_eq!(h.key.op, LatencyOp::Acquire);

        // Collecting does not consume: counts are cumulative like the
        // counters and histograms, until `reset`.
        assert_eq!(Snapshot::collect().events, snap.events);
        reset();
        let after = Snapshot::collect();
        assert_eq!(after.events, EventSummary::default());
        assert_eq!(mine(&after), None, "a zeroed histogram is omitted");

        set_enabled(false);
    }

    #[test]
    fn every_event_kind_counts_exactly_under_its_own_label() {
        let _serial = GLOBAL_STATE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        let iface = JniInterface::StringUtfChars;
        let kinds = [
            (Event::Acquire { interface: iface }, "acquire"),
            (Event::Release { interface: iface }, "release"),
            (Event::TcoToggle, "tco_toggle"),
            (Event::GcScan, "gc_scan"),
            (Event::GuardDrop { interface: iface }, "guard_drop"),
            (Event::InjectedFault, "injected_fault"),
            (Event::GcCompact, "gc_compact"),
            (
                Event::ContainedFault {
                    class: FaultClass::Sync,
                },
                "contained_sync",
            ),
            (
                Event::ContainedFault {
                    class: FaultClass::Async,
                },
                "contained_async",
            ),
            (
                Event::Degraded {
                    reason: DegradeReason::Quarantine,
                },
                "degraded_quarantine",
            ),
            (
                Event::Degraded {
                    reason: DegradeReason::TagExhaustion,
                },
                "degraded_tag_exhaustion",
            ),
        ];
        // Kind i is recorded i + 1 times from each of two threads, far
        // more often in total than any fixed-size buffer would hold.
        const ROUNDS: u64 = 3_000;
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for (i, &(event, _)) in kinds.iter().enumerate() {
                        for _ in 0..=i as u64 * ROUNDS {
                            record(event);
                        }
                    }
                });
            }
        });
        let events = Snapshot::collect().events;
        assert_eq!(events.by_kind.len(), kinds.len());
        for (i, &(_, label)) in kinds.iter().enumerate() {
            assert_eq!(
                events.by_kind[label],
                2 * (i as u64 * ROUNDS + 1),
                "{label}"
            );
        }
        assert_eq!(events.total, events.by_kind.values().sum::<u64>());
        // Acquire, release and guard drop carry the interface.
        let attributed: u64 = ["acquire", "release", "guard_drop"]
            .iter()
            .map(|k| events.by_kind[*k])
            .sum();
        assert_eq!(events.by_interface.len(), 1);
        assert_eq!(events.by_interface["StringUtfChars"], attributed);

        set_enabled(false);
        reset();
    }
}
