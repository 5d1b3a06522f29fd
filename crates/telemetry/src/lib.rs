//! Observability substrate for the MTE4JNI reproduction.
//!
//! Sits at the bottom of the workspace dependency stack (everything may
//! depend on it, it depends on nothing) and provides four pieces:
//!
//! * **Events** — a lock-free per-thread ring buffer of structured
//!   [`Event`]s (acquire/release per [`JniInterface`], `irg`/`ldg`/`stg`
//!   tag ops, sync/async faults, `TCO` toggles, GC scan passes), merged
//!   and drained on snapshot;
//! * **Latency histograms** — log-bucketed (HDR-style) distributions
//!   keyed by `(scheme, interface, payload-size-class, op)` with
//!   p50/p90/p99/max summaries;
//! * **Counters** — a process-wide named-counter registry that absorbs
//!   `MteStats` and the per-scheme counters behind one [`Snapshot`];
//! * **JSON** — a dependency-free writer/parser powering the bench
//!   binaries' schema-versioned `BENCH_*.json` exports.
//!
//! # Cost model
//!
//! Recording is **off by default**: every entry point first checks one
//! relaxed atomic. Benches that export JSON call [`set_enabled`]`(true)`;
//! the paper-calibration hot paths (Fig. 5 no-protection baseline) leave
//! it off and pay a branch-on-load per operation. High-frequency sources
//! additionally honor a sampling period ([`set_sample_every`]); rare
//! events (faults, GC passes, guard drops, `TCO` toggles) are never
//! sampled away. Compiling with `--no-default-features` removes the
//! recording bodies entirely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod event;
pub mod fleet;
mod hist;
mod interface;
pub mod json;
mod ring;
mod snapshot;
pub mod trace;

pub use counters::{counters, CounterRegistry};
pub use event::{DegradeReason, DrainedEvent, Event, FaultClass, InjectPoint, TagOp};
pub use hist::{histogram, HistKey, LatencyHistogram, LatencyOp, SizeClass};
pub use interface::JniInterface;
pub use snapshot::{EventSummary, HistogramSummary, Snapshot, SCHEMA_VERSION};

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SAMPLE_EVERY: AtomicU32 = AtomicU32::new(1);

/// Turns recording on or off process-wide (default: off).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is currently enabled. Always `false` when the
/// crate is built without the `telemetry` feature.
#[inline]
pub fn enabled() -> bool {
    cfg!(feature = "telemetry") && ENABLED.load(Ordering::Relaxed)
}

/// Records only every `n`-th high-frequency event/timing per thread
/// (default 1 = record all). `0` behaves like 1. Rare events ignore
/// this.
pub fn set_sample_every(n: u32) {
    SAMPLE_EVERY.store(n.max(1), Ordering::Relaxed);
}

thread_local! {
    static SAMPLE_TICK: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// One sampling decision: true when this thread's tick hits the period.
#[inline]
fn sampled() -> bool {
    let every = SAMPLE_EVERY.load(Ordering::Relaxed);
    if every <= 1 {
        return true;
    }
    SAMPLE_TICK.with(|t| {
        let n = t.get().wrapping_add(1);
        t.set(n);
        n % every == 0
    })
}

/// Records a high-frequency event (acquires, releases, tag ops). The
/// closure only runs when telemetry is enabled and the sample fires, so
/// call sites pay one load + one branch when disabled.
#[inline]
pub fn record(make: impl FnOnce() -> Event) {
    #[cfg(feature = "telemetry")]
    if enabled() && sampled() {
        ring::push_local(make());
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = make;
}

/// Records a rare event (faults, GC scans, guard drops, `TCO` toggles):
/// enabled-gated but never sampled away.
#[inline]
pub fn record_rare(make: impl FnOnce() -> Event) {
    #[cfg(feature = "telemetry")]
    if enabled() {
        ring::push_local(make());
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = make;
}

/// Calls accumulated per thread before a tag-op batch is emitted as one
/// [`Event::TagOp`] per instruction class.
const TAG_BATCH_CALLS: u32 = 64;

#[cfg(feature = "telemetry")]
struct TagBatch {
    /// Granules accumulated per [`TagOp`] (`index()` order).
    granules: [std::cell::Cell<u64>; 3],
    calls: std::cell::Cell<u32>,
    /// The owning thread's event ring, cached on the first recorded op.
    /// The `Drop` flush below runs during TLS destruction, when the
    /// ring's own thread-local slot may already be torn down — pushing
    /// through this cached handle is the only safe route then.
    ring: std::cell::RefCell<Option<std::sync::Arc<ring::EventRing>>>,
}

#[cfg(feature = "telemetry")]
impl Drop for TagBatch {
    fn drop(&mut self) {
        // Thread exit with a partial batch window: without this flush a
        // short-lived thread silently dropped up to
        // `TAG_BATCH_CALLS - 1` tail ops' worth of granules.
        if let Some(ring) = self.ring.get_mut().take() {
            for op in [TagOp::Irg, TagOp::Ldg, TagOp::Stg] {
                let total = self.granules[tag_op_index(op)].take();
                if total > 0 {
                    ring.push(Event::TagOp {
                        op,
                        granules: u32::try_from(total).unwrap_or(u32::MAX),
                    });
                }
            }
        }
    }
}

#[cfg(feature = "telemetry")]
thread_local! {
    static TAG_BATCH: TagBatch = const {
        TagBatch {
            granules: [
                std::cell::Cell::new(0),
                std::cell::Cell::new(0),
                std::cell::Cell::new(0),
            ],
            calls: std::cell::Cell::new(0),
            ring: std::cell::RefCell::new(None),
        }
    };
}

#[cfg(feature = "telemetry")]
fn tag_op_index(op: TagOp) -> usize {
    match op {
        TagOp::Irg => 0,
        TagOp::Ldg => 1,
        TagOp::Stg => 2,
    }
}

/// Records a tag instruction on the simulator's hot path, batched: the
/// granule count accumulates in a thread-local tally and one
/// [`Event::TagOp`] per instruction class is emitted every
/// [`TAG_BATCH_CALLS`] calls (and on [`flush_tag_ops`], which
/// [`drain_events`] runs for the draining thread). Granule totals are
/// exact — batching trades event-stream granularity, not counts — and
/// the disabled-telemetry cost is one relaxed load and a branch.
#[inline]
pub fn record_tag_op(op: TagOp, granules: u64) {
    #[cfg(feature = "telemetry")]
    if enabled() {
        // `try_with`: tag ops can fire from other thread-local
        // destructors after this batch is already gone; dropping those
        // few counts is the best-effort contract of thread teardown.
        let _ = TAG_BATCH.try_with(|b| {
            // Bind the owning ring now, while thread-local state is
            // intact, so the thread-exit Drop flush never has to.
            if b.ring.borrow().is_none() {
                *b.ring.borrow_mut() = Some(ring::local_ring());
            }
            let slot = &b.granules[tag_op_index(op)];
            slot.set(slot.get().saturating_add(granules));
            let calls = b.calls.get() + 1;
            if calls >= TAG_BATCH_CALLS {
                flush_batch(b);
            } else {
                b.calls.set(calls);
            }
        });
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (op, granules);
}

#[cfg(feature = "telemetry")]
fn flush_batch(b: &TagBatch) {
    for op in [TagOp::Irg, TagOp::Ldg, TagOp::Stg] {
        let slot = &b.granules[tag_op_index(op)];
        let total = slot.take();
        if total > 0 {
            ring::push_local(Event::TagOp {
                op,
                granules: u32::try_from(total).unwrap_or(u32::MAX),
            });
        }
    }
    b.calls.set(0);
}

/// Flushes the calling thread's pending tag-op batch into its event
/// ring. Worker threads that record tag ops should flush before
/// exiting; the main thread is flushed automatically by
/// [`drain_events`].
pub fn flush_tag_ops() {
    #[cfg(feature = "telemetry")]
    let _ = TAG_BATCH.try_with(flush_batch);
}

/// Starts a latency measurement: `None` (skip the timing entirely) when
/// telemetry is disabled or this operation is sampled out. Pair with
/// [`record_latency`].
#[inline]
pub fn start_timing() -> Option<Instant> {
    #[cfg(feature = "telemetry")]
    if enabled() && sampled() {
        return Some(Instant::now());
    }
    None
}

/// Records a latency sample into the `(scheme, interface, size-class,
/// op)` histogram. Callers obtain `started` from [`start_timing`].
pub fn record_latency(
    scheme: &str,
    interface: &'static str,
    size_class: SizeClass,
    op: LatencyOp,
    started: Instant,
) {
    let elapsed = started.elapsed();
    record_latency_duration(scheme, interface, size_class, op, elapsed);
}

/// As [`record_latency`], with an explicit duration.
pub fn record_latency_duration(
    scheme: &str,
    interface: &'static str,
    size_class: SizeClass,
    op: LatencyOp,
    elapsed: Duration,
) {
    #[cfg(feature = "telemetry")]
    {
        hist::histogram(HistKey {
            scheme: scheme.to_owned(),
            interface,
            size_class,
            op,
        })
        .record(elapsed);
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (scheme, interface, size_class, op, elapsed);
}

/// Drains every thread's pending events (oldest-first per thread),
/// flushing the calling thread's tag-op batch first.
pub fn drain_events() -> Vec<DrainedEvent> {
    flush_tag_ops();
    ring::drain_all()
}

/// Clears events, histograms, and counters — the boundary between two
/// measured phases (benches call this after warm-up). The calling
/// thread's pending tag-op batch is discarded with them.
pub fn reset() {
    #[cfg(feature = "telemetry")]
    TAG_BATCH.with(|b| {
        for slot in &b.granules {
            slot.set(0);
        }
        b.calls.set(0);
    });
    ring::reset_all();
    hist::reset_all();
    counters().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable flag and registries are process-global, so exercise the
    // full pipeline in a single test rather than racing several.
    #[test]
    fn end_to_end_record_and_snapshot() {
        reset();
        // Disabled: nothing records, timing short-circuits.
        set_enabled(false);
        record(|| panic!("must not run while disabled"));
        assert!(start_timing().is_none());

        set_enabled(true);
        set_sample_every(1);
        record(|| Event::Acquire {
            interface: JniInterface::PrimitiveArrayCritical,
        });
        record_rare(|| Event::Fault {
            class: FaultClass::Sync,
        });
        let t0 = start_timing().expect("enabled");
        record_latency("test-scheme", "PrimitiveArrayCritical", SizeClass::Small, LatencyOp::Acquire, t0);
        counters().add("test.counter", 2);

        let snap = Snapshot::collect();
        assert_eq!(snap.schema_version, SCHEMA_VERSION);
        assert_eq!(snap.counters["test.counter"], 2);
        assert_eq!(snap.events.by_kind["acquire"], 1);
        assert_eq!(snap.events.by_kind["fault_sync"], 1);
        assert_eq!(snap.events.by_interface["PrimitiveArrayCritical"], 1);
        let h = &snap.histograms[0];
        assert_eq!(h.count, 1);
        assert_eq!(h.op, LatencyOp::Acquire);

        // Snapshot drained the stream; a new collect sees no events.
        assert_eq!(Snapshot::collect().events.total, 0);

        // Sampling: with a period of 3, 9 events record 3 times.
        reset();
        set_sample_every(3);
        for _ in 0..9 {
            record(|| Event::TagOp {
                op: TagOp::Ldg,
                granules: 1,
            });
        }
        assert_eq!(drain_events().len(), 3);
        // Rare events ignore the sampling period.
        for _ in 0..4 {
            record_rare(|| Event::GcScan { objects: 1 });
        }
        assert_eq!(drain_events().len(), 4);

        // Batched tag ops: granule totals are exact, event counts are
        // one per instruction class per batch window.
        reset();
        set_sample_every(1);
        record_tag_op(TagOp::Stg, 3);
        record_tag_op(TagOp::Ldg, 1);
        let drained = drain_events(); // explicit drain flushes the batch
        assert_eq!(drained.len(), 2);
        let stg_granules: u64 = drained
            .iter()
            .filter_map(|e| match e.event {
                Event::TagOp { op: TagOp::Stg, granules } => Some(u64::from(granules)),
                _ => None,
            })
            .sum();
        assert_eq!(stg_granules, 3);
        // A full batch window self-flushes without an explicit drain.
        for _ in 0..TAG_BATCH_CALLS {
            record_tag_op(TagOp::Stg, 2);
        }
        let auto = ring::drain_all(); // bypass the drain-side flush
        assert_eq!(auto.len(), 1, "one event per class per window");
        assert_eq!(
            auto[0].event,
            Event::TagOp { op: TagOp::Stg, granules: 2 * TAG_BATCH_CALLS }
        );

        // Thread-exit flush: a short-lived thread's partial batch window
        // (here 2 calls, far under TAG_BATCH_CALLS) used to be dropped
        // with the thread; the TagBatch Drop now flushes the tail into
        // the thread's (registry-kept) ring.
        reset();
        std::thread::Builder::new()
            .name("short-lived".into())
            .spawn(|| {
                record_tag_op(TagOp::Irg, 1);
                record_tag_op(TagOp::Stg, 4);
            })
            .unwrap()
            .join()
            .unwrap();
        let drained = drain_events();
        let tail: Vec<_> = drained.iter().filter(|e| e.thread == "short-lived").collect();
        assert_eq!(tail.len(), 2, "thread-exit flush emits one event per class");
        let stg_tail: u64 = tail
            .iter()
            .filter_map(|e| match e.event {
                Event::TagOp { op: TagOp::Stg, granules } => Some(u64::from(granules)),
                _ => None,
            })
            .sum();
        assert_eq!(stg_tail, 4, "granule totals stay exact across thread exit");

        set_sample_every(1);
        set_enabled(false);
        reset();
    }
}
