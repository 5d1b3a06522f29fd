//! Structured runtime events and their exact process-wide tallies.
//!
//! Each [`Event`] recorded through [`crate::record`] bumps one relaxed
//! atomic per event kind and, for interface-attributed events, one per
//! [`JniInterface`]. Nothing is buffered, so nothing can be dropped: the
//! snapshot digest reads the same totals the call sites produced.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::interface::JniInterface;
use crate::snapshot::EventSummary;

/// Synchronous vs. asynchronous tag-check fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Precise fault at the faulting instruction.
    Sync,
    /// Imprecise fault latched in `TFSR`, surfaced at a kernel entry.
    Async,
}

/// Why an acquire was downgraded from the primary protection scheme to
/// the guarded-copy fallback.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DegradeReason {
    /// The native method is quarantined after repeated contained faults.
    Quarantine,
    /// `irg` tag-pool exhaustion left no usable tag for this acquire.
    TagExhaustion,
}

/// One structured telemetry event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A `Get*` interface handed a raw pointer to native code (region
    /// copies count here too).
    Acquire {
        /// The interposing Table-1 interface.
        interface: JniInterface,
    },
    /// The matching `Release*` ran.
    Release {
        /// The interposing Table-1 interface.
        interface: JniInterface,
    },
    /// A trampoline flipped the per-thread `TCO` register.
    TcoToggle,
    /// A GC scanner completed one scan pass.
    GcScan,
    /// An acquisition guard was dropped without an explicit
    /// `commit`/`abort` (auto-released with `JNI_ABORT`).
    GuardDrop {
        /// The interface the guard belonged to.
        interface: JniInterface,
    },
    /// The stress harness's fault injector forced a failure at a
    /// simulator operation.
    InjectedFault,
    /// The compacting collector completed one pass.
    GcCompact,
    /// A tag-check fault was contained at the `call_native` boundary
    /// instead of aborting the VM (`FaultPolicy::Contain`).
    ContainedFault {
        /// The class of the contained fault.
        class: FaultClass,
    },
    /// An acquire was routed to the guarded-copy fallback scheme.
    Degraded {
        /// Why the fallback was taken.
        reason: DegradeReason,
    },
}

/// The `by_kind` labels, in [`Event::kind_index`] order.
const KIND_LABELS: [&str; 11] = [
    "acquire",
    "release",
    "tco_toggle",
    "gc_scan",
    "guard_drop",
    "injected_fault",
    "gc_compact",
    "contained_sync",
    "contained_async",
    "degraded_quarantine",
    "degraded_tag_exhaustion",
];

impl Event {
    /// Slot of this event's kind in [`KIND_LABELS`].
    fn kind_index(self) -> usize {
        match self {
            Event::Acquire { .. } => 0,
            Event::Release { .. } => 1,
            Event::TcoToggle => 2,
            Event::GcScan => 3,
            Event::GuardDrop { .. } => 4,
            Event::InjectedFault => 5,
            Event::GcCompact => 6,
            Event::ContainedFault {
                class: FaultClass::Sync,
            } => 7,
            Event::ContainedFault {
                class: FaultClass::Async,
            } => 8,
            Event::Degraded {
                reason: DegradeReason::Quarantine,
            } => 9,
            Event::Degraded {
                reason: DegradeReason::TagExhaustion,
            } => 10,
        }
    }

    /// The interface this event is attributed to, if any.
    fn interface(self) -> Option<JniInterface> {
        match self {
            Event::Acquire { interface }
            | Event::Release { interface }
            | Event::GuardDrop { interface } => Some(interface),
            _ => None,
        }
    }
}

static BY_KIND: [AtomicU64; KIND_LABELS.len()] = [const { AtomicU64::new(0) }; KIND_LABELS.len()];
static BY_INTERFACE: [AtomicU64; JniInterface::ALL.len()] =
    [const { AtomicU64::new(0) }; JniInterface::ALL.len()];

/// Counts `event` under its kind and, if it has one, its interface.
pub(crate) fn count(event: Event) {
    BY_KIND[event.kind_index()].fetch_add(1, Ordering::Relaxed);
    if let Some(interface) = event.interface() {
        BY_INTERFACE[usize::from(interface.index())].fetch_add(1, Ordering::Relaxed);
    }
}

/// The tallies since the last [`reset`]; kinds and interfaces never
/// seen are omitted.
pub(crate) fn summary() -> EventSummary {
    fn nonzero<'a>(
        labels: impl IntoIterator<Item = &'a str>,
        counts: &[AtomicU64],
    ) -> BTreeMap<String, u64> {
        labels
            .into_iter()
            .zip(counts)
            .map(|(label, n)| (label.to_owned(), n.load(Ordering::Relaxed)))
            .filter(|&(_, n)| n > 0)
            .collect()
    }
    let by_kind = nonzero(KIND_LABELS, &BY_KIND);
    EventSummary {
        total: by_kind.values().sum(),
        by_kind,
        by_interface: nonzero(JniInterface::ALL.map(JniInterface::label), &BY_INTERFACE),
    }
}

/// Zeroes every tally.
pub(crate) fn reset() {
    for n in BY_KIND.iter().chain(&BY_INTERFACE) {
        n.store(0, Ordering::Relaxed);
    }
}
