//! Trace record hook: a process-wide sink for deterministic JNI event
//! logs (DESIGN §14).
//!
//! Unlike the latency histograms, this is an ordered stream. It is
//! **off by default**: while no recorder is installed, every `emit` call
//! pays one relaxed load of the [`crate::hooks`] word, a mask of
//! its trace bit and a branch; a checked native element access skips
//! even that while the whole word is zero. The runtime layers
//! (jni trampoline/env funnel, heap GC, containment) call [`emit`] at
//! their semantic boundary points; a recorder (see `crates/trace`)
//! installs a [`TraceSink`] to capture the stream and serialize it.
//!
//! Events carry **logical** positions only — no wall-clock timestamps —
//! so recording the same seeded run twice produces bit-identical logs.
//! Thread ids are dense per recording session: the first thread to emit
//! after [`install`] is tid 0, the next tid 1, and so on, which keeps
//! the ids reproducible for deterministic (single- or seeded-scheduler)
//! runs.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hooks;

/// Replay/trace outcome codes: a compact, scheme-agnostic classification
/// of how one traced operation ended. The jni layer maps its error types
/// onto these; the replayer folds them into the outcome digest.
pub mod outcome {
    /// Operation succeeded.
    pub const OK: u8 = 0;
    /// Synchronous MTE tag-check fault.
    pub const FAULT_SYNC: u8 = 1;
    /// Asynchronous (latched, surfaced at a syscall) tag-check fault.
    pub const FAULT_ASYNC: u8 = 2;
    /// Fault contained at the trampoline (`JniError::ContainedFault`).
    pub const CONTAINED: u8 = 3;
    /// CheckJNI-style abort (corruption detected at release, or usage
    /// error caught by the ledger).
    pub const CHECK_JNI_ABORT: u8 = 4;
    /// Release of a pointer the scheme never handed out.
    pub const STALE_RELEASE: u8 = 5;
    /// Managed bounds check rejected the operation.
    pub const BOUNDS: u8 = 6;
    /// Heap or native allocation failure.
    pub const OOM: u8 = 7;
    /// Transient (injected) failure after retries were exhausted.
    pub const TRANSIENT: u8 = 8;
    /// `irg` tag-pool exhaustion surfaced to the caller.
    pub const TAG_EXHAUSTED: u8 = 9;
    /// Forbidden operation inside a critical section.
    pub const CRITICAL_VIOLATION: u8 = 10;
    /// Wrong object type for the interface.
    pub const WRONG_TYPE: u8 = 11;
    /// Replay-only: the event referenced a pointer/object the replayer
    /// has no mapping for (e.g. a borrow the recording force-released).
    pub const UNMAPPED: u8 = 12;
    /// Anything else.
    pub const OTHER: u8 = 13;

    /// Whether this outcome counts as "the scheme detected the illicit
    /// access" for differential-replay purposes.
    pub fn is_detection(code: u8) -> bool {
        matches!(code, FAULT_SYNC | FAULT_ASYNC | CONTAINED | CHECK_JNI_ABORT)
    }
}

/// One recorded runtime event. Sits at the bottom of the dependency
/// stack, so richer types (`JniInterface`, `NativeKind`, `ReleaseMode`,
/// `PrimitiveType`) are carried as their stable small-integer encodings;
/// the jni layer encodes, the replayer decodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A primitive array was allocated through the public JNI surface.
    /// `elem` is the `PrimitiveType` code, `len` the element count.
    AllocArray {
        /// Address of the object (its identity for later events).
        addr: u64,
        /// Element-type code (see `jni-rt::tracecode`).
        elem: u8,
        /// Element count.
        len: u64,
    },
    /// A Java string was allocated. `utf8_len` is the modified-UTF-8
    /// byte length (terminator excluded) — together with `utf16_len` it
    /// lets the replayer synthesize a string with identical heap and
    /// transcoding-buffer footprints.
    AllocString {
        /// Address of the string object.
        addr: u64,
        /// Length in UTF-16 code units.
        utf16_len: u64,
        /// Length in modified-UTF-8 bytes.
        utf8_len: u64,
    },
    /// `call_native` entered a native frame.
    CallEnter {
        /// The native method name.
        method: String,
        /// `NativeKind` code.
        kind: u8,
    },
    /// The matching frame exit, with the trampoline's final outcome
    /// (after containment).
    CallExit {
        /// Outcome code (see [`outcome`]).
        outcome: u8,
    },
    /// A `Get*` interface handed a raw pointer to native code (or
    /// failed to).
    Acquire {
        /// Identity address of the Java object named by the caller.
        obj: u64,
        /// `JniInterface` index.
        interface: u8,
        /// The raw (tag-carrying) pointer handed out; 0 on failure.
        ptr: u64,
        /// Outcome code.
        outcome: u8,
    },
    /// A `Release*` interface returned a pointer (app-level only; the
    /// containment pass's force-releases are deliberately invisible).
    Release {
        /// The raw pointer being released.
        ptr: u64,
        /// Identity address of the Java object named by the caller.
        obj: u64,
        /// `JniInterface` index.
        interface: u8,
        /// `ReleaseMode` code.
        mode: u8,
        /// Outcome code.
        outcome: u8,
    },
    /// One native scalar access through an acquired view
    /// (`NativeArray`/`NativeUtf` accessors): `base` is the view's raw
    /// pointer, `offset` the byte offset native code derived — possibly
    /// negative or out of bounds, which is the point.
    Access {
        /// Raw pointer of the acquired view.
        base: u64,
        /// Byte offset relative to `base`.
        offset: i64,
        /// Access width in bytes (1/2/4/8).
        width: u8,
        /// Write (true) or read (false).
        write: bool,
        /// For writes: the value bits (LE). 0 for reads.
        value: u64,
        /// Outcome code.
        outcome: u8,
    },
    /// A NUL-terminated string walk over a `GetStringUTFChars` buffer.
    CStr {
        /// Raw pointer of the UTF view.
        base: u64,
        /// Bytes read before the terminator (or the fault).
        len: u64,
        /// Outcome code.
        outcome: u8,
    },
    /// A bounds-checked region copy (`Get/Set*ArrayRegion`,
    /// `GetStringRegion`) — never reaches a protection scheme, but the
    /// replayer re-drives it to keep heap traffic identical.
    Region {
        /// Identity address of the object.
        obj: u64,
        /// `JniInterface` index (`ArrayRegion` or `StringRegion`).
        interface: u8,
        /// First element of the region.
        start: u64,
        /// Element count.
        len: u64,
        /// Write (`Set*Region`) or read.
        write: bool,
        /// Outcome code.
        outcome: u8,
    },
    /// A heap sweep completed.
    Sweep {
        /// Objects reclaimed.
        swept: u64,
        /// Objects pinned (natively borrowed) when the sweep finished.
        pinned: u64,
    },
    /// A compacting collection completed.
    Compact {
        /// Objects relocated.
        moved: u64,
        /// Dead objects reclaimed during the pass.
        reclaimed: u64,
    },
    /// Containment wrote a tombstone.
    Tombstone {
        /// Per-VM tombstone sequence number.
        seq: u64,
        /// The native method the fault was contained in.
        method: String,
        /// Faulting address (tag bits stripped).
        fault_addr: u64,
        /// Attributed `JniInterface` index, or `u8::MAX` when unknown.
        interface: u8,
        /// Borrows force-released by the containment pass.
        released: u32,
    },
    /// A native method crossed the quarantine threshold.
    Quarantined {
        /// The method now routed to the fallback scheme.
        method: String,
    },
    /// An acquire degraded to the fallback scheme (0 = quarantine
    /// routing, 1 = tag exhaustion).
    Degraded {
        /// The reason code: 0 quarantine, 1 tag exhaustion.
        reason: u8,
    },
}

/// Receives the recorded event stream. Implementations must serialize
/// internally ([`emit`] may be called from any thread) and must assign
/// their own monotonic sequence numbers under that lock.
pub trait TraceSink: Send + Sync {
    /// Delivers one event from the thread with session-dense id `tid`.
    fn emit(&self, tid: u32, event: TraceEvent);
}

static SINK: Mutex<Option<Arc<dyn TraceSink>>> = Mutex::new(None);
/// Bumped on every install so stale thread-local tids are re-assigned.
static EPOCH: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// (epoch, tid) of the calling thread's last assignment.
    static TID: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
}

/// Installs a recording sink and starts a fresh tid epoch. The previous
/// sink, if any, is replaced.
pub fn install(sink: Arc<dyn TraceSink>) {
    let mut slot = SINK.lock().unwrap();
    EPOCH.fetch_add(1, Ordering::SeqCst);
    NEXT_TID.store(0, Ordering::SeqCst);
    *slot = Some(sink);
    hooks::set_tracing(true);
}

/// Uninstalls the active sink (idempotent).
pub fn uninstall() {
    hooks::set_tracing(false);
    *SINK.lock().unwrap() = None;
}

/// Whether a recorder is currently installed.
#[inline]
pub fn active() -> bool {
    hooks::word() & hooks::TRACE_BIT != 0
}

/// Emits one event when recording is active; the closure (and any
/// encoding work inside it) only runs then, so an idle call costs a
/// relaxed load of the hooks word, a mask and a branch.
#[inline]
pub fn emit(make: impl FnOnce() -> TraceEvent) {
    if !active() {
        return;
    }
    emit_slow(make());
}

#[cold]
fn emit_slow(event: TraceEvent) {
    let epoch = EPOCH.load(Ordering::SeqCst);
    let tid = TID.with(|slot| {
        let (e, t) = slot.get();
        if e == epoch {
            t
        } else {
            let t = NEXT_TID.fetch_add(1, Ordering::SeqCst);
            slot.set((epoch, t));
            t
        }
    });
    // Deliver under the sink lock so concurrent emitters serialize into
    // one globally ordered stream.
    if let Some(sink) = SINK.lock().unwrap().clone() {
        sink.emit(tid, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that install the process-global sink: run
    /// in parallel, one test's `uninstall` or reinstall would cut into
    /// the other's session.
    static SINK_TESTS: Mutex<()> = Mutex::new(());

    struct Collect(Mutex<Vec<(u32, TraceEvent)>>);
    impl TraceSink for Collect {
        fn emit(&self, tid: u32, event: TraceEvent) {
            self.0.lock().unwrap().push((tid, event));
        }
    }

    #[test]
    fn emit_is_gated_and_tids_are_dense_per_session() {
        let _serial = SINK_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        uninstall();
        emit(|| panic!("must not run while inactive"));

        let sink = Arc::new(Collect(Mutex::new(Vec::new())));
        install(sink.clone());
        emit(|| TraceEvent::Sweep { swept: 1, pinned: 0 });
        std::thread::spawn(|| {
            emit(|| TraceEvent::Sweep { swept: 2, pinned: 0 });
        })
        .join()
        .unwrap();
        uninstall();
        emit(|| panic!("must not run after uninstall"));

        let events = sink.0.lock().unwrap();
        assert_eq!(events.len(), 2);
        let mut tids: Vec<u32> = events.iter().map(|&(t, _)| t).collect();
        tids.sort_unstable();
        assert_eq!(tids, vec![0, 1], "dense per-session thread ids");
    }

    #[test]
    fn reinstall_restarts_the_tid_epoch() {
        let _serial = SINK_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let sink = Arc::new(Collect(Mutex::new(Vec::new())));
        install(sink.clone());
        emit(|| TraceEvent::Sweep { swept: 0, pinned: 0 });
        install(sink.clone());
        emit(|| TraceEvent::Sweep { swept: 0, pinned: 0 });
        uninstall();
        let events = sink.0.lock().unwrap();
        assert_eq!(events[0].0, 0);
        assert_eq!(events[1].0, 0, "same thread is tid 0 again after reinstall");
    }

    #[test]
    fn detection_outcomes_classified() {
        assert!(outcome::is_detection(outcome::FAULT_SYNC));
        assert!(outcome::is_detection(outcome::CONTAINED));
        assert!(outcome::is_detection(outcome::CHECK_JNI_ABORT));
        assert!(!outcome::is_detection(outcome::OK));
        assert!(!outcome::is_detection(outcome::STALE_RELEASE));
    }
}
