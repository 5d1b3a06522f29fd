//! Deterministic JNI event-trace record/replay.
//!
//! This crate turns the runtime's [`telemetry::trace`] event stream into
//! a portable artifact and back:
//!
//! * [`record`] — a [`RecordingSession`] captures every traced event
//!   (allocations, borrow acquire/release, tagged accesses, GC, fault
//!   containment) with monotonic logical sequence numbers; fixed-seed
//!   corpus scenarios live here too.
//! * [`codec`] — a compact length-prefixed varint binary format with a
//!   schema-versioned header. Encoding is bit-reproducible: no wall
//!   clock, no host state, ever.
//! * [`replay`](mod@replay) — re-drives a trace against a fresh [`jni_rt::Vm`] under
//!   any table backend (or the guarded-copy scheme) and reduces the run
//!   to a deterministic outcome [`Digest`].
//! * [`diff`](mod@diff) — the differential oracle: one trace replayed across every
//!   backend, digests compared under the documented allowance (tag
//!   values and containment mechanics may differ between schemes;
//!   detection verdicts and conservation laws may not).
//!
//! Golden traces for the CI gate are committed under `corpus/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod diff;
pub mod record;
pub mod replay;

pub use codec::{Trace, TraceError, TraceHeader, TraceRecord};
pub use diff::{diff, DiffReport};
pub use record::{
    record_oob_contain, record_spurious, record_workload, Recorder, RecordingSession,
};
pub use replay::{replay, Digest, FrameOutcome, ReplayError};
