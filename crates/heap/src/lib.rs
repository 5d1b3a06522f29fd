//! A simulated ART-style Java heap on top of the [`mte_sim`] tagged memory.
//!
//! This crate is the runtime substrate the MTE4JNI paper modifies. It
//! provides:
//!
//! * a [`Heap`] with free-list allocation at a configurable alignment —
//!   8 bytes (stock ART) or 16 bytes (the paper's §4.1 change that makes
//!   object boundaries coincide with MTE granules) — and optional
//!   `PROT_MTE` mapping of the heap pages,
//! * a Java **object model**: primitive arrays ([`ArrayRef`]) and strings
//!   ([`StringRef`]) with 16-byte headers, bounds-checked managed accessors
//!   (the JVM's own safety checks), and raw data pointers for the JNI layer
//!   to hand to native code,
//! * **modified UTF-8** encoding/decoding as used by `GetStringUTFChars`,
//! * [`JavaThread`]s with managed↔native state transitions carrying an
//!   [`mte_sim::MteThread`], and
//! * a **GC scanner** ([`GcScanner`], [`Heap::sweep`]) that walks live
//!   objects with *untagged* pointers — the concurrent runtime accessor
//!   that makes thread-level MTE control necessary (paper §3.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod gc;
mod heap;
mod jstring;
mod object;
mod thread;
mod types;
mod world;

pub use error::HeapError;
pub use gc::{GcReport, GcScanner, GcScannerConfig, GcStats, ScanOutcome};
pub use heap::{
    CompactStats, Heap, HeapConfig, HeapStats, PinGuard, Safepoint, SafepointHook,
    SafepointPhase, HEADER_SIZE,
};
pub use jstring::{decode_modified_utf8, encode_modified_utf8, utf16_units, Utf8Error};
pub use object::{ArrayRef, ObjKind, ObjectRef, StringRef};
pub use thread::{JavaThread, ThreadState};
pub use types::PrimitiveType;

/// Convenience alias for results whose error type is [`HeapError`].
pub type Result<T> = std::result::Result<T, HeapError>;
