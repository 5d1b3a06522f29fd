//! A simulated ART JNI layer.
//!
//! This crate provides the call surface that MTE4JNI instruments:
//!
//! * [`Vm`] — the runtime: a heap, a process-wide MTE mode, and one
//!   pluggable [`Protection`] scheme,
//! * [`JniEnv`] — the per-thread JNI environment implementing every
//!   get/release pair from the paper's Table 1
//!   (`GetStringCritical`, `GetPrimitiveArrayCritical`, `GetStringChars`,
//!   `GetStringUTFChars`, `Get*ArrayElements`, `Get*ArrayRegion` and the
//!   corresponding releases),
//! * [`NativeMem`] / [`NativeArray`] — the raw-pointer view native code
//!   receives: element accesses are **not** bounds checked (that is the
//!   vulnerability), but every access goes through the simulated MTE
//!   hardware, so tag checking applies when a scheme enables it,
//! * native-method **trampolines** ([`JniEnv::call_native`]) that perform
//!   thread-state transitions and — when the scheme requests it — flip the
//!   per-thread `TCO` register so MTE checking is scoped to native code
//!   (paper §3.3 / §4.3),
//! * the [`Protection`] trait that the `guarded-copy` baseline and the
//!   `mte4jni` scheme implement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkjni;
mod containment;
mod env;
mod error;
mod guard;
mod native;
mod protection;
pub mod tracecode;
mod trampoline;
mod vm;

pub use checkjni::Outstanding;
pub use containment::{
    Containment, ContainmentConfig, ContainmentStats, FaultPolicy, Tombstone,
};
pub use env::JniEnv;
pub use error::{AbortReport, JniError};
pub use guard::CriticalGuard;
pub use native::{NativeArray, NativeMem, NativeUtf};
pub use protection::{AcquireOutcome, JniContext, NoProtection, Protection, ReleaseMode};
pub use trampoline::NativeKind;
pub use vm::{Vm, VmBuilder, VmConfig};

pub use telemetry::JniInterface;
/// The counter a [`Protection`] scheme keeps its
/// [`counters`](Protection::counters) in.
pub use telemetry::Tally;

/// Convenience alias for results whose error type is [`JniError`].
pub type Result<T> = std::result::Result<T, JniError>;
