//! The pluggable JNI out-of-bounds protection scheme.

use std::fmt;

use art_heap::{Heap, JavaThread, ObjectRef, Safepoint};
use mte_sim::{TaggedMemory, TaggedPtr};
use telemetry::JniInterface;

use crate::Result;

/// How a `Release*` call treats the data, mirroring the JNI `mode`
/// argument of `Release<Type>ArrayElements`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ReleaseMode {
    /// `0`: copy back (if the scheme handed out a copy) and free.
    #[default]
    CopyBack,
    /// `JNI_COMMIT`: copy back but keep the buffer acquired.
    Commit,
    /// `JNI_ABORT`: free without copying back.
    Abort,
}

/// Everything a protection scheme may need at an interposition point.
#[derive(Clone, Copy)]
pub struct JniContext<'a> {
    /// The Java heap.
    pub heap: &'a Heap,
    /// The calling thread.
    pub thread: &'a JavaThread,
    /// The Table-1 interface this interposition serves. Schemes can
    /// branch on it (e.g. to treat critical sections differently) and
    /// telemetry attributes events to it.
    pub interface: JniInterface,
}

impl fmt::Debug for JniContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JniContext")
            .field("thread", &self.thread.name())
            .field("interface", &self.interface)
            .finish()
    }
}

/// What a `Get*` interface hands to native code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AcquireOutcome {
    /// The raw pointer native code receives. Under MTE4JNI it carries the
    /// allocated pointer tag; under guarded copy it points into the shadow
    /// buffer; with no protection it is the object's untagged data pointer.
    pub ptr: TaggedPtr,
    /// The JNI `isCopy` flag.
    pub is_copy: bool,
}

/// A JNI raw-pointer protection scheme, interposed on every Table-1
/// get/release pair.
///
/// Implementations must be thread safe: ART applications acquire and
/// release the same objects from many threads concurrently, and Figure 6
/// of the paper measures exactly that contention.
pub trait Protection: Send + Sync + fmt::Debug {
    /// Short scheme name for reports and telemetry keys (e.g.
    /// `"guarded-copy"`).
    fn name(&self) -> &'static str;

    /// Interposes a `Get*` interface about to expose `obj`'s payload.
    ///
    /// # Errors
    ///
    /// Scheme-specific; e.g. guarded copy may fail to allocate its shadow
    /// buffer.
    fn on_acquire(&self, cx: &JniContext<'_>, obj: &ObjectRef) -> Result<AcquireOutcome>;

    /// Interposes the matching `Release*` interface.
    ///
    /// `ptr` is the pointer previously returned by [`Self::on_acquire`].
    ///
    /// # Errors
    ///
    /// [`crate::JniError::CheckJniAbort`] when release-time verification
    /// detects corruption (guarded copy);
    /// [`crate::JniError::StaleRelease`] when `ptr` was never acquired.
    fn on_release(
        &self,
        cx: &JniContext<'_>,
        obj: &ObjectRef,
        ptr: TaggedPtr,
        mode: ReleaseMode,
    ) -> Result<()>;

    /// Whether trampolines should clear `TCO` around native code on this
    /// scheme's behalf (true for MTE4JNI, false otherwise).
    fn uses_thread_mte(&self) -> bool {
        false
    }

    /// Notifies the scheme of a GC safepoint *before* the collector
    /// acts: a sweep about to reclaim dead, unpinned candidates, or a
    /// compaction about to move every unpinned object. Schemes whose
    /// bookkeeping can outlive the borrow's pin — an MTE4JNI tag-table
    /// entry whose release was abandoned after persistent faults — must
    /// retire it here, restoring "tracked ⇒ pinned" at the only moments
    /// the collector consults it. Runs on the collector's thread under
    /// its world hold; the default is a no-op.
    fn on_safepoint(&self, _mem: &TaggedMemory, _sp: &Safepoint<'_>) {}

    /// Scheme-specific counters for the telemetry registry, as
    /// `(name, value)` pairs. [`Vm::telemetry_snapshot`] publishes them
    /// under `scheme.<name>.<counter>`.
    ///
    /// [`Vm::telemetry_snapshot`]: crate::Vm::telemetry_snapshot
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// The default production configuration: JNI out-of-bounds checking
/// disabled entirely.
///
/// `Get*` returns the object's real data pointer, untagged; `Release*` is
/// a no-op. Out-of-bounds native accesses silently corrupt neighbouring
/// heap memory (paper §5.2, "no protection").
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProtection;

impl NoProtection {
    /// Creates the scheme.
    pub fn new() -> NoProtection {
        NoProtection
    }
}

impl Protection for NoProtection {
    fn name(&self) -> &'static str {
        "no-protection"
    }

    fn on_acquire(&self, cx: &JniContext<'_>, obj: &ObjectRef) -> Result<AcquireOutcome> {
        Ok(AcquireOutcome {
            ptr: cx.heap.data_ptr(obj),
            is_copy: false,
        })
    }

    fn on_release(
        &self,
        _cx: &JniContext<'_>,
        _obj: &ObjectRef,
        _ptr: TaggedPtr,
        _mode: ReleaseMode,
    ) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use art_heap::HeapConfig;

    #[test]
    fn no_protection_returns_real_untagged_pointer() {
        let heap = Heap::new(HeapConfig::default());
        let thread = JavaThread::new("main");
        let cx = JniContext {
            heap: &heap,
            thread: &thread,
            interface: JniInterface::PrimitiveArrayCritical,
        };
        let a = heap.alloc_int_array(8).unwrap();
        let obj = a.as_object();
        let out = NoProtection::new().on_acquire(&cx, obj).unwrap();
        assert_eq!(out.ptr.addr(), a.data_addr());
        assert!(out.ptr.tag().is_untagged());
        assert!(!out.is_copy);
        NoProtection::new()
            .on_release(&cx, obj, out.ptr, ReleaseMode::CopyBack)
            .unwrap();
    }

    #[test]
    fn no_protection_does_not_request_thread_mte() {
        assert!(!NoProtection::new().uses_thread_mte());
        assert_eq!(NoProtection::new().name(), "no-protection");
        assert!(NoProtection::new().counters().is_empty(), "default: none");
    }

    #[test]
    fn release_mode_default_is_copy_back() {
        assert_eq!(ReleaseMode::default(), ReleaseMode::CopyBack);
    }
}
