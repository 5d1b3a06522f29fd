//! RAII guards for the critical JNI interfaces.
//!
//! A [`CriticalGuard`] pairs `GetPrimitiveArrayCritical`/
//! `GetStringCritical` with a guaranteed release: dropping the guard
//! releases the borrow (with [`ReleaseMode::Abort`], since nothing was
//! committed), while [`CriticalGuard::commit`]/[`CriticalGuard::abort`]
//! release it deliberately. Guards delegate to the same acquire/release
//! path as the paired `get_*`/`release_*` methods, so the protection
//! scheme, CheckJNI validation, and telemetry see identical traffic.

use crate::env::JniEnv;
use crate::native::{NativeArray, NativeMem};
use crate::protection::ReleaseMode;
use crate::Result;

use art_heap::{ArrayRef, StringRef};
use mte_sim::TaggedPtr;
use telemetry::JniInterface;

#[derive(Clone)]
enum GuardTarget {
    Array(ArrayRef),
    Str(StringRef),
}

/// An acquired critical section that releases itself.
///
/// Obtained from [`JniEnv::critical`] or [`JniEnv::string_critical`].
/// Ending the borrow:
///
/// * [`commit`](Self::commit)`(mode)` — the explicit release. With
///   [`ReleaseMode::Commit`] (JNI's `JNI_COMMIT`) the data is written
///   back but the borrow stays open, so the guard is handed back to the
///   caller; any other mode consumes it.
/// * [`abort`](Self::abort) — release discarding writes (`JNI_ABORT`).
/// * dropping the guard — releases with [`ReleaseMode::Abort`] and
///   (under CheckJNI) notes the leak in [`JniEnv::guard_drops`]. The scheme stays consistent, but relying on
///   this path is a usage bug.
pub struct CriticalGuard<'e, 'a> {
    env: &'e JniEnv<'a>,
    target: GuardTarget,
    elems: Option<NativeArray>,
}

impl<'e, 'a> CriticalGuard<'e, 'a> {
    pub(crate) fn for_array(
        env: &'e JniEnv<'a>,
        array: ArrayRef,
        elems: NativeArray,
    ) -> CriticalGuard<'e, 'a> {
        CriticalGuard {
            env,
            target: GuardTarget::Array(array),
            elems: Some(elems),
        }
    }

    pub(crate) fn for_string(
        env: &'e JniEnv<'a>,
        string: StringRef,
        chars: NativeArray,
    ) -> CriticalGuard<'e, 'a> {
        CriticalGuard {
            env,
            target: GuardTarget::Str(string),
            elems: Some(chars),
        }
    }

    /// The acquired element view.
    pub fn array(&self) -> &NativeArray {
        self.elems.as_ref().expect("guard holds elements until consumed")
    }

    /// The raw pointer native code received.
    pub fn ptr(&self) -> TaggedPtr {
        self.array().ptr()
    }

    /// The JNI `isCopy` flag.
    pub fn is_copy(&self) -> bool {
        self.array().is_copy()
    }

    /// The native memory view for element access, as
    /// [`JniEnv::native_mem`].
    pub fn mem(&self) -> NativeMem<'_> {
        self.env.native_mem()
    }

    fn interface(&self) -> JniInterface {
        match self.target {
            GuardTarget::Array(_) => JniInterface::PrimitiveArrayCritical,
            GuardTarget::Str(_) => JniInterface::StringCritical,
        }
    }

    /// Releases the borrow through the ordinary release path.
    ///
    /// With [`ReleaseMode::Commit`] the borrow survives (JNI `JNI_COMMIT`
    /// semantics): the guard is returned for continued use and a later
    /// final release. Every other mode ends the borrow and returns
    /// `None`. String criticals ignore `mode` — strings are immutable, so
    /// the release is always a discard.
    ///
    /// # Errors
    ///
    /// See [`JniEnv::release_primitive_array_critical`]. On error the
    /// guard is consumed; the release already ran.
    pub fn commit(mut self, mode: ReleaseMode) -> Result<Option<CriticalGuard<'e, 'a>>> {
        let elems = self.elems.take().expect("unconsumed guard");
        match &self.target {
            GuardTarget::Array(a) => {
                let keep = mode == ReleaseMode::Commit;
                let ptr = elems.ptr();
                let len = elems.len();
                let elem = elems.element_type();
                let is_copy = elems.is_copy();
                self.env.release_primitive_array_critical(a, elems, mode)?;
                if keep {
                    self.elems = Some(NativeArray::new(ptr, len, elem, is_copy));
                    return Ok(Some(self));
                }
            }
            GuardTarget::Str(s) => {
                self.env.release_string_critical(s, elems)?;
            }
        }
        Ok(None)
    }

    /// Releases the borrow discarding any writes (`JNI_ABORT`).
    ///
    /// # Errors
    ///
    /// See [`Self::commit`].
    pub fn abort(self) -> Result<()> {
        self.commit(ReleaseMode::Abort).map(drop)
    }
}

impl Drop for CriticalGuard<'_, '_> {
    fn drop(&mut self) {
        let Some(elems) = self.elems.take() else {
            return; // consumed by commit/abort
        };
        let (interface, object) = match &self.target {
            GuardTarget::Array(a) => (self.interface(), a.addr()),
            GuardTarget::Str(s) => (self.interface(), s.addr()),
        };
        self.env.note_guard_drop(elems.ptr(), interface, object);
        // Release so the scheme stays consistent; a drop cannot surface
        // errors, so corruption reports are lost here — another reason the
        // explicit commit/abort path is the correct one.
        let _ = match &self.target {
            GuardTarget::Array(a) => {
                self.env
                    .release_primitive_array_critical(a, elems, ReleaseMode::Abort)
            }
            GuardTarget::Str(s) => self.env.release_string_critical(s, elems),
        };
    }
}

impl std::fmt::Debug for CriticalGuard<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CriticalGuard")
            .field("interface", &self.interface())
            .field("released", &self.elems.is_none())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::Vm;

    fn vm() -> Vm {
        Vm::builder().build()
    }

    #[test]
    fn guard_releases_on_drop() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array(4).unwrap();
        {
            let guard = env.critical(&a).unwrap();
            assert_eq!(env.critical_depth(), 1);
            assert!(!guard.is_copy());
        }
        assert_eq!(env.critical_depth(), 0, "drop released the section");
    }

    #[test]
    fn explicit_commit_consumes_the_guard() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array_from(&[1, 2, 3]).unwrap();
        let guard = env.critical(&a).unwrap();
        let mem = guard.mem();
        guard.array().write_i32(&mem, 0, 9).unwrap();
        assert!(guard.commit(ReleaseMode::CopyBack).unwrap().is_none());
        assert_eq!(env.critical_depth(), 0);
        assert_eq!(vm.heap().int_at(&t, &a, 0).unwrap(), 9);
    }

    #[test]
    fn commit_mode_keeps_the_guard_alive() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array_from(&[5]).unwrap();
        let guard = env.critical(&a).unwrap();
        let guard = guard
            .commit(ReleaseMode::Commit)
            .unwrap()
            .expect("JNI_COMMIT keeps the borrow");
        assert_eq!(env.critical_depth(), 1, "still inside the section");
        guard.abort().unwrap();
        assert_eq!(env.critical_depth(), 0);
    }

    #[test]
    fn string_guard_round_trips() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let s = env.new_string("AB").unwrap();
        let guard = env.string_critical(&s).unwrap();
        let mem = guard.mem();
        assert_eq!(guard.array().read_u16(&mem, 1).unwrap(), u16::from(b'B'));
        guard.abort().unwrap();
        assert_eq!(env.critical_depth(), 0);
    }
}
