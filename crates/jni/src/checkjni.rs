//! CheckJNI-style usage validation.
//!
//! ART's CheckJNI detects more than buffer overflows: it catches JNI
//! *usage* errors such as releasing a pointer through the wrong interface,
//! releasing it against the wrong object, or forgetting to release at all
//! (paper §6.3). This module holds that validation, opt-in per
//! environment ([`VmBuilder::check_jni`]). It keeps no pointer map of its
//! own: the environment's live-borrow list already records each borrow's
//! interface and object, and a release is checked against the borrow it
//! names there.
//!
//! The interface vocabulary itself ([`JniInterface`]) lives in the
//! `telemetry` crate so protection schemes and events can share it; this
//! crate re-exports it under the historical `InterfaceKind` name.
//!
//! [`VmBuilder::check_jni`]: crate::VmBuilder::check_jni

use std::cell::RefCell;

use mte_sim::{Backtrace, TaggedPtr};
use telemetry::JniInterface;

use crate::error::{AbortReport, JniError};
use crate::Result;

/// One outstanding (acquired, not yet released) JNI pointer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outstanding {
    /// The raw pointer handed to native code.
    pub pointer: u64,
    /// The interface family it came from.
    pub interface: JniInterface,
    /// Address of the Java object the pointer was acquired from. For
    /// `GetStringUTFChars` this is the *source string*, not the hidden
    /// transcoding buffer, so releases can be validated against the
    /// string the caller passes back.
    pub object: u64,
}

/// Per-environment CheckJNI state. Disabled ledgers cost nothing.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    enabled: bool,
    guard_drops: RefCell<Vec<Outstanding>>,
}

impl Ledger {
    pub(crate) fn new(enabled: bool) -> Ledger {
        Ledger {
            enabled,
            guard_drops: RefCell::new(Vec::new()),
        }
    }

    /// Whether CheckJNI validation is on for this environment.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Validates a release against `acquired`, the live borrow the
    /// released pointer names: it must have been acquired through the
    /// same interface family, against the same object. Pointers with no
    /// live borrow are left to the protection scheme (which reports a
    /// stale release where it can).
    pub(crate) fn verify(
        &self,
        acquired: Option<Outstanding>,
        interface: JniInterface,
        object: u64,
    ) -> Result<()> {
        match acquired {
            Some(a) if self.enabled && a.interface != interface => Err(Self::abort(format!(
                "pointer {:#x} was acquired with {} but released with {}",
                a.pointer,
                a.interface.get_name(),
                interface.release_name(),
            ))),
            Some(a) if self.enabled && a.object != object => Err(Self::abort(format!(
                "pointer {:#x} was acquired with {} from object {:#x} \
                 but released against object {:#x}",
                a.pointer,
                interface.get_name(),
                a.object,
                object,
            ))),
            _ => Ok(()),
        }
    }

    fn abort(message: String) -> JniError {
        JniError::CheckJniAbort(Box::new(AbortReport {
            message,
            corruption_offset: None,
            backtrace: Backtrace::default(),
        }))
    }

    /// Notes a guard that was dropped without an explicit release — the
    /// RAII release keeps the scheme consistent, but the leak is still a
    /// usage bug worth surfacing.
    pub(crate) fn note_guard_drop(&self, ptr: TaggedPtr, interface: JniInterface, object: u64) {
        if self.enabled {
            self.guard_drops.borrow_mut().push(Outstanding {
                pointer: ptr.raw(),
                interface,
                object,
            });
        }
    }

    /// Guards dropped without an explicit `commit`/`abort`.
    pub(crate) fn guard_drops(&self) -> Vec<Outstanding> {
        self.guard_drops.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interface_names_render() {
        assert_eq!(
            JniInterface::PrimitiveArrayCritical.get_name(),
            "GetPrimitiveArrayCritical"
        );
        assert_eq!(
            JniInterface::StringUtfChars.release_name(),
            "ReleaseStringUTFChars"
        );
    }
}
