//! Error type for simulated memory operations.

use std::fmt;

use crate::fault::TagCheckFault;

/// Errors produced by [`TaggedMemory`] operations.
///
/// [`TaggedMemory`]: crate::TaggedMemory
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemError {
    /// The access touched addresses outside the simulated memory.
    OutOfRange {
        /// Faulting address.
        addr: u64,
        /// Access size in bytes.
        len: usize,
    },
    /// A tag operation (`stg`, `ldg`, …) targeted a page mapped without
    /// `PROT_MTE`.
    NotProtMte {
        /// Faulting address.
        addr: u64,
    },
    /// The hardware tag check failed (simulated `SIGSEGV` with
    /// `SEGV_MTESERR` / `SEGV_MTEAERR`).
    TagCheck(Box<TagCheckFault>),
    /// The simulated native allocator ran out of arena space.
    OutOfNativeMemory {
        /// Requested allocation size.
        requested: usize,
    },
    /// A fault injected by the stress harness through
    /// [`crate::inject`].
    Injected {
        /// Label of the operation the fault was injected into.
        point: &'static str,
    },
    /// `irg` found no usable tag: injected tag-pool exhaustion left only
    /// the zero tag, so the allocation cannot be colored distinctly.
    TagExhausted {
        /// Base address of the allocation that could not be tagged.
        addr: u64,
    },
}

impl MemError {
    /// Returns the contained tag-check fault, if this error is one.
    pub fn as_tag_check(&self) -> Option<&TagCheckFault> {
        match self {
            MemError::TagCheck(f) => Some(f),
            _ => None,
        }
    }

    /// Whether retrying the failed operation could plausibly succeed.
    ///
    /// Injected `ldg`/`stg` faults and arena exhaustion are momentary
    /// conditions: a later attempt draws fresh state (injection
    /// randomness, freed arena space). Tag-check faults, range errors,
    /// and missing `PROT_MTE` are deterministic properties of the access
    /// and will recur; tag exhaustion is handled by degradation, not
    /// retry.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            MemError::Injected { .. } | MemError::OutOfNativeMemory { .. }
        )
    }
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, len } => {
                write!(f, "access of {len} bytes at {addr:#x} is outside simulated memory")
            }
            MemError::NotProtMte { addr } => {
                write!(f, "tag operation at {addr:#x} targets a page without PROT_MTE")
            }
            MemError::TagCheck(fault) => write!(f, "tag check fault: {fault}"),
            MemError::OutOfNativeMemory { requested } => {
                write!(f, "simulated native allocator cannot satisfy {requested} bytes")
            }
            MemError::Injected { point } => {
                write!(f, "injected fault at {point}")
            }
            MemError::TagExhausted { addr } => {
                write!(f, "irg tag pool exhausted for allocation at {addr:#x}")
            }
        }
    }
}

impl std::error::Error for MemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MemError::TagCheck(fault) => Some(fault),
            _ => None,
        }
    }
}

impl From<TagCheckFault> for MemError {
    fn from(fault: TagCheckFault) -> Self {
        MemError::TagCheck(Box::new(fault))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_trailing_punctuation() {
        let msgs = [
            MemError::OutOfRange { addr: 0x10, len: 4 }.to_string(),
            MemError::NotProtMte { addr: 0x10 }.to_string(),
            MemError::OutOfNativeMemory { requested: 64 }.to_string(),
            MemError::Injected { point: "stg" }.to_string(),
            MemError::TagExhausted { addr: 0x10 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.ends_with('.'), "{m}");
            assert!(m.chars().next().unwrap().is_lowercase(), "{m}");
        }
    }

    #[test]
    fn as_tag_check_filters() {
        assert!(MemError::OutOfRange { addr: 0, len: 1 }.as_tag_check().is_none());
    }

    #[test]
    fn transient_classification() {
        assert!(MemError::Injected { point: "ldg" }.is_transient());
        assert!(MemError::OutOfNativeMemory { requested: 64 }.is_transient());
        assert!(!MemError::OutOfRange { addr: 0, len: 1 }.is_transient());
        assert!(!MemError::NotProtMte { addr: 0 }.is_transient());
        assert!(!MemError::TagExhausted { addr: 0 }.is_transient());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemError>();
    }
}
