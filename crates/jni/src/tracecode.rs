//! Stable wire codes for the trace record/replay substrate (DESIGN §14).
//!
//! [`telemetry::trace::TraceEvent`] sits at the bottom of the dependency
//! stack and therefore carries rich runtime types as small integers.
//! This module owns those encodings for the types that live at or above
//! the jni layer (`NativeKind`, `ReleaseMode`, `PrimitiveType`) plus the
//! [`telemetry::trace::outcome`] classification of jni-layer
//! results, so the recorder (hooks in this crate) and the replayer
//! (`crates/trace`) cannot drift apart.

use art_heap::{HeapError, PrimitiveType};
use mte_sim::{FaultKind, MemError};
use telemetry::trace::outcome;

use crate::error::JniError;
use crate::protection::ReleaseMode;
use crate::trampoline::NativeKind;

/// Encodes a [`NativeKind`].
pub fn kind_code(kind: NativeKind) -> u8 {
    match kind {
        NativeKind::Normal => 0,
        NativeKind::FastNative => 1,
        NativeKind::CriticalNative => 2,
    }
}

/// Decodes [`kind_code`]; `None` for out-of-range codes.
pub fn kind_from_code(code: u8) -> Option<NativeKind> {
    match code {
        0 => Some(NativeKind::Normal),
        1 => Some(NativeKind::FastNative),
        2 => Some(NativeKind::CriticalNative),
        _ => None,
    }
}

/// Encodes a [`ReleaseMode`].
pub fn mode_code(mode: ReleaseMode) -> u8 {
    match mode {
        ReleaseMode::CopyBack => 0,
        ReleaseMode::Commit => 1,
        ReleaseMode::Abort => 2,
    }
}

/// Decodes [`mode_code`]; `None` for out-of-range codes.
pub fn mode_from_code(code: u8) -> Option<ReleaseMode> {
    match code {
        0 => Some(ReleaseMode::CopyBack),
        1 => Some(ReleaseMode::Commit),
        2 => Some(ReleaseMode::Abort),
        _ => None,
    }
}

/// Encodes a [`PrimitiveType`] (JVM descriptor order).
pub fn elem_code(ty: PrimitiveType) -> u8 {
    PrimitiveType::ALL
        .iter()
        .position(|&t| t == ty)
        .expect("PrimitiveType::ALL is exhaustive") as u8
}

/// Decodes [`elem_code`]; `None` for out-of-range codes.
pub fn elem_from_code(code: u8) -> Option<PrimitiveType> {
    PrimitiveType::ALL.get(usize::from(code)).copied()
}

/// Classifies a simulated-memory error as a trace outcome code.
pub fn mem_outcome(e: &MemError) -> u8 {
    match e {
        MemError::TagCheck(f) => match f.kind {
            FaultKind::Sync => outcome::FAULT_SYNC,
            FaultKind::Async => outcome::FAULT_ASYNC,
        },
        MemError::OutOfRange { .. } => outcome::BOUNDS,
        MemError::OutOfNativeMemory { .. } => outcome::OOM,
        MemError::Injected { .. } => outcome::TRANSIENT,
        MemError::TagExhausted { .. } => outcome::TAG_EXHAUSTED,
        MemError::NotProtMte { .. } => outcome::OTHER,
    }
}

/// Classifies a jni-layer error as a trace outcome code.
pub fn jni_outcome(e: &JniError) -> u8 {
    match e {
        JniError::Mem(m) | JniError::Heap(HeapError::Mem(m)) => mem_outcome(m),
        JniError::Heap(HeapError::IndexOutOfBounds { .. }) => outcome::BOUNDS,
        JniError::Heap(HeapError::OutOfMemory { .. }) => outcome::OOM,
        JniError::Heap(_) => outcome::OTHER,
        JniError::CheckJniAbort(_) => outcome::CHECK_JNI_ABORT,
        JniError::StaleRelease { .. } => outcome::STALE_RELEASE,
        JniError::CriticalViolation { .. } => outcome::CRITICAL_VIOLATION,
        JniError::WrongObjectType { .. } => outcome::WRONG_TYPE,
        JniError::ContainedFault { .. } => outcome::CONTAINED,
    }
}

/// Outcome code of a jni-layer result ([`outcome::OK`] on success).
pub fn result_outcome<T>(r: &Result<T, JniError>) -> u8 {
    match r {
        Ok(_) => outcome::OK,
        Err(e) => jni_outcome(e),
    }
}

/// Outcome code of a raw memory-access result.
pub fn mem_result_outcome<T>(r: &Result<T, MemError>) -> u8 {
    match r {
        Ok(_) => outcome::OK,
        Err(e) => mem_outcome(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_and_mode_codes_round_trip() {
        for kind in [NativeKind::Normal, NativeKind::FastNative, NativeKind::CriticalNative] {
            assert_eq!(kind_from_code(kind_code(kind)), Some(kind));
        }
        assert_eq!(kind_from_code(3), None);
        for mode in [ReleaseMode::CopyBack, ReleaseMode::Commit, ReleaseMode::Abort] {
            assert_eq!(mode_from_code(mode_code(mode)), Some(mode));
        }
        assert_eq!(mode_from_code(3), None);
    }

    #[test]
    fn elem_codes_round_trip() {
        for ty in PrimitiveType::ALL {
            assert_eq!(elem_from_code(elem_code(ty)), Some(ty));
        }
        assert_eq!(elem_from_code(8), None);
    }

    #[test]
    fn error_classification_covers_the_detection_set() {
        use telemetry::trace::outcome::is_detection;
        assert!(is_detection(jni_outcome(&JniError::CheckJniAbort(Box::new(
            crate::error::AbortReport {
                message: "corruption".into(),
                corruption_offset: None,
                backtrace: mte_sim::Backtrace::default(),
            }
        )))));
        assert!(!is_detection(jni_outcome(&JniError::StaleRelease { pointer: 1 })));
        assert_eq!(
            jni_outcome(&JniError::Heap(HeapError::IndexOutOfBounds { index: 9, length: 3 })),
            outcome::BOUNDS
        );
    }
}
