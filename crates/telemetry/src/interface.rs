//! The Table-1 interface vocabulary shared by the JNI layer, the
//! protection schemes, and the latency histograms' keys.

/// One row of the paper's Table 1: the JNI get/release (or region)
/// family through which native code touches a Java object's payload.
///
/// This lives in the telemetry crate — the bottom of the dependency
/// stack — so that `jni-rt` can carry it in `JniContext`, protection
/// schemes can branch on it, and latency samples and trace events can
/// be attributed to it, all without a dependency cycle. `jni-rt`
/// re-exports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum JniInterface {
    /// `Get/ReleaseStringCritical` (Table 1, row 1).
    StringCritical,
    /// `Get/ReleasePrimitiveArrayCritical` (row 2).
    PrimitiveArrayCritical,
    /// `Get/ReleaseStringChars` (row 3).
    StringChars,
    /// `Get/ReleaseStringUTFChars` (row 4).
    StringUtfChars,
    /// `Get/Release<Type>ArrayElements` (row 5).
    ArrayElements,
    /// `Get/Set<Type>ArrayRegion` (row 6) — bounds-checked copies that
    /// never reach a protection scheme.
    ArrayRegion,
    /// `GetStringRegion` / `GetStringUTFRegion` — ditto.
    StringRegion,
}

impl JniInterface {
    /// Every variant, in Table-1 order.
    pub const ALL: [JniInterface; 7] = [
        JniInterface::StringCritical,
        JniInterface::PrimitiveArrayCritical,
        JniInterface::StringChars,
        JniInterface::StringUtfChars,
        JniInterface::ArrayElements,
        JniInterface::ArrayRegion,
        JniInterface::StringRegion,
    ];

    /// The `Get*` interface name, for reports.
    pub fn get_name(self) -> &'static str {
        match self {
            JniInterface::StringCritical => "GetStringCritical",
            JniInterface::PrimitiveArrayCritical => "GetPrimitiveArrayCritical",
            JniInterface::StringChars => "GetStringChars",
            JniInterface::StringUtfChars => "GetStringUTFChars",
            JniInterface::ArrayElements => "Get<Type>ArrayElements",
            JniInterface::ArrayRegion => "Get/Set<Type>ArrayRegion",
            JniInterface::StringRegion => "GetStringRegion",
        }
    }

    /// The matching `Release*` interface name (for the region families,
    /// which have no release, this is the family name itself).
    pub fn release_name(self) -> &'static str {
        match self {
            JniInterface::StringCritical => "ReleaseStringCritical",
            JniInterface::PrimitiveArrayCritical => "ReleasePrimitiveArrayCritical",
            JniInterface::StringChars => "ReleaseStringChars",
            JniInterface::StringUtfChars => "ReleaseStringUTFChars",
            JniInterface::ArrayElements => "Release<Type>ArrayElements",
            JniInterface::ArrayRegion => "Get/Set<Type>ArrayRegion",
            JniInterface::StringRegion => "GetStringRegion",
        }
    }

    /// A short label for histogram keys and JSON.
    pub fn label(self) -> &'static str {
        match self {
            JniInterface::StringCritical => "StringCritical",
            JniInterface::PrimitiveArrayCritical => "PrimitiveArrayCritical",
            JniInterface::StringChars => "StringChars",
            JniInterface::StringUtfChars => "StringUtfChars",
            JniInterface::ArrayElements => "ArrayElements",
            JniInterface::ArrayRegion => "ArrayRegion",
            JniInterface::StringRegion => "StringRegion",
        }
    }

    /// Stable small integer for compact event encoding (also the wire
    /// code used by the trace codec).
    pub fn index(self) -> u8 {
        match self {
            JniInterface::StringCritical => 0,
            JniInterface::PrimitiveArrayCritical => 1,
            JniInterface::StringChars => 2,
            JniInterface::StringUtfChars => 3,
            JniInterface::ArrayElements => 4,
            JniInterface::ArrayRegion => 5,
            JniInterface::StringRegion => 6,
        }
    }

    /// Decodes [`Self::index`]; `None` for out-of-range codes.
    pub fn from_index(i: u8) -> Option<JniInterface> {
        JniInterface::ALL.get(usize::from(i)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for iface in JniInterface::ALL {
            assert_eq!(JniInterface::from_index(iface.index()), Some(iface));
        }
        assert_eq!(JniInterface::from_index(7), None);
    }

    #[test]
    fn names_cover_table_1() {
        assert_eq!(
            JniInterface::PrimitiveArrayCritical.get_name(),
            "GetPrimitiveArrayCritical"
        );
        assert_eq!(
            JniInterface::StringUtfChars.release_name(),
            "ReleaseStringUTFChars"
        );
        assert_eq!(JniInterface::ALL.len(), 7);
    }
}
