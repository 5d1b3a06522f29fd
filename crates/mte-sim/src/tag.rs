//! The 4-bit tag domain shared by pointers and memory granules.

use std::fmt;

/// Size in bytes of one tag granule.
///
/// The ARM MTE specification assigns one memory tag to every 16-byte
/// aligned unit of memory (paper §2.1, Figure 1).
pub const GRANULE: usize = 16;

/// Simulated page size; `PROT_MTE` is tracked at page granularity, exactly
/// as `mprotect(2)` applies it on Linux.
pub const PAGE_SIZE: usize = 4096;

/// Number of tag bits. Tags range over `0..16`.
pub const TAG_BITS: u32 = 4;

/// Granule tags packed into one `u64` tag word (16 × 4 bits). The tag
/// store keeps the tag of granule *g* in nibble `g % TAGS_PER_WORD` of
/// word `g / TAGS_PER_WORD`, so one word covers 256 bytes of data and a
/// single comparison checks 16 granules at once (DESIGN.md §10).
pub const TAGS_PER_WORD: usize = 16;

/// A 4-bit MTE tag.
///
/// Tag `0` is the *untagged* value: freshly mapped `PROT_MTE` memory carries
/// tag `0`, and pointers that never pass through a tagging interface carry
/// pointer tag `0`. The MTE4JNI scheme therefore excludes `0` from random
/// tag generation so that an untagged pointer can never legally access a
/// tagged object.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tag(u8);

impl Tag {
    /// The reserved "no tag" value.
    pub const UNTAGGED: Tag = Tag(0);

    /// Creates a tag, returning `None` if `value >= 16`.
    ///
    /// ```
    /// use mte_sim::Tag;
    /// assert!(Tag::new(7).is_some());
    /// assert!(Tag::new(16).is_none());
    /// ```
    pub fn new(value: u8) -> Option<Tag> {
        (value < 16).then_some(Tag(value))
    }

    /// Creates a tag from the low 4 bits of `value`, discarding the rest.
    pub fn from_low_bits(value: u8) -> Tag {
        Tag(value & 0xF)
    }

    /// The numeric tag value in `0..16`.
    pub fn value(self) -> u8 {
        self.0
    }

    /// Whether this is the reserved untagged value.
    pub fn is_untagged(self) -> bool {
        self.0 == 0
    }

    /// This tag replicated into every nibble of a `u64` — the broadcast
    /// operand of the word-wide tag compare: a packed tag word XORed
    /// with the broadcast is zero in exactly the nibbles whose granule
    /// tag matches.
    pub fn broadcast64(self) -> u64 {
        u64::from(self.0) * 0x1111_1111_1111_1111
    }
}

impl fmt::Debug for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tag({:#x})", self.0)
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_new_rejects_out_of_range() {
        for v in 0..=u8::MAX {
            match Tag::new(v) {
                Some(t) => {
                    assert!(v < 16);
                    assert_eq!(t.value(), v);
                }
                None => assert!(v >= 16),
            }
        }
    }

    #[test]
    fn broadcast_fills_every_nibble() {
        assert_eq!(Tag::UNTAGGED.broadcast64(), 0);
        assert_eq!(Tag::new(0xF).unwrap().broadcast64(), u64::MAX);
        assert_eq!(Tag::new(0xA).unwrap().broadcast64(), 0xAAAA_AAAA_AAAA_AAAA);
        for v in 0..16u8 {
            let w = Tag::new(v).unwrap().broadcast64();
            for nibble in 0..TAGS_PER_WORD {
                assert_eq!(((w >> (nibble * 4)) & 0xF) as u8, v);
            }
        }
    }

    #[test]
    fn tag_from_low_bits_masks() {
        assert_eq!(Tag::from_low_bits(0x35).value(), 0x5);
        assert_eq!(Tag::from_low_bits(0xF0).value(), 0x0);
        assert_eq!(Tag::from_low_bits(0xFF).value(), 0xF);
    }

    #[test]
    fn untagged_is_zero_and_default() {
        assert_eq!(Tag::UNTAGGED.value(), 0);
        assert!(Tag::UNTAGGED.is_untagged());
        assert_eq!(Tag::default(), Tag::UNTAGGED);
        assert!(!Tag::new(1).unwrap().is_untagged());
    }

    #[test]
    fn display_formats_hex() {
        assert_eq!(Tag::new(0xA).unwrap().to_string(), "0xa");
        assert_eq!(format!("{:?}", Tag::new(0xA).unwrap()), "Tag(0xa)");
    }
}
