//! Tagged 64-bit pointers.

use std::fmt;

use crate::tag::{Tag, GRANULE};

const TAG_SHIFT: u32 = 56;
const TAG_MASK: u64 = 0xF << TAG_SHIFT;
/// Bits 56..64 are "reserved" in the AArch64 addressing model used by the
/// paper (Figure 1): the address proper occupies the low 56 bits (of which
/// real hardware uses 48).
const ADDR_MASK: u64 = (1 << TAG_SHIFT) - 1;

/// A simulated AArch64 pointer carrying a 4-bit MTE tag in bits 56–59.
///
/// The defining property (paper §2.1) is that pointer arithmetic operates on
/// the address bits and leaves the tag bits untouched, so a pointer derived
/// from an in-bounds tagged pointer *inherits* the in-bounds tag — which is
/// exactly why an out-of-bounds derived pointer mismatches the neighbouring
/// granule's memory tag.
///
/// ```
/// use mte_sim::{Tag, TaggedPtr};
/// let p = TaggedPtr::from_addr(0x7a00_0000_0000).with_tag(Tag::new(0xB).unwrap());
/// let q = p.wrapping_add(4096);
/// assert_eq!(q.tag(), p.tag());
/// assert_eq!(q.addr(), p.addr() + 4096);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TaggedPtr(u64);

impl TaggedPtr {
    /// The null pointer (address 0, untagged).
    pub const NULL: TaggedPtr = TaggedPtr(0);

    /// Creates an untagged pointer to `addr`.
    ///
    /// Any bits above bit 55 in `addr` are discarded: the simulated address
    /// space is the low 56 bits, matching Figure 1 of the paper.
    pub fn from_addr(addr: u64) -> TaggedPtr {
        TaggedPtr(addr & ADDR_MASK)
    }

    /// Reconstructs a pointer from its raw 64-bit representation,
    /// including any tag bits.
    pub fn from_raw(raw: u64) -> TaggedPtr {
        TaggedPtr(raw & (ADDR_MASK | TAG_MASK))
    }

    /// The raw 64-bit value, tag bits included.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The memory address with the tag bits stripped.
    pub fn addr(self) -> u64 {
        self.0 & ADDR_MASK
    }

    /// The pointer tag stored in bits 56–59.
    pub fn tag(self) -> Tag {
        Tag::from_low_bits(((self.0 & TAG_MASK) >> TAG_SHIFT) as u8)
    }

    /// Returns the same address carrying `tag` — the software equivalent of
    /// copying the tag produced by `irg` into a pointer register.
    #[must_use]
    pub fn with_tag(self, tag: Tag) -> TaggedPtr {
        TaggedPtr(self.addr() | (u64::from(tag.value()) << TAG_SHIFT))
    }

    /// Strips the pointer tag (sets it to [`Tag::UNTAGGED`]).
    ///
    /// Runtime threads that never traverse a JNI tagging interface — the GC
    /// scanner, for instance — hold pointers of exactly this shape.
    #[must_use]
    pub fn untagged(self) -> TaggedPtr {
        TaggedPtr(self.addr())
    }

    /// Whether this is the null pointer.
    pub fn is_null(self) -> bool {
        self.addr() == 0
    }

    /// Pointer arithmetic: advances the address by `offset` bytes,
    /// preserving the tag. Wraps within the 56-bit address space.
    #[must_use]
    pub fn wrapping_add(self, offset: u64) -> TaggedPtr {
        TaggedPtr((self.0 & TAG_MASK) | (self.addr().wrapping_add(offset) & ADDR_MASK))
    }

    /// Pointer arithmetic: moves the address back by `offset` bytes,
    /// preserving the tag. Wraps within the 56-bit address space.
    #[must_use]
    pub fn wrapping_sub(self, offset: u64) -> TaggedPtr {
        TaggedPtr((self.0 & TAG_MASK) | (self.addr().wrapping_sub(offset) & ADDR_MASK))
    }

    /// Signed pointer arithmetic preserving the tag.
    #[must_use]
    pub fn wrapping_offset(self, offset: i64) -> TaggedPtr {
        if offset >= 0 {
            self.wrapping_add(offset as u64)
        } else {
            self.wrapping_sub(offset.unsigned_abs())
        }
    }

    /// The address of the granule containing this pointer.
    pub fn granule_base(self) -> u64 {
        self.addr() & !(GRANULE as u64 - 1)
    }

    /// Whether the address is aligned to `align` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn is_aligned_to(self, align: usize) -> bool {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        self.addr().is_multiple_of(align as u64)
    }
}

impl fmt::Debug for TaggedPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TaggedPtr({:#018x}, tag {})", self.0, self.tag())
    }
}

impl fmt::Display for TaggedPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

impl fmt::LowerHex for TaggedPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for TaggedPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_lives_in_bits_56_to_59() {
        let p = TaggedPtr::from_addr(0x1234).with_tag(Tag::new(0xA).unwrap());
        assert_eq!(p.raw(), (0xA << 56) | 0x1234);
        assert_eq!(p.tag().value(), 0xA);
        assert_eq!(p.addr(), 0x1234);
    }

    #[test]
    fn from_addr_strips_high_bits() {
        let p = TaggedPtr::from_addr(u64::MAX);
        assert_eq!(p.addr(), (1 << 56) - 1);
        assert_eq!(p.tag(), Tag::UNTAGGED);
    }

    #[test]
    fn from_raw_keeps_tag() {
        let raw = (0x7u64 << 56) | 0xABCD;
        let p = TaggedPtr::from_raw(raw);
        assert_eq!(p.tag().value(), 0x7);
        assert_eq!(p.addr(), 0xABCD);
        assert_eq!(p.raw(), raw);
    }

    #[test]
    fn arithmetic_preserves_tag() {
        let p = TaggedPtr::from_addr(0x1000).with_tag(Tag::new(0x5).unwrap());
        assert_eq!(p.wrapping_add(0x230).tag().value(), 0x5);
        assert_eq!(p.wrapping_add(0x230).addr(), 0x1230);
        assert_eq!(p.wrapping_sub(0x1).addr(), 0xFFF);
        assert_eq!(p.wrapping_sub(0x1).tag().value(), 0x5);
        assert_eq!(p.wrapping_offset(-16).addr(), 0xFF0);
        assert_eq!(p.wrapping_offset(16).addr(), 0x1010);
    }

    #[test]
    fn arithmetic_wraps_within_56_bits() {
        let top = (1u64 << 56) - 1;
        let p = TaggedPtr::from_addr(top).with_tag(Tag::new(0x3).unwrap());
        let q = p.wrapping_add(1);
        assert_eq!(q.addr(), 0, "wraps to zero instead of clobbering the tag");
        assert_eq!(q.tag().value(), 0x3);
    }

    #[test]
    fn untagged_strips() {
        let p = TaggedPtr::from_addr(0x4000).with_tag(Tag::new(0xF).unwrap());
        assert_eq!(p.untagged().raw(), 0x4000);
        assert_eq!(p.untagged().tag(), Tag::UNTAGGED);
    }

    #[test]
    fn null_detection_ignores_tag() {
        assert!(TaggedPtr::NULL.is_null());
        assert!(TaggedPtr::from_addr(0).with_tag(Tag::new(2).unwrap()).is_null());
        assert!(!TaggedPtr::from_addr(8).is_null());
    }

    #[test]
    fn granule_base_rounds_down() {
        let p = TaggedPtr::from_addr(0x102F);
        assert_eq!(p.granule_base(), 0x1020);
        assert_eq!(TaggedPtr::from_addr(0x1030).granule_base(), 0x1030);
    }

    #[test]
    fn alignment_check() {
        assert!(TaggedPtr::from_addr(0x1000).is_aligned_to(16));
        assert!(!TaggedPtr::from_addr(0x1008).is_aligned_to(16));
        assert!(TaggedPtr::from_addr(0x1008).is_aligned_to(8));
    }
}
