//! The packed atomic entry word behind [`AtomicEntryTable`].
//!
//! One `AtomicU64` per tracked object folds everything the two-tier
//! scheme keeps under a per-object mutex into a single CAS-able word:
//!
//! ```text
//!  63                             38 37  36 35   32 31              0
//! ┌─────────────────────────────────┬──────┬───────┬────────────────┐
//! │ unused (always 0)               │ state│  tag  │ refcount       │
//! └─────────────────────────────────┴──────┴───────┴────────────────┘
//! ```
//!
//! * **refcount** — concurrent borrowers sharing the object's tag;
//! * **tag** — the 4-bit memory tag applied to the payload granules;
//! * **state** — [`EntryState::Free`] (nothing tracked; the word is 0),
//!   [`EntryState::Live`] (tagged, `refcount ≥ 1`), or
//!   [`EntryState::Busy`] (one thread owns the slot exclusively while it
//!   runs the fallible `irg`/`stg` work outside any lock).
//!
//! The functions here are pure: they pack, inspect, and compute the
//! successor word for each protocol transition. [`AtomicEntryTable`]
//! CASes the successors in, and every successor is computed from the
//! loaded word alone. A word that went `Free` and came back
//! bit-identical between a thread's load and its CAS therefore gets the
//! same successor a retry would compute, so the ABA case is harmless:
//! ABA only hurts a caller that carries state from outside the word
//! into the CAS, and the table's callers carry none — a release is keyed
//! by the object's address alone, as in Algorithm 2.
//!
//! [`AtomicEntryTable`]: crate::AtomicEntryTable

use mte_sim::Tag;

/// Bits holding the reference count (word bits `0..32`).
pub const REFCOUNT_BITS: u32 = 32;
/// Shift of the 4-bit memory tag (word bits `32..36`).
pub const TAG_SHIFT: u32 = 32;
/// Shift of the 2-bit state field (word bits `36..38`).
pub const STATE_SHIFT: u32 = 36;

const REFCOUNT_MASK: u64 = (1 << REFCOUNT_BITS) - 1;
const TAG_MASK: u64 = 0xF;
const STATE_MASK: u64 = 0x3;

/// Lifecycle state of one entry slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EntryState {
    /// No object tracked at this granule; a `Free` word is all zero.
    Free,
    /// An object is tracked: `tag` is applied to its granules and
    /// `refcount` borrowers hold it.
    Live,
    /// One thread holds the slot exclusively while it runs the fallible
    /// tag work (fresh acquire or final teardown). Other threads spin —
    /// through a schedule point, under the deterministic scheduler.
    Busy,
}

impl EntryState {
    fn bits(self) -> u64 {
        match self {
            EntryState::Free => 0,
            EntryState::Live => 1,
            EntryState::Busy => 2,
        }
    }
}

/// Packs the three fields into one entry word.
pub fn pack(refcount: u32, tag: Tag, state: EntryState) -> u64 {
    u64::from(refcount) | (u64::from(tag.value()) << TAG_SHIFT) | (state.bits() << STATE_SHIFT)
}

/// Reference count stored in `word`.
pub fn refcount(word: u64) -> u32 {
    (word & REFCOUNT_MASK) as u32
}

/// Memory tag stored in `word`.
pub fn tag(word: u64) -> Tag {
    Tag::from_low_bits(((word >> TAG_SHIFT) & TAG_MASK) as u8)
}

/// Entry state stored in `word`. The fourth encoding of the 2-bit field
/// is never produced by [`pack`] or any transition; it decodes as
/// [`EntryState::Busy`] so a (hypothetical) torn word is treated as
/// "in transition" and retried rather than misread as free or live.
pub fn state(word: u64) -> EntryState {
    match (word >> STATE_SHIFT) & STATE_MASK {
        0 => EntryState::Free,
        1 => EntryState::Live,
        _ => EntryState::Busy,
    }
}

/// `Free → Busy`: claims the slot for a fresh acquire.
pub fn begin_fresh(word: u64) -> u64 {
    debug_assert_eq!(state(word), EntryState::Free);
    pack(0, Tag::UNTAGGED, EntryState::Busy)
}

/// `Busy → Live`: the fresh acquire's `irg` + tag stores succeeded;
/// publish the tag with a count of one.
pub fn commit_fresh(word: u64, tag: Tag) -> u64 {
    debug_assert_eq!(state(word), EntryState::Busy);
    pack(1, tag, EntryState::Live)
}

/// `Busy → Free`: the fresh acquire's tag work failed (injected fault
/// or tag-pool exhaustion); return the slot untracked.
pub fn abort_fresh(word: u64) -> u64 {
    debug_assert_eq!(state(word), EntryState::Busy);
    pack(0, Tag::UNTAGGED, EntryState::Free)
}

/// `Live → Live`: one more borrower shares the existing tag.
pub fn add_ref(word: u64) -> u64 {
    debug_assert_eq!(state(word), EntryState::Live);
    debug_assert!(refcount(word) < u32::MAX, "refcount saturated");
    word + 1
}

/// `Live → Live`: a borrower other than the last leaves.
pub fn drop_ref(word: u64) -> u64 {
    debug_assert_eq!(state(word), EntryState::Live);
    debug_assert!(refcount(word) > 1, "use begin_teardown for the last borrower");
    word - 1
}

/// `Live → Busy`: the last borrower claims the slot to zero the memory
/// tags. Count and tag are preserved so [`abort_teardown`] can restore
/// the entry if the (fallible, possibly injected) tag store fails.
pub fn begin_teardown(word: u64) -> u64 {
    debug_assert_eq!(state(word), EntryState::Live);
    debug_assert_eq!(refcount(word), 1, "teardown requires the last borrower");
    pack(1, tag(word), EntryState::Busy)
}

/// `Busy → Live`: the teardown's tag store failed; the entry stays live
/// so the caller can retry the release.
pub fn abort_teardown(word: u64) -> u64 {
    debug_assert_eq!(state(word), EntryState::Busy);
    debug_assert_eq!(refcount(word), 1);
    pack(1, tag(word), EntryState::Live)
}

/// `Busy → Free`: teardown succeeded; the lifetime is over.
pub fn complete_teardown(word: u64) -> u64 {
    debug_assert_eq!(state(word), EntryState::Busy);
    pack(0, Tag::UNTAGGED, EntryState::Free)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips_every_field() {
        let t = Tag::from_low_bits(0xB);
        let w = pack(7, t, EntryState::Live);
        assert_eq!(refcount(w), 7);
        assert_eq!(tag(w), t);
        assert_eq!(state(w), EntryState::Live);
    }
}
