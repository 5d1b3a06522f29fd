//! Property tests for the packed atomic entry word: the bit layout
//! round-trips every field, and no sequence of protocol transitions can
//! reach a `Live` word without a borrower and the committed tag, or a
//! `Free` word other than 0.

use mte4jni::entry::{self, EntryState};
use mte_sim::Tag;
use proptest::prelude::*;

proptest! {
    #[test]
    fn pack_round_trips_arbitrary_fields(
        rc in any::<u32>(),
        tag in 0u8..16,
        state_ix in 0usize..3,
    ) {
        let state = [EntryState::Free, EntryState::Live, EntryState::Busy][state_ix];
        let word = entry::pack(rc, Tag::from_low_bits(tag), state);
        prop_assert_eq!(entry::refcount(word), rc);
        prop_assert_eq!(entry::tag(word), Tag::from_low_bits(tag));
        prop_assert_eq!(entry::state(word), state);
    }

    /// Model state machine: arbitrary choices drive one entry word
    /// through the transition functions exactly as the table's CAS loop
    /// would. Every reachable `Live` word carries at least one borrower
    /// and the tag its fresh acquire committed; every reachable `Free`
    /// word is 0, so a freed entry keeps nothing of its lifetime.
    #[test]
    fn transitions_keep_live_words_counted_and_free_words_zero(
        choices in prop::collection::vec(any::<u8>(), 1..300),
    ) {
        let mut word = 0u64;
        // Distinguishes a Busy slot opened by begin_fresh from one
        // opened by begin_teardown.
        let mut fresh = false;
        let mut committed = Tag::UNTAGGED;
        for c in choices {
            match entry::state(word) {
                EntryState::Free => {
                    word = entry::begin_fresh(word);
                    fresh = true;
                }
                EntryState::Busy if fresh => {
                    if c % 2 == 0 {
                        committed = Tag::from_low_bits(1 + (c >> 1) % 15);
                        word = entry::commit_fresh(word, committed);
                    } else {
                        word = entry::abort_fresh(word);
                    }
                }
                EntryState::Busy => {
                    if c % 2 == 0 {
                        word = entry::complete_teardown(word);
                    } else {
                        word = entry::abort_teardown(word);
                    }
                }
                EntryState::Live => {
                    let rc = entry::refcount(word);
                    if c % 2 == 0 && rc < 1000 {
                        word = entry::add_ref(word);
                    } else if rc > 1 {
                        word = entry::drop_ref(word);
                    } else {
                        word = entry::begin_teardown(word);
                        fresh = false;
                    }
                }
            }
            match entry::state(word) {
                EntryState::Live => {
                    prop_assert!(entry::refcount(word) >= 1, "live word {word:#x} has no borrower");
                    prop_assert_eq!(entry::tag(word), committed);
                }
                EntryState::Free => prop_assert_eq!(word, 0),
                EntryState::Busy => {}
            }
        }
    }
}
