//! Deliberately broken tag-table variants for the mutation self-check
//! (used only by this crate's tests and `--self-check`).
//!
//! All variants carry the same class of seeded bug: a **lost update** on
//! the reference count. Where the real tables read and mutate the count
//! under one continuous critical section (or one CAS), these read it,
//! cross a schedule point, and write the derived value back blindly.
//! Under the deterministic scheduler every `lock()` / `yield_point` is a
//! schedule point, so some interleaving runs two workers through the
//! read before either writes — both observe `reference_num == 0`, both
//! take the "fresh" path, and the second `irg`/`set_tag_range` retags
//! memory out from under the first borrower. The harness catches this as
//! a probe mismatch, a `NotTracked` release of a live borrow, or a
//! fresh/freed imbalance at quiescence; the self-check requires one of
//! those within a bounded number of schedules.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mte4jni::entry::{self, EntryState};
use mte4jni::{ReleaseOutcome, TagTable};
use mte_sim::sync::{yield_point, Mutex};
use mte_sim::{MteThread, Tag, TaggedMemory, TaggedPtr, GRANULE};

#[derive(Debug)]
struct Entry {
    reference_num: u32,
    tag: Tag,
}

/// Two-tier layout (table locks + per-object entry locks) with the
/// read/rewrite gap on the entry's reference count.
#[derive(Debug)]
pub struct BrokenTwoTier {
    tables: Vec<Mutex<HashMap<u64, Arc<Mutex<Entry>>>>>,
}

impl BrokenTwoTier {
    /// Creates the broken table set with `table_count` hash tables.
    pub fn new(table_count: usize) -> BrokenTwoTier {
        assert!(table_count > 0);
        BrokenTwoTier {
            tables: (0..table_count)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn table(&self, addr: u64) -> &Mutex<HashMap<u64, Arc<Mutex<Entry>>>> {
        &self.tables[((addr / GRANULE as u64) % self.tables.len() as u64) as usize]
    }
}

impl TagTable for BrokenTwoTier {
    fn acquire(
        &self,
        mem: &TaggedMemory,
        thread: &MteThread,
        begin: TaggedPtr,
        end: u64,
    ) -> mte_sim::Result<(Tag, bool)> {
        let addr = begin.addr();
        let entry = {
            let mut t = self.table(addr).lock();
            Arc::clone(t.entry(addr).or_insert_with(|| {
                Arc::new(Mutex::new(Entry {
                    reference_num: 0,
                    tag: Tag::UNTAGGED,
                }))
            }))
        };
        // BUG: the count is read here and written back under a *second*
        // lock below; another thread can interleave between the two.
        let count = entry.lock().reference_num;
        if count == 0 {
            let tag = mem.irg(thread);
            mem.set_tag_range(begin, end, tag)?;
            let mut e = entry.lock();
            e.tag = tag;
            e.reference_num = count + 1;
            Ok((tag, false))
        } else {
            mem.ldg(begin)?;
            let mut e = entry.lock();
            let tag = e.tag;
            e.reference_num = count + 1;
            Ok((tag, true))
        }
    }

    fn release(
        &self,
        mem: &TaggedMemory,
        begin: TaggedPtr,
        end: u64,
    ) -> mte_sim::Result<ReleaseOutcome> {
        let addr = begin.addr();
        let entry = {
            let t = self.table(addr).lock();
            match t.get(&addr) {
                Some(e) => Arc::clone(e),
                None => return Ok(ReleaseOutcome::NotTracked),
            }
        };
        // BUG: same read-then-rewrite gap as acquire.
        let count = entry.lock().reference_num;
        match count {
            0 => Ok(ReleaseOutcome::NotTracked),
            1 => {
                mem.set_tag_range(begin.untagged(), end, Tag::UNTAGGED)?;
                entry.lock().reference_num = 0;
                self.table(addr).lock().remove(&addr);
                Ok(ReleaseOutcome::Freed)
            }
            _ => {
                entry.lock().reference_num = count - 1;
                Ok(ReleaseOutcome::Decremented {
                    remaining: count - 1,
                })
            }
        }
    }

    fn tracked_objects(&self) -> usize {
        self.tables.iter().map(|t| t.lock().len()).sum()
    }
}

/// Global-lock layout with the read/rewrite gap: the map is consulted
/// under one `lock()` and updated under another, so two first-acquirers
/// can both conclude the object is untracked.
#[derive(Debug, Default)]
pub struct BrokenGlobal {
    entries: Mutex<HashMap<u64, Entry>>,
}

impl BrokenGlobal {
    /// Creates the broken global table.
    pub fn new() -> BrokenGlobal {
        BrokenGlobal::default()
    }
}

impl TagTable for BrokenGlobal {
    fn acquire(
        &self,
        mem: &TaggedMemory,
        thread: &MteThread,
        begin: TaggedPtr,
        end: u64,
    ) -> mte_sim::Result<(Tag, bool)> {
        let addr = begin.addr();
        // BUG: lookup and update are separate critical sections.
        let existing = self
            .entries
            .lock()
            .get(&addr)
            .map(|e| (e.reference_num, e.tag));
        match existing {
            Some((count, tag)) => {
                mem.ldg(begin)?;
                if let Some(e) = self.entries.lock().get_mut(&addr) {
                    e.reference_num = count + 1;
                }
                Ok((tag, true))
            }
            None => {
                let tag = mem.irg(thread);
                mem.set_tag_range(begin, end, tag)?;
                self.entries.lock().insert(
                    addr,
                    Entry {
                        reference_num: 1,
                        tag,
                    },
                );
                Ok((tag, false))
            }
        }
    }

    fn release(
        &self,
        mem: &TaggedMemory,
        begin: TaggedPtr,
        end: u64,
    ) -> mte_sim::Result<ReleaseOutcome> {
        let addr = begin.addr();
        let count = match self.entries.lock().get(&addr) {
            Some(e) => e.reference_num,
            None => return Ok(ReleaseOutcome::NotTracked),
        };
        if count > 1 {
            if let Some(e) = self.entries.lock().get_mut(&addr) {
                e.reference_num = count - 1;
            }
            Ok(ReleaseOutcome::Decremented {
                remaining: count - 1,
            })
        } else {
            mem.set_tag_range(begin.untagged(), end, Tag::UNTAGGED)?;
            self.entries.lock().remove(&addr);
            Ok(ReleaseOutcome::Freed)
        }
    }

    fn tracked_objects(&self) -> usize {
        self.entries.lock().len()
    }
}

/// Lock-free layout with the CAS replaced by a load / schedule point /
/// blind store: the packed entry word is read, the derived word is
/// computed, and a plain `store` clobbers whatever raced in between.
/// Two concurrent first-acquirers both observe `Free`, both run
/// `irg`/`set_tag_range`, and the second store erases the first
/// borrower's count — the same lost-update class as the lock-based
/// mutants, expressed in the lock-free table's own vocabulary.
#[derive(Debug, Default)]
pub struct BrokenLockFree {
    words: Mutex<HashMap<u64, Arc<AtomicU64>>>,
}

impl BrokenLockFree {
    /// Creates the broken lock-free table.
    pub fn new() -> BrokenLockFree {
        BrokenLockFree::default()
    }

    fn word(&self, addr: u64) -> Arc<AtomicU64> {
        let mut words = self.words.lock();
        Arc::clone(
            words
                .entry(addr)
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }
}

impl TagTable for BrokenLockFree {
    fn acquire(
        &self,
        mem: &TaggedMemory,
        thread: &MteThread,
        begin: TaggedPtr,
        end: u64,
    ) -> mte_sim::Result<(Tag, bool)> {
        let addr = begin.addr();
        let slot = self.word(addr);
        // BUG: read-compute-store instead of CAS; the yield between the
        // load and the store is exactly where the real table would have
        // detected interference and retried.
        let word = slot.load(Ordering::Acquire);
        if entry::state(word) == EntryState::Live {
            mem.ldg(begin)?;
            yield_point("broken-lockfree-gap");
            slot.store(entry::add_ref(word), Ordering::Release);
            Ok((entry::tag(word), true))
        } else {
            let tag = mem.irg(thread);
            mem.set_tag_range(begin, end, tag)?;
            yield_point("broken-lockfree-gap");
            slot.store(entry::pack(1, tag, EntryState::Live), Ordering::Release);
            Ok((tag, false))
        }
    }

    fn release(
        &self,
        mem: &TaggedMemory,
        begin: TaggedPtr,
        end: u64,
    ) -> mte_sim::Result<ReleaseOutcome> {
        let addr = begin.addr();
        let slot = match self.words.lock().get(&addr) {
            Some(w) => Arc::clone(w),
            None => return Ok(ReleaseOutcome::NotTracked),
        };
        // BUG: same read/yield/store gap on the way down.
        let word = slot.load(Ordering::Acquire);
        if entry::state(word) != EntryState::Live {
            return Ok(ReleaseOutcome::NotTracked);
        }
        let count = entry::refcount(word);
        if count > 1 {
            yield_point("broken-lockfree-gap");
            slot.store(entry::drop_ref(word), Ordering::Release);
            Ok(ReleaseOutcome::Decremented {
                remaining: count - 1,
            })
        } else {
            mem.set_tag_range(begin.untagged(), end, Tag::UNTAGGED)?;
            yield_point("broken-lockfree-gap");
            slot.store(
                entry::pack(0, Tag::UNTAGGED, EntryState::Free),
                Ordering::Release,
            );
            Ok(ReleaseOutcome::Freed)
        }
    }

    fn tracked_objects(&self) -> usize {
        self.words
            .lock()
            .values()
            .filter(|w| entry::state(w.load(Ordering::Relaxed)) == EntryState::Live)
            .count()
    }
}
