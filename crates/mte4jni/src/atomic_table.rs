//! The lock-free tag table: one CAS-able packed word per object.
//!
//! [`AtomicEntryTable`] keeps the reference-counted tag bookkeeping of
//! Algorithms 1 and 2 but replaces the two-tier mutexes with a single
//! [`AtomicU64`] per object entry (layout in [`entry`](crate::entry)).
//! A shared acquire — the hot path once any thread holds the object —
//! is one `ldg` plus one CAS, touching no lock; a release of a still-
//! shared object is one CAS. Only the *first* acquire and the *last*
//! release take the slot `Busy` while they run the fallible `irg`/tag-
//! store work, and even that exclusivity is a CAS-claimed state bit,
//! not a mutex: contending threads spin through a schedule point
//! instead of blocking in the kernel.
//!
//! Entries live in a lazily materialized slab indexed by granule —
//! `slot = (addr − base) / 16` — so lookup is pure arithmetic with no
//! hash table, no probing, and no shared-structure mutation. The slab
//! is a directory of fixed-size chunks, each allocated on first touch,
//! keeping an idle table at a few hundred bytes instead of eagerly
//! committing 8 bytes per heap granule.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use mte_sim::sync::yield_point;
use mte_sim::{MemError, MteThread, Tag, TagExclusion, TaggedMemory, TaggedPtr, GRANULE};

use crate::entry::{self, EntryState};
use crate::table::{
    Borrow, Release, ReleaseError, ReleaseFailure, ReleaseOutcome, TableConfig, TagTable,
};

/// Granules covered by one lazily allocated slab chunk (64 KiB of heap,
/// 32 KiB of entry words).
const CHUNK_GRANULES: usize = 1 << 12;

/// Entry-word slab for one simulated memory region: a directory of
/// on-demand chunks of `AtomicU64` entry words, one per granule.
struct Slab {
    base: u64,
    granules: u64,
    chunks: Box<[OnceLock<Box<[AtomicU64]>>]>,
}

impl Slab {
    fn new(mem: &TaggedMemory) -> Slab {
        let granules = (mem.size() / GRANULE) as u64;
        let chunk_count = usize::try_from(granules.div_ceil(CHUNK_GRANULES as u64))
            .expect("chunk directory fits in usize");
        Slab {
            base: mem.base(),
            granules,
            chunks: (0..chunk_count).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The entry word for `addr`, materializing its chunk on first
    /// touch. `None` when `addr` lies outside the bound region.
    fn slot(&self, addr: u64) -> Option<&AtomicU64> {
        if addr < self.base {
            return None;
        }
        let granule = (addr - self.base) / GRANULE as u64;
        if granule >= self.granules {
            return None;
        }
        let granule = granule as usize;
        let chunk = self.chunks[granule / CHUNK_GRANULES]
            .get_or_init(|| (0..CHUNK_GRANULES).map(|_| AtomicU64::new(0)).collect());
        Some(&chunk[granule % CHUNK_GRANULES])
    }

    fn allocated_chunks(&self) -> u64 {
        self.chunks.iter().filter(|c| c.get().is_some()).count() as u64
    }
}

/// The table's state once bound to a region: the slab plus counters.
struct Core {
    slab: Slab,
    /// Live entries (maintained incrementally; the slab is never
    /// scanned on the fast path).
    tracked: AtomicU64,
    /// CAS attempts that lost a race (or met a `Busy` slot) and
    /// retried — the lock-free analogue of the two-tier scheme's
    /// `table_lock_acquisitions` contention metric.
    cas_retries: AtomicU64,
    /// Shared acquires completed on the no-lock CAS path.
    shared_fast_acquires: AtomicU64,
    /// Entries force-freed by [`TagTable::purge`] at a GC safepoint.
    /// The funnel accumulates purge returns itself
    /// (`safepoint_purge_frees`), the second term of its conservation
    /// law `acquires - shared == tag_frees + purge_frees`.
    purge_frees: AtomicU64,
    /// Purges whose tag-store zeroing failed persistently: the entry was
    /// torn down regardless (a Live entry keyed to a reclaimed address
    /// is the worse evil), leaving the range tagged until the heap's own
    /// reclaim/vacate zeroing covers it. Lets the conservation oracle
    /// attribute any tag-state imbalance under injected faults.
    purge_tag_leaks: AtomicU64,
}

impl Core {
    fn contended(&self, label: &'static str) {
        self.cas_retries.fetch_add(1, Ordering::Relaxed);
        yield_point(label);
        std::hint::spin_loop();
        // On an oversubscribed host a `Busy` holder may be descheduled;
        // spinning out the quantum would stall every waiter, so hand the
        // core back. Under the deterministic scheduler threads are
        // already serialized and this is a no-op for the interleaving.
        std::thread::yield_now();
    }
}

/// Lock-free reference-counted tag table (the default
/// [`TableBackend`](crate::TableBackend)).
///
/// The table binds to the first [`TaggedMemory`] it sees an acquire
/// for; like the heap itself, one table serves one region. The paper's
/// [`TwoTierTable`](crate::TwoTierTable) is kept as the reference
/// implementation and differential oracle for this one.
pub struct AtomicEntryTable {
    core: OnceLock<Core>,
    release_tags: bool,
}

impl AtomicEntryTable {
    /// Creates a table with the default policy (tags zeroed on final
    /// release).
    pub fn new() -> AtomicEntryTable {
        AtomicEntryTable::from_config(&TableConfig::default())
    }

    /// Creates a table honouring `config`'s `release_tags`
    /// (`table_count` does not apply — there is no hash table to shard).
    pub fn from_config(config: &TableConfig) -> AtomicEntryTable {
        AtomicEntryTable {
            core: OnceLock::new(),
            release_tags: config.release_tags,
        }
    }

    fn core_for(&self, mem: &TaggedMemory) -> &Core {
        self.core.get_or_init(|| Core {
            slab: Slab::new(mem),
            tracked: AtomicU64::new(0),
            cas_retries: AtomicU64::new(0),
            shared_fast_acquires: AtomicU64::new(0),
            purge_frees: AtomicU64::new(0),
            purge_tag_leaks: AtomicU64::new(0),
        })
    }
}

impl Default for AtomicEntryTable {
    fn default() -> Self {
        AtomicEntryTable::new()
    }
}

impl fmt::Debug for AtomicEntryTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AtomicEntryTable")
            .field("tracked", &self.tracked_objects())
            .finish()
    }
}

impl TagTable for AtomicEntryTable {
    fn acquire(
        &self,
        mem: &TaggedMemory,
        thread: &MteThread,
        begin: TaggedPtr,
        end: u64,
    ) -> mte_sim::Result<Borrow> {
        let addr = begin.addr();
        let core = self.core_for(mem);
        let Some(slot) = core.slab.slot(addr) else {
            return Err(MemError::OutOfRange {
                addr,
                len: (end.saturating_sub(addr)) as usize,
            });
        };
        loop {
            let word = slot.load(Ordering::Acquire);
            match entry::state(word) {
                EntryState::Live => {
                    // Shared path: load the existing memory tag (ldg) —
                    // concurrent threads share the same tag (§3.1.1).
                    // The ldg runs before the count CAS so a failure
                    // (including an injected one) leaves the word — and
                    // therefore the table — unchanged.
                    mem.ldg(begin)?;
                    let next = entry::add_ref(word);
                    if slot
                        .compare_exchange(word, next, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        core.shared_fast_acquires.fetch_add(1, Ordering::Relaxed);
                        return Ok(Borrow::new(addr, end, entry::tag(word), entry::generation(word), true));
                    }
                    core.contended("lockfree-acquire-shared-retry");
                }
                EntryState::Free => {
                    // Fresh path: claim the slot Busy (bumping the
                    // generation: a new lifetime opens) and run the
                    // fallible tag work while owning it.
                    let busy = entry::begin_fresh(word);
                    if slot
                        .compare_exchange(word, busy, Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                    {
                        core.contended("lockfree-acquire-fresh-retry");
                        continue;
                    }
                    let tag = mem.irg(thread, TagExclusion::default());
                    // `irg` falls back to the zero tag on pool
                    // exhaustion; surface that before any tag store
                    // (see the two-tier path) so the rollback below
                    // only ever has an untouched range to restore.
                    let applied = if tag.is_untagged() {
                        Err(MemError::TagExhausted { addr })
                    } else {
                        mem.set_tag_range(begin, end, tag)
                    };
                    match applied {
                        Ok(()) => {
                            core.tracked.fetch_add(1, Ordering::Relaxed);
                            slot.store(entry::commit_fresh(busy, tag), Ordering::Release);
                            return Ok(Borrow::new(addr, end, tag, entry::generation(busy), false));
                        }
                        Err(e) => {
                            // Withdraw the claim so a failed first
                            // acquire leaves no tracked object behind
                            // (the bumped generation is deliberately
                            // kept — see `entry::abort_fresh`).
                            slot.store(entry::abort_fresh(busy), Ordering::Release);
                            return Err(e);
                        }
                    }
                }
                EntryState::Busy => {
                    // Another thread owns the slot mid-transition; its
                    // critical section is a handful of tag stores, so
                    // spin through a schedule point.
                    core.contended("lockfree-acquire-busy");
                }
            }
        }
    }

    fn release(&self, mem: &TaggedMemory, borrow: Borrow) -> Result<Release, ReleaseError> {
        let addr = borrow.addr();
        let Some(core) = self.core.get() else {
            return Err(ReleaseError::new(borrow, ReleaseFailure::NotTracked));
        };
        let Some(slot) = core.slab.slot(addr) else {
            return Err(ReleaseError::new(borrow, ReleaseFailure::NotTracked));
        };
        loop {
            let word = slot.load(Ordering::Acquire);
            match entry::state(word) {
                EntryState::Free => {
                    return Err(ReleaseError::new(borrow, ReleaseFailure::NotTracked));
                }
                EntryState::Busy => {
                    core.contended("lockfree-release-busy");
                }
                EntryState::Live => {
                    let current = entry::generation(word);
                    if current != borrow.generation() {
                        // The ABA defense: this borrow outlived its
                        // lifetime (the entry was freed and re-acquired
                        // behind our back). Refusing the decrement
                        // protects the *new* lifetime's count.
                        let held = borrow.generation();
                        return Err(ReleaseError::new(
                            borrow,
                            ReleaseFailure::StaleGeneration { held, current },
                        ));
                    }
                    let remaining = entry::refcount(word);
                    if remaining > 1 {
                        if slot
                            .compare_exchange(
                                word,
                                entry::drop_ref(word),
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok()
                        {
                            return Ok(Release::Shared { remaining: remaining - 1 });
                        }
                        core.contended("lockfree-release-shared-retry");
                        continue;
                    }
                    // Last borrower: claim the slot and zero the tags
                    // *before* freeing the entry, so a failed (or
                    // injected) tag store leaves the entry live and the
                    // caller can retry with the returned borrow.
                    let busy = entry::begin_teardown(word);
                    if slot
                        .compare_exchange(word, busy, Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                    {
                        core.contended("lockfree-release-teardown-retry");
                        continue;
                    }
                    if self.release_tags {
                        if let Err(e) =
                            mem.set_tag_range(TaggedPtr::from_addr(addr), borrow.end(), Tag::UNTAGGED)
                        {
                            slot.store(entry::abort_teardown(busy), Ordering::Release);
                            return Err(ReleaseError::new(borrow, ReleaseFailure::Mem(e)));
                        }
                    }
                    slot.store(entry::complete_teardown(busy), Ordering::Release);
                    core.tracked.fetch_sub(1, Ordering::Relaxed);
                    return Ok(Release::Freed);
                }
            }
        }
    }

    fn release_raw(
        &self,
        mem: &TaggedMemory,
        begin: TaggedPtr,
        end: u64,
    ) -> mte_sim::Result<ReleaseOutcome> {
        // The escape hatch for callers without a Borrow token
        // (containment's force-release funnel, stray-release oracles):
        // same protocol as the typed path minus the generation check.
        let addr = begin.addr();
        let Some(slot) = self.core.get().and_then(|c| c.slab.slot(addr)) else {
            return Ok(ReleaseOutcome::NotTracked);
        };
        let core = self.core.get().expect("slot implies core");
        loop {
            let word = slot.load(Ordering::Acquire);
            match entry::state(word) {
                EntryState::Free => return Ok(ReleaseOutcome::NotTracked),
                EntryState::Busy => core.contended("lockfree-release-raw-busy"),
                EntryState::Live => {
                    let remaining = entry::refcount(word);
                    if remaining > 1 {
                        if slot
                            .compare_exchange(
                                word,
                                entry::drop_ref(word),
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok()
                        {
                            return Ok(ReleaseOutcome::Decremented { remaining: remaining - 1 });
                        }
                        core.contended("lockfree-release-raw-retry");
                        continue;
                    }
                    let busy = entry::begin_teardown(word);
                    if slot
                        .compare_exchange(word, busy, Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                    {
                        core.contended("lockfree-release-raw-teardown-retry");
                        continue;
                    }
                    if self.release_tags {
                        if let Err(e) = mem.set_tag_range(begin.untagged(), end, Tag::UNTAGGED) {
                            slot.store(entry::abort_teardown(busy), Ordering::Release);
                            return Err(e);
                        }
                    }
                    slot.store(entry::complete_teardown(busy), Ordering::Release);
                    core.tracked.fetch_sub(1, Ordering::Relaxed);
                    return Ok(ReleaseOutcome::Freed);
                }
            }
        }
    }

    fn purge(&self, mem: &TaggedMemory, begin: u64, end: u64) -> u64 {
        let Some(core) = self.core.get() else {
            return 0;
        };
        let Some(slot) = core.slab.slot(begin) else {
            return 0;
        };
        loop {
            let word = slot.load(Ordering::Acquire);
            match entry::state(word) {
                EntryState::Free => return 0,
                // Another thread mid-transition on this entry; its
                // critical section is a handful of tag stores.
                EntryState::Busy => core.contended("lockfree-purge-busy"),
                EntryState::Live => {
                    // Claim the whole entry in one step regardless of its
                    // reference count: `begin_teardown` insists on a
                    // single reference, but a purged entry may carry
                    // several abandoned ones.
                    let busy = entry::pack(
                        entry::refcount(word),
                        entry::tag(word),
                        EntryState::Busy,
                        entry::generation(word),
                    );
                    if slot
                        .compare_exchange(word, busy, Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                    {
                        core.contended("lockfree-purge-retry");
                        continue;
                    }
                    if self.release_tags {
                        let mut retries = 0u32;
                        while let Err(e) =
                            mem.set_tag_range(TaggedPtr::from_addr(begin), end, Tag::UNTAGGED)
                        {
                            if !e.is_transient() || retries >= 8 {
                                // Persistent tag-store failure. The
                                // collector reclaims this address no
                                // matter what we do here, so restoring
                                // the Live word would key a dead
                                // lifetime's entry — its tag and
                                // refcount — to a recyclable address.
                                // Tear the entry down anyway and count
                                // the range left tagged; the heap's own
                                // reclaim/vacate zeroing is the cleanup
                                // of last resort.
                                core.purge_tag_leaks.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            retries += 1;
                        }
                    }
                    slot.store(
                        entry::pack(0, Tag::UNTAGGED, EntryState::Free, entry::generation(word)),
                        Ordering::Release,
                    );
                    core.tracked.fetch_sub(1, Ordering::Relaxed);
                    core.purge_frees.fetch_add(1, Ordering::Relaxed);
                    return 1;
                }
            }
        }
    }

    fn tracked_objects(&self) -> usize {
        self.core.get().map_or(0, |c| c.tracked.load(Ordering::Relaxed) as usize)
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let Some(core) = self.core.get() else {
            return vec![
                ("atomic_cas_retries", 0),
                ("atomic_shared_fast_acquires", 0),
                ("atomic_purge_frees", 0),
                ("atomic_purge_tag_leaks", 0),
                ("atomic_slab_chunks", 0),
            ];
        };
        vec![
            ("atomic_cas_retries", core.cas_retries.load(Ordering::Relaxed)),
            (
                "atomic_shared_fast_acquires",
                core.shared_fast_acquires.load(Ordering::Relaxed),
            ),
            ("atomic_purge_frees", core.purge_frees.load(Ordering::Relaxed)),
            (
                "atomic_purge_tag_leaks",
                core.purge_tag_leaks.load(Ordering::Relaxed),
            ),
            ("atomic_slab_chunks", core.slab.allocated_chunks()),
        ]
    }
}
