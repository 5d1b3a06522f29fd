//! Reference-counted memory tag tables (Algorithms 1 and 2) and the
//! [`TagTable`] interface every backend implements.
//!
//! [`TagTable::acquire`] returns the tag for the outgoing pointer;
//! [`TagTable::release`] is keyed by the object's start address, as in
//! Algorithm 2, and reports what it did as a [`ReleaseOutcome`]. A
//! release of an address no entry tracks is
//! [`ReleaseOutcome::NotTracked`], never an underflow. Backends are
//! selected by [`TableConfig`]:
//! the lock-free [`AtomicEntryTable`](crate::AtomicEntryTable) default,
//! the paper's [`TwoTierTable`] reference implementation, and the
//! [`GlobalLockTable`] ablation baseline.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use jni_rt::Tally;
// Every lock operation on the `sync` facade is a schedule point for the
// deterministic scheduler in `crates/stress` (DESIGN.md §9); threads
// without a scheduler take the plain `parking_lot` path.
use mte_sim::sync::Mutex;
use mte_sim::{MemError, MteThread, Tag, TaggedMemory, TaggedPtr, GRANULE};

use crate::atomic_table::AtomicEntryTable;

/// Multiply-shift hasher for object start addresses — the keys are
/// already well distributed, so SipHash would be pure overhead on the
/// acquire/release fast path.
#[derive(Default)]
pub(crate) struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// Which tag-table implementation backs the scheme.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TableBackend {
    /// The lock-free [`AtomicEntryTable`](crate::AtomicEntryTable):
    /// refcount + tag + state packed into one CAS-able word per
    /// object. The production default.
    #[default]
    LockFree,
    /// The paper's two-tier scheme: `k` table locks plus one dedicated
    /// lock per live object (§3.1.2). Kept as the paper-faithful
    /// reference implementation and differential oracle.
    TwoTier,
    /// The naive baseline: one global lock serializes all tag work
    /// (Figure 6's `global_lock` variant).
    Global,
}

/// The one configuration struct for every tag-table backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableConfig {
    /// Backend implementation (default: [`TableBackend::LockFree`]).
    pub backend: TableBackend,
    /// Hash tables (`k`) for the two-tier backend; the paper uses 16.
    /// Ignored by the slab-indexed lock-free backend and the global
    /// lock.
    pub table_count: usize,
    /// Zero the memory tags on final release (default). `false` models
    /// the ablation where stale tags linger after the last release
    /// (§3's motivation for timely release).
    pub release_tags: bool,
}

impl Default for TableConfig {
    fn default() -> TableConfig {
        TableConfig {
            backend: TableBackend::LockFree,
            table_count: 16,
            release_tags: true,
        }
    }
}

impl TableConfig {
    /// The paper-faithful two-tier configuration (16 hash tables).
    pub fn two_tier() -> TableConfig {
        TableConfig { backend: TableBackend::TwoTier, ..TableConfig::default() }
    }

    /// The global-lock ablation configuration.
    pub fn global_lock() -> TableConfig {
        TableConfig { backend: TableBackend::Global, ..TableConfig::default() }
    }

    /// Builds the configured backend.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is [`TableBackend::TwoTier`] and
    /// `table_count` is zero.
    pub fn build(&self) -> Box<dyn TagTable> {
        match self.backend {
            TableBackend::LockFree => Box::new(AtomicEntryTable::from_config(self)),
            TableBackend::TwoTier => Box::new(TwoTierTable::from_config(self)),
            TableBackend::Global => Box::new(GlobalLockTable::from_config(self)),
        }
    }
}

/// What a [`TagTable::release`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReleaseOutcome {
    /// The reference count dropped but other borrowers remain.
    Decremented {
        /// Remaining reference count.
        remaining: u32,
    },
    /// The count reached zero; the memory tags were re-zeroed (unless
    /// tag release is disabled for the ablation).
    Freed,
    /// No entry existed for this object — Algorithm 2's "nothing needs
    /// to be done" path.
    NotTracked,
}

/// A reference-counted tag table: the shared-tag bookkeeping every
/// backend implements.
pub trait TagTable: Send + Sync + fmt::Debug {
    /// Algorithm 1: retrieves or creates the memory tag for
    /// `[begin, end)` and increments the reference count. Returns the
    /// tag the caller applies to the outgoing pointer and whether an
    /// existing live tag was shared (reference count > 1 afterwards).
    fn acquire(
        &self,
        mem: &TaggedMemory,
        thread: &MteThread,
        begin: TaggedPtr,
        end: u64,
    ) -> mte_sim::Result<(Tag, bool)>;

    /// Algorithm 2: looks up the entry keyed by `begin`'s address,
    /// decrements the reference count, and at zero releases the memory
    /// tags. An absent entry — Algorithm 2's "nothing needs to be done"
    /// path — is reported as [`ReleaseOutcome::NotTracked`]. On a
    /// tag-store error the entry is unchanged, so the release can be
    /// retried.
    fn release(
        &self,
        mem: &TaggedMemory,
        begin: TaggedPtr,
        end: u64,
    ) -> mte_sim::Result<ReleaseOutcome>;

    /// Force-frees the entry tracking `[begin, end)` regardless of its
    /// reference count, returning 1 if an entry was physically freed.
    ///
    /// The GC safepoint backstop: when the collector has decided an
    /// unpinned object may be reclaimed or moved, a surviving table entry
    /// for it is one no live borrower will ever release — typically a
    /// borrow whose release failed persistently under injected tag-store
    /// faults and was abandoned. Purging tears the entry down in place so
    /// it is never keyed to a recycled address.
    ///
    /// The default implementation calls [`TagTable::release`] in a loop,
    /// draining the entry one reference at a time. Transient memory
    /// faults are retried a bounded number of times.
    fn purge(&self, mem: &TaggedMemory, begin: u64, end: u64) -> u64 {
        let ptr = TaggedPtr::from_addr(begin);
        let mut retries = 0u32;
        loop {
            match self.release(mem, ptr, end) {
                Ok(ReleaseOutcome::Decremented { .. }) => {}
                Ok(ReleaseOutcome::Freed) => return 1,
                Ok(ReleaseOutcome::NotTracked) => return 0,
                Err(e) if e.is_transient() && retries < 8 => retries += 1,
                Err(_) => return 0,
            }
        }
    }

    /// Number of objects currently tracked (for tests and reports).
    fn tracked_objects(&self) -> usize;

    /// Table-internal counters for the telemetry registry (e.g. lock
    /// acquisitions, CAS retries), as `(name, value)` pairs.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

#[derive(Debug)]
struct ObjEntry {
    /// The object this entry currently describes. Entries are pooled and
    /// recycled, so a racing acquirer that fetched an `Arc` just before
    /// the entry was freed must re-validate the address under the object
    /// lock.
    addr: u64,
    reference_num: u32,
    tag: Tag,
    /// Set when a release dropped the count to zero; a racing acquirer
    /// that still holds the stale `Arc` must discard it and retry.
    dead: bool,
}

/// One hash table of the two-tier scheme plus its entry pool, both
/// guarded by the single table lock.
#[derive(Debug, Default)]
struct Table {
    map: AddrMap<Arc<Mutex<ObjEntry>>>,
    /// Recycled entries: avoids an allocation on every first acquire of
    /// an object (the dominant pattern in get/release-heavy code).
    pool: Vec<Arc<Mutex<ObjEntry>>>,
}

const POOL_CAP: usize = 64;

/// The two-tier locking tag table (§3.1.2, Algorithms 1 and 2).
///
/// Objects are distributed over `k` hash tables by the low bits of their
/// granule index; each table has a dedicated **table lock**, held only
/// long enough to look up (or insert) the object's entry, and each entry
/// has a dedicated **object lock** guarding its reference count and tag
/// work. Threads acquiring *different* objects therefore contend only
/// when their addresses collide on the same table (paper §5.3.2).
///
/// This is the paper-faithful reference implementation; the production
/// default is the lock-free
/// [`AtomicEntryTable`](crate::AtomicEntryTable), differentially tested
/// against this one.
pub struct TwoTierTable {
    tables: Vec<Mutex<Table>>,
    release_tags: bool,
    /// Indexed by `LOCK_ACQUISITIONS` — table-lock acquisitions on the
    /// acquire/release paths, the §5.3.2 contention metric the two-tier
    /// design minimizes the hold time of — and `POOL_HITS` —
    /// first-acquires served from the recycled entry pool instead of a
    /// fresh allocation.
    counts: Tally<2>,
}

const LOCK_ACQUISITIONS: usize = 0;
const POOL_HITS: usize = 1;

impl TwoTierTable {
    /// Creates a table set with `table_count` hash tables (the paper uses
    /// 16) and the default policy (tags zeroed on final release).
    ///
    /// # Panics
    ///
    /// Panics if `table_count` is zero.
    pub fn new(table_count: usize) -> TwoTierTable {
        TwoTierTable::from_config(&TableConfig {
            backend: TableBackend::TwoTier,
            table_count,
            ..TableConfig::default()
        })
    }

    /// Creates a table set honouring `config`'s `table_count` and
    /// `release_tags`.
    ///
    /// # Panics
    ///
    /// Panics if `config.table_count` is zero.
    pub fn from_config(config: &TableConfig) -> TwoTierTable {
        assert!(config.table_count > 0, "at least one hash table is required");
        TwoTierTable {
            tables: (0..config.table_count).map(|_| Mutex::new(Table::default())).collect(),
            release_tags: config.release_tags,
            counts: Tally::new(),
        }
    }

    /// Number of hash tables (`k`).
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Step 1 of both algorithms: `hashTableIndex ← (begin / 16) mod k`.
    fn table_index(&self, begin: u64) -> usize {
        ((begin / GRANULE as u64) % self.tables.len() as u64) as usize
    }
}

impl fmt::Debug for TwoTierTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TwoTierTable")
            .field("table_count", &self.tables.len())
            .field("tracked", &self.tracked_objects())
            .finish()
    }
}

impl TagTable for TwoTierTable {
    fn acquire(
        &self,
        mem: &TaggedMemory,
        thread: &MteThread,
        begin: TaggedPtr,
        end: u64,
    ) -> mte_sim::Result<(Tag, bool)> {
        let addr = begin.addr();
        let table = &self.tables[self.table_index(addr)];
        loop {
            // 2. Retrieve or create the reference count under the table
            //    lock, released as soon as the entry address is known.
            let entry = {
                self.counts.bump(LOCK_ACQUISITIONS);
                let mut t = table.lock();
                match t.map.get(&addr) {
                    Some(e) => Arc::clone(e),
                    None => {
                        let recycled = t.pool.pop();
                        if recycled.is_some() {
                            self.counts.bump(POOL_HITS);
                        }
                        let e = recycled.unwrap_or_else(|| {
                            Arc::new(Mutex::new(ObjEntry {
                                addr: 0,
                                reference_num: 0,
                                tag: Tag::UNTAGGED,
                                dead: true,
                            }))
                        });
                        {
                            // Reinitialize under the object lock: stale
                            // holders of a recycled Arc re-validate `addr`.
                            let mut g = e.lock();
                            g.addr = addr;
                            g.reference_num = 0;
                            g.tag = Tag::UNTAGGED;
                            g.dead = false;
                        }
                        t.map.insert(addr, Arc::clone(&e));
                        e
                    }
                }
            };
            // 3. Retrieve or create the memory tag under the object lock.
            let mut obj = entry.lock();
            if obj.dead || obj.addr != addr {
                // A racing release freed (and possibly recycled) this
                // entry between our lookup and lock; help remove the dead
                // mapping and retry with a fresh entry.
                drop(obj);
                self.counts.bump(LOCK_ACQUISITIONS);
                let mut t = table.lock();
                if t.map.get(&addr).is_some_and(|e| Arc::ptr_eq(e, &entry))
                    && entry.lock().dead
                {
                    // Re-check `dead` under both locks: between observing
                    // the dead flag and getting here, the entry may have
                    // been removed, pooled, and recycled *for this same
                    // address* — `ptr_eq` alone would then remove a live
                    // entry out from under its borrowers (ABA).
                    t.map.remove(&addr);
                }
                continue;
            }
            // The fallible tag work runs *before* the count increment, so
            // a failure (including an injected one) leaves the count — and
            // therefore the table — unchanged.
            let shared = obj.reference_num > 0;
            let tag = if shared {
                // Load the existing memory tag (ldg) — concurrent threads
                // share the same tag (§3.1.1).
                let loaded = mem.ldg(begin)?;
                debug_assert!(
                    end == addr || loaded == obj.tag,
                    "shared tag must match the stored one"
                );
                obj.tag
            } else {
                // Generate a new tag (irg) and apply it (st2g/stg).
                let tag = mem.irg(thread);
                // `irg` falls back to the zero tag when the pool is
                // exhausted (injected, or everything excluded). An
                // untagged "protected" object would silently behave like
                // unprotected memory, so surface the exhaustion — before
                // any tag store, keeping the rollback below infallible —
                // and let the JNI layer degrade the acquire.
                let applied = if tag.is_untagged() {
                    Err(MemError::TagExhausted { addr })
                } else {
                    mem.set_tag_range(begin, end, tag)
                };
                if let Err(e) = applied {
                    // Withdraw the entry inserted above so a failed first
                    // acquire leaves no tracked object behind.
                    obj.dead = true;
                    drop(obj);
                    self.counts.bump(LOCK_ACQUISITIONS);
                    let mut t = table.lock();
                    // Same ABA re-check as the retry path: only withdraw
                    // the mapping if the entry is still the dead one we
                    // marked, not a recycled live reincarnation.
                    if t.map.get(&addr).is_some_and(|e| Arc::ptr_eq(e, &entry))
                        && entry.lock().dead
                    {
                        t.map.remove(&addr);
                        if t.pool.len() < POOL_CAP {
                            t.pool.push(Arc::clone(&entry));
                        }
                    }
                    return Err(e);
                }
                obj.tag = tag;
                tag
            };
            obj.reference_num += 1;
            // 4. The caller applies the tag to the returned pointer.
            return Ok((tag, shared));
        }
    }

    fn release(
        &self,
        mem: &TaggedMemory,
        begin: TaggedPtr,
        end: u64,
    ) -> mte_sim::Result<ReleaseOutcome> {
        let addr = begin.addr();
        let table = &self.tables[self.table_index(addr)];
        // 2. Retrieve the reference count; absent entry → nothing to do.
        let entry = {
            self.counts.bump(LOCK_ACQUISITIONS);
            let t = table.lock();
            match t.map.get(&addr) {
                Some(e) => Arc::clone(e),
                None => return Ok(ReleaseOutcome::NotTracked),
            }
        };
        // 3. Optionally release the memory tag under the object lock.
        let mut obj = entry.lock();
        if obj.dead || obj.addr != addr || obj.reference_num == 0 {
            return Ok(ReleaseOutcome::NotTracked);
        }
        if obj.reference_num > 1 {
            obj.reference_num -= 1;
            return Ok(ReleaseOutcome::Decremented {
                remaining: obj.reference_num,
            });
        }
        // Last borrower: zero the tags *before* dropping the count, so a
        // failed (or injected) tag store leaves the entry live and the
        // caller can retry the release.
        if self.release_tags {
            mem.set_tag_range(begin, end, Tag::UNTAGGED)?;
        }
        obj.reference_num = 0;
        obj.dead = true;
        drop(obj);
        // Remove the dead entry so the table does not grow without bound,
        // recycling it into the pool for the next first-acquire.
        self.counts.bump(LOCK_ACQUISITIONS);
        let mut t = table.lock();
        // ABA re-check (see the acquire retry path): the entry may already
        // have been helper-removed, pooled, and recycled for this same
        // address, in which case `ptr_eq` matches a *live* entry that must
        // stay mapped.
        if t.map.get(&addr).is_some_and(|e| Arc::ptr_eq(e, &entry)) && entry.lock().dead {
            t.map.remove(&addr);
            if t.pool.len() < POOL_CAP {
                t.pool.push(entry);
            }
        }
        Ok(ReleaseOutcome::Freed)
    }

    fn tracked_objects(&self) -> usize {
        self.tables.iter().map(|t| t.lock().map.len()).sum()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("table_lock_acquisitions", self.counts.get(LOCK_ACQUISITIONS)),
            ("entry_pool_hits", self.counts.get(POOL_HITS)),
        ]
    }
}

#[derive(Debug)]
struct GlobalEntry {
    reference_num: u32,
    tag: Tag,
}

/// The naive global-lock tag table: one mutex serializes every acquire
/// and release, including the tag memory work (§3.1's "naive solution",
/// Figure 6's ablation baseline).
pub struct GlobalLockTable {
    entries: Mutex<AddrMap<GlobalEntry>>,
    release_tags: bool,
}

impl GlobalLockTable {
    /// Creates the table with the default policy.
    pub fn new() -> GlobalLockTable {
        GlobalLockTable::from_config(&TableConfig::global_lock())
    }

    /// Creates the table honouring `config.release_tags`.
    pub fn from_config(config: &TableConfig) -> GlobalLockTable {
        GlobalLockTable {
            entries: Mutex::new(AddrMap::default()),
            release_tags: config.release_tags,
        }
    }
}

impl Default for GlobalLockTable {
    fn default() -> Self {
        GlobalLockTable::new()
    }
}

impl fmt::Debug for GlobalLockTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlobalLockTable")
            .field("tracked", &self.tracked_objects())
            .finish()
    }
}

impl TagTable for GlobalLockTable {
    fn acquire(
        &self,
        mem: &TaggedMemory,
        thread: &MteThread,
        begin: TaggedPtr,
        end: u64,
    ) -> mte_sim::Result<(Tag, bool)> {
        // The whole algorithm runs under the single lock — every thread of
        // every JNI interface competes here. The entry is only inserted
        // (or its count bumped) after the fallible tag work succeeds, so
        // errors leave the table unchanged.
        let mut entries = self.entries.lock();
        if let Some(entry) = entries.get_mut(&begin.addr()) {
            mem.ldg(begin)?;
            entry.reference_num += 1;
            Ok((entry.tag, true))
        } else {
            let tag = mem.irg(thread);
            if tag.is_untagged() {
                // Tag-pool exhaustion; nothing inserted yet, so the
                // table is untouched (see the two-tier path).
                return Err(MemError::TagExhausted { addr: begin.addr() });
            }
            mem.set_tag_range(begin, end, tag)?;
            entries.insert(begin.addr(), GlobalEntry { reference_num: 1, tag });
            Ok((tag, false))
        }
    }

    fn release(
        &self,
        mem: &TaggedMemory,
        begin: TaggedPtr,
        end: u64,
    ) -> mte_sim::Result<ReleaseOutcome> {
        let mut entries = self.entries.lock();
        let Some(entry) = entries.get_mut(&begin.addr()) else {
            return Ok(ReleaseOutcome::NotTracked);
        };
        if entry.reference_num > 1 {
            entry.reference_num -= 1;
            return Ok(ReleaseOutcome::Decremented {
                remaining: entry.reference_num,
            });
        }
        // Zero the tags before dropping the last reference so a failed
        // tag store leaves the entry intact for a retry.
        if self.release_tags {
            mem.set_tag_range(begin, end, Tag::UNTAGGED)?;
        }
        entries.remove(&begin.addr());
        Ok(ReleaseOutcome::Freed)
    }

    fn tracked_objects(&self) -> usize {
        self.entries.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mte_sim::MemoryConfig;
    use std::sync::Arc as StdArc;

    const BASE: u64 = 0x7a00_0000_0000;

    fn mem() -> StdArc<TaggedMemory> {
        let m = TaggedMemory::new(MemoryConfig {
            base: BASE,
            size: 1 << 20,
        });
        m.mprotect_mte(BASE, 1 << 20, true).unwrap();
        m
    }

    const BACKENDS: [TableBackend; 3] =
        [TableBackend::LockFree, TableBackend::TwoTier, TableBackend::Global];

    fn tables() -> Vec<Box<dyn TagTable>> {
        BACKENDS
            .iter()
            .map(|&backend| {
                TableConfig {
                    backend,
                    ..TableConfig::default()
                }
                .build()
            })
            .collect()
    }

    #[test]
    fn first_acquire_tags_memory_and_pointer_consistently() {
        for table in tables() {
            let m = mem();
            let t = MteThread::with_seed("t", 11);
            let begin = TaggedPtr::from_addr(BASE + 0x100);
            let end = begin.addr() + 64;
            let (tag, shared) = table.acquire(&m, &t, begin, end).unwrap();
            assert!(!tag.is_untagged(), "tag 0 is excluded");
            assert!(!shared);
            for g in 0..4 {
                assert_eq!(m.ldg(begin.wrapping_add(g * 16)).unwrap(), tag, "{table:?}");
            }
            assert_eq!(m.ldg(begin.wrapping_add(64)).unwrap(), Tag::UNTAGGED);
        }
    }

    #[test]
    fn concurrent_acquires_share_the_tag() {
        for table in tables() {
            let m = mem();
            let t = MteThread::with_seed("t", 12);
            let begin = TaggedPtr::from_addr(BASE + 0x200);
            let end = begin.addr() + 32;
            let first = table.acquire(&m, &t, begin, end).unwrap();
            let second = table.acquire(&m, &t, begin, end).unwrap();
            assert!(!first.1);
            assert!(second.1);
            assert_eq!(first.0, second.0, "{table:?}");
            assert_eq!(table.tracked_objects(), 1);
        }
    }

    #[test]
    fn release_on_another_thread_untracks() {
        // `tracked_objects` is read off the entries themselves, so an
        // acquire on one thread and a release on another balance it.
        for table in tables() {
            let m = mem();
            let begin = TaggedPtr::from_addr(BASE + 0x280);
            let end = begin.addr() + 32;
            std::thread::scope(|s| {
                s.spawn(|| {
                    let t = MteThread::with_seed("a", 15);
                    table.acquire(&m, &t, begin, end).unwrap();
                });
            });
            assert_eq!(table.tracked_objects(), 1, "{table:?}");
            std::thread::scope(|s| {
                s.spawn(|| table.release(&m, begin, end).unwrap());
            });
            assert_eq!(table.tracked_objects(), 0, "{table:?}");
            assert_eq!(m.ldg(begin).unwrap(), Tag::UNTAGGED);
        }
    }

    #[test]
    fn release_zeroes_tags_only_at_refcount_zero() {
        for table in tables() {
            let m = mem();
            let t = MteThread::with_seed("t", 13);
            let begin = TaggedPtr::from_addr(BASE + 0x300);
            let end = begin.addr() + 32;
            let (tag, _) = table.acquire(&m, &t, begin, end).unwrap();
            table.acquire(&m, &t, begin, end).unwrap();

            let out = table.release(&m, begin, end).unwrap();
            assert_eq!(out, ReleaseOutcome::Decremented { remaining: 1 });
            assert_eq!(m.ldg(begin).unwrap(), tag, "tags stay while borrowed");

            let out = table.release(&m, begin, end).unwrap();
            assert_eq!(out, ReleaseOutcome::Freed);
            assert_eq!(m.ldg(begin).unwrap(), Tag::UNTAGGED, "{table:?}");
            assert_eq!(table.tracked_objects(), 0);
        }
    }

    #[test]
    fn release_of_untracked_object_reports_not_tracked() {
        for table in tables() {
            let m = mem();
            let begin = TaggedPtr::from_addr(BASE + 0x400);
            // Algorithm 2's "nothing to do".
            assert_eq!(
                table.release(&m, begin, begin.addr() + 16).unwrap(),
                ReleaseOutcome::NotTracked,
                "{table:?}"
            );
        }
    }

    #[test]
    fn reacquire_after_free_generates_fresh_entry() {
        for table in tables() {
            let m = mem();
            let t = MteThread::with_seed("t", 14);
            let begin = TaggedPtr::from_addr(BASE + 0x500);
            let end = begin.addr() + 16;
            table.acquire(&m, &t, begin, end).unwrap();
            table.release(&m, begin, end).unwrap();
            let (tag, shared) = table.acquire(&m, &t, begin, end).unwrap();
            assert!(!shared, "fresh entry after a full release");
            assert_eq!(m.ldg(begin).unwrap(), tag);
            assert_eq!(table.tracked_objects(), 1);
        }
    }

    #[test]
    fn distinct_objects_get_independent_entries() {
        for table in tables() {
            let m = mem();
            let t = MteThread::with_seed("t", 15);
            let a = TaggedPtr::from_addr(BASE);
            let b = TaggedPtr::from_addr(BASE + 0x1000);
            table.acquire(&m, &t, a, a.addr() + 16).unwrap();
            table.acquire(&m, &t, b, b.addr() + 16).unwrap();
            assert_eq!(table.tracked_objects(), 2);
            table.release(&m, a, a.addr() + 16).unwrap();
            assert_eq!(table.tracked_objects(), 1);
            assert_ne!(m.ldg(b).unwrap(), Tag::UNTAGGED);
        }
    }

    #[test]
    fn table_index_uses_granule_low_bits() {
        let table = TwoTierTable::new(16);
        assert_eq!(table.table_index(BASE), table.table_index(BASE + 15));
        assert_ne!(table.table_index(BASE), table.table_index(BASE + 16));
        // 16 granules later wraps back to the same table.
        assert_eq!(table.table_index(BASE), table.table_index(BASE + 256));
    }

    #[test]
    fn disabled_tag_release_leaves_stale_tags() {
        for backend in BACKENDS {
            let table = TableConfig {
                backend,
                release_tags: false,
                ..TableConfig::default()
            }
            .build();
            let m = mem();
            let t = MteThread::with_seed("t", 16);
            let begin = TaggedPtr::from_addr(BASE + 0x600);
            let end = begin.addr() + 16;
            let (tag, _) = table.acquire(&m, &t, begin, end).unwrap();
            table.release(&m, begin, end).unwrap();
            assert_eq!(m.ldg(begin).unwrap(), tag, "{backend:?}: stale tag lingers");
        }
    }

    #[test]
    #[should_panic(expected = "at least one hash table")]
    fn zero_tables_rejected() {
        let _ = TwoTierTable::new(0);
    }

    #[test]
    fn concurrent_stress_preserves_refcount_invariants() {
        for backend in BACKENDS {
            let table: StdArc<dyn TagTable> =
                StdArc::from(TableConfig { backend, ..TableConfig::default() }.build());
            let m = mem();
            let objects: Vec<u64> = (0..8).map(|i| BASE + 0x100 * i).collect();
            std::thread::scope(|s| {
                for worker in 0..8 {
                    let table = StdArc::clone(&table);
                    let m = StdArc::clone(&m);
                    let objects = objects.clone();
                    s.spawn(move || {
                        let t = MteThread::with_seed("w", 100 + worker);
                        for round in 0..500usize {
                            let addr = objects[(worker as usize + round) % objects.len()];
                            let begin = TaggedPtr::from_addr(addr);
                            let end = addr + 64;
                            let (tag, _) = table.acquire(&m, &t, begin, end).unwrap();
                            // While held, the memory tag must match ours.
                            assert_eq!(m.ldg(begin).unwrap(), tag);
                            table.release(&m, begin, end).unwrap();
                        }
                    });
                }
            });
            assert_eq!(table.tracked_objects(), 0, "{backend:?}: all entries freed");
            for &addr in &objects {
                assert_eq!(
                    m.ldg(TaggedPtr::from_addr(addr)).unwrap(),
                    Tag::UNTAGGED,
                    "{backend:?}: all tags released"
                );
            }
        }
    }
}
