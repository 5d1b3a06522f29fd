//! The simulated Java heap.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;
use telemetry::{HistKey, HistSlot, HistogramSummary, LatencyOp, SizeClass, Tally};

use mte_sim::{
    BlockAllocator, MemoryConfig, MteThread, NativeAllocator, TagCheckFault, Tag, TaggedMemory,
    TaggedPtr, GRANULE,
};
// The facade mutex participates in the deterministic stress scheduler;
// required for any lock held across a schedule point (the safepoint
// hook yields), or a blocked waiter would stall the whole schedule.
use mte_sim::sync::Mutex as SchedMutex;

use crate::error::HeapError;
use crate::jstring::utf16_units;
use crate::object::{ArrayRef, LiveToken, ObjKind, ObjectRef, StringRef};
use crate::thread::JavaThread;
use crate::world::WorldGate;
use crate::types::PrimitiveType;
use crate::Result;

/// Which GC safepoint a [`SafepointHook`] invocation marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SafepointPhase {
    /// A sweep is about to reclaim its dead, unpinned candidates.
    Sweep,
    /// The compacting collector has just taken its exclusive world
    /// hold and is about to move every unpinned object; a mutator's pin
    /// that races it backs off, so none succeeds until the hold ends.
    CompactBegin,
}

/// One GC safepoint notification, delivered to the [`SafepointHook`]
/// *before* the collector acts on the candidates.
#[derive(Debug)]
pub struct Safepoint<'a> {
    /// Which safepoint this is.
    pub phase: SafepointPhase,
    /// `(begin, end)` payload address ranges of the candidate objects
    /// the collector is about to reclaim (sweep: dead and unpinned) or
    /// may move (compaction begin: every unpinned object).
    pub candidates: &'a [(u64, u64)],
}

/// Callback invoked at every GC safepoint so a protection scheme can
/// retire bookkeeping it still holds for unpinned objects (e.g. a
/// tag-table entry whose release was abandoned) before the collector
/// reclaims or moves them. Runs under the collector's world hold:
/// shared for a sweep, exclusive for a compaction.
pub type SafepointHook = Arc<dyn Fn(&Safepoint<'_>) + Send + Sync>;

/// Size of the simulated object header.
///
/// Real ART uses 8-byte headers for arrays (class pointer + monitor) plus a
/// 4-byte length; we round the whole header to 16 bytes so the payload of a
/// 16-byte aligned object starts on a granule boundary, which keeps header
/// tagging and payload tagging independent.
pub const HEADER_SIZE: usize = 16;

/// Heap construction parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeapConfig {
    /// Backing simulated memory geometry.
    pub memory: MemoryConfig,
    /// Object alignment: 8 (stock ART) or 16 (MTE4JNI, paper §4.1).
    pub alignment: usize,
    /// Whether heap pages are mapped with `PROT_MTE`.
    pub prot_mte: bool,
}

impl HeapConfig {
    /// The paper's configuration: 16-byte alignment, `PROT_MTE` heap,
    /// tags assigned by the JNI interfaces (not at allocation).
    pub fn mte4jni() -> HeapConfig {
        HeapConfig {
            memory: MemoryConfig::default(),
            alignment: 16,
            prot_mte: true,
        }
    }

    /// Stock ART: 8-byte alignment, no `PROT_MTE`.
    pub fn stock_art() -> HeapConfig {
        HeapConfig {
            memory: MemoryConfig::default(),
            alignment: 8,
            prot_mte: false,
        }
    }

    /// Hazard configuration for the §4.1 ablation: `PROT_MTE` heap but
    /// stock 8-byte alignment, so two objects can share a tag granule.
    pub fn misaligned_mte() -> HeapConfig {
        HeapConfig {
            memory: MemoryConfig::default(),
            alignment: 8,
            prot_mte: true,
        }
    }
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig::mte4jni()
    }
}

#[derive(Debug)]
struct ObjectMeta {
    block_len: usize,
    byte_len: usize,
    live: Weak<LiveToken>,
}

struct HeapInner {
    memory: Arc<TaggedMemory>,
    blocks: BlockAllocator,
    native: NativeAllocator,
    config: HeapConfig,
    objects: Mutex<HashMap<u64, ObjectMeta>>,
    /// The stop-the-world gate for the compacting collector: object
    /// relocation holds it exclusively; payload accessors, allocation
    /// and sweeps hold it shared (recursively — an accessor may nest
    /// inside another gated section on the same thread). Pins hold
    /// nothing: they check its `compacting` flag after their increment.
    world: WorldGate,
    /// Notified at GC safepoints (sweep, compaction begin) before the
    /// collector acts, so protection schemes can purge entries for the
    /// collector's candidates.
    safepoint_hook: Mutex<Option<SafepointHook>>,
    /// Serializes sweeps. A sweep snapshots its dead candidates, drops
    /// the objects lock across the safepoint hook, and only then
    /// reclaims — so the snapshot-to-purge window must be atomic with
    /// respect to reclamation. Compaction (the only other reclaimer) is
    /// excluded by the world gate; this lock excludes the only
    /// remaining hazard, a concurrent sweep. A scheduler-visible
    /// facade mutex, because it is held across the safepoint hook's
    /// schedule points.
    sweep_serial: SchedMutex<()>,
    /// The cumulative [`HeapStats`] totals, indexed by the constants
    /// below. Pure statistics: nothing in the heap reads them back.
    totals: Tally<8>,
    /// Compaction pause times while recording is on, one histogram per
    /// size class of the bytes a pass moved.
    compaction_pause: [HistSlot; SizeClass::Large as usize + 1],
}

const PINS: usize = 0;
const UNPINS: usize = 1;
const ALLOCATED: usize = 2;
const SWEPT: usize = 3;
const SWEEPS: usize = 4;
const COMPACTIONS: usize = 5;
const MOVED_OBJECTS: usize = 6;
const MOVED_BYTES: usize = 7;

/// Objects with at least one open [`PinGuard`] among `objects`, read
/// from the pin counts on their tokens. A pinned object is never dead —
/// its guard holds a handle — so the upgrade succeeds for every one.
fn count_pinned(objects: &HashMap<u64, ObjectMeta>) -> usize {
    objects
        .values()
        .filter(|m| m.live.upgrade().is_some_and(|t| t.pin_count() > 0))
        .count()
}

/// A simulated ART-style Java heap.
///
/// Cloning a `Heap` clones a reference to the same heap (it is an
/// `Arc`-backed handle, like `Runtime::Current()->GetHeap()` in ART).
///
/// # Example
///
/// ```
/// use art_heap::{Heap, HeapConfig, JavaThread};
///
/// # fn main() -> art_heap::Result<()> {
/// let heap = Heap::new(HeapConfig::default());
/// let thread = JavaThread::new("main");
/// let array = heap.alloc_int_array_from(&[1, 2, 3])?;
/// assert_eq!(heap.int_at(&thread, &array, 2)?, 3);
/// heap.set_int_at(&thread, &array, 0, 42)?;
/// assert_eq!(heap.int_array_as_vec(&thread, &array)?, vec![42, 2, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Heap {
    inner: Arc<HeapInner>,
}

impl Heap {
    /// Creates a heap. Three quarters of the simulated memory become the
    /// Java heap; the last quarter becomes the (never `PROT_MTE`) native
    /// arena used for guarded-copy shadow buffers.
    ///
    /// # Panics
    ///
    /// Panics if `alignment` is not 8 or 16.
    pub fn new(config: HeapConfig) -> Heap {
        assert!(
            config.alignment == 8 || config.alignment == 16,
            "object alignment must be 8 or 16"
        );
        let memory = TaggedMemory::new(config.memory);
        let heap_len = (memory.size() / 4 * 3) & !(mte_sim::PAGE_SIZE - 1);
        let heap_start = memory.base();
        let native_start = heap_start + heap_len as u64;
        let native_len = memory.size() - heap_len;
        if config.prot_mte {
            memory
                .mprotect_mte(heap_start, heap_len, true)
                .expect("heap range lies inside the memory");
        }
        Heap {
            inner: Arc::new(HeapInner {
                blocks: BlockAllocator::new(heap_start, heap_len, config.alignment),
                native: NativeAllocator::new(&memory, native_start, native_len),
                memory,
                config,
                objects: Mutex::new(HashMap::new()),
                world: WorldGate::default(),
                safepoint_hook: Mutex::new(None),
                sweep_serial: SchedMutex::new(()),
                totals: Tally::new(),
                compaction_pause: Default::default(),
            }),
        }
    }

    /// The backing simulated memory.
    pub fn memory(&self) -> &Arc<TaggedMemory> {
        &self.inner.memory
    }

    /// The simulated native (`malloc`) allocator, used by the guarded-copy
    /// baseline for its shadow buffers.
    pub fn native_alloc(&self) -> &NativeAllocator {
        &self.inner.native
    }

    /// The active configuration.
    pub fn config(&self) -> HeapConfig {
        self.inner.config
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    fn alloc_object(&self, kind: ObjKind, len: usize) -> Result<Arc<LiveToken>> {
        let byte_len = len * kind.element_type().size();
        let total = HEADER_SIZE + byte_len;
        // Block reservation and object registration happen under one
        // objects-lock hold: the compacting collector rebuilds the
        // allocator's free list from the objects map, so a block must
        // never exist in one without the other.
        let _gate = self.inner.world.read_recursive();
        let mut objects = self.inner.objects.lock();
        let (addr, block_len) = self
            .inner
            .blocks
            .alloc(total)
            .ok_or(HeapError::OutOfMemory { requested: total })?;
        let mem = &self.inner.memory;
        // Header: class word, monitor word, length, padding.
        let header = TaggedPtr::from_addr(addr);
        let class_word = match kind {
            ObjKind::Array(t) => 0x1000 | t.descriptor() as u32,
            ObjKind::String => 0x2000,
        };
        let mut hdr = [0u8; HEADER_SIZE];
        hdr[0..4].copy_from_slice(&class_word.to_le_bytes());
        hdr[8..12].copy_from_slice(&(len as u32).to_le_bytes());
        mem.write_bytes_unchecked(header, &hdr)?;
        // Java zero-initializes payloads.
        mem.fill_unchecked(header.wrapping_add(HEADER_SIZE as u64), byte_len, 0)?;
        let token = Arc::new(LiveToken::new(addr, kind, len));
        objects.insert(
            addr,
            ObjectMeta {
                block_len,
                byte_len,
                live: Arc::downgrade(&token),
            },
        );
        drop(objects);
        self.inner.totals.bump(ALLOCATED);
        Ok(token)
    }

    /// Allocates a zero-filled primitive array.
    ///
    /// # Errors
    ///
    /// [`HeapError::OutOfMemory`] when the heap is exhausted.
    pub fn alloc_array(&self, ty: PrimitiveType, len: usize) -> Result<ArrayRef> {
        Ok(ArrayRef {
            obj: ObjectRef { token: self.alloc_object(ObjKind::Array(ty), len)? },
        })
    }

    /// Allocates a `java.lang.String` holding `s`.
    ///
    /// # Errors
    ///
    /// [`HeapError::OutOfMemory`] when the heap is exhausted.
    pub fn alloc_string(&self, s: &str) -> Result<StringRef> {
        self.alloc_string_from_units(&utf16_units(s))
    }

    /// Allocates a `java.lang.String` from raw UTF-16 code units — Java
    /// strings may hold unpaired surrogates that no Rust `&str` can.
    ///
    /// # Errors
    ///
    /// [`HeapError::OutOfMemory`] when the heap is exhausted.
    pub fn alloc_string_from_units(&self, units: &[u16]) -> Result<StringRef> {
        let token = self.alloc_object(ObjKind::String, units.len())?;
        let mut bytes = Vec::with_capacity(units.len() * 2);
        for u in units {
            bytes.extend_from_slice(&u.to_le_bytes());
        }
        let _gate = self.inner.world.read_recursive();
        self.inner.memory.write_bytes_unchecked(
            TaggedPtr::from_addr(token.addr() + HEADER_SIZE as u64),
            &bytes,
        )?;
        Ok(StringRef { obj: ObjectRef { token } })
    }

    /// Reads a string object back into a Rust `String` (managed-side read,
    /// like `String.toString()` inside the JVM).
    ///
    /// # Errors
    ///
    /// Propagates simulated memory errors; lossily maps unpaired
    /// surrogates like `String.valueOf` would not — this returns an error
    /// instead.
    pub fn read_string(&self, s: &StringRef) -> Result<String> {
        let mut bytes = vec![0u8; s.byte_len()];
        let _gate = self.inner.world.read_recursive();
        self.inner
            .memory
            .read_bytes_unchecked(TaggedPtr::from_addr(s.data_addr()), &mut bytes)?;
        let units: Vec<u16> = bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();
        String::from_utf16(&units).map_err(|_| HeapError::InvalidUtf8 { offset: 0 })
    }

    // ------------------------------------------------------------------
    // Managed (JVM-side, bounds-checked) element access
    // ------------------------------------------------------------------

    fn elem_ptr(&self, a: &ArrayRef, expected: PrimitiveType, index: usize) -> Result<TaggedPtr> {
        let actual = a.element_type();
        if actual != expected {
            return Err(HeapError::TypeMismatch { expected, actual });
        }
        if index >= a.len() {
            return Err(HeapError::IndexOutOfBounds {
                index,
                length: a.len(),
            });
        }
        Ok(TaggedPtr::from_addr(
            a.data_addr() + (index * expected.size()) as u64,
        ))
    }

    /// Raw pointer to an object's payload — what the JNI layer tags and
    /// hands to native code. Untagged.
    pub fn data_ptr(&self, obj: &ObjectRef) -> TaggedPtr {
        TaggedPtr::from_addr(obj.data_addr())
    }

    // ------------------------------------------------------------------
    // Runtime-internal bulk access (no tag checks; TCO-set equivalent)
    // ------------------------------------------------------------------

    /// Reads `buf.len()` bytes of an object's payload, from byte offset
    /// `at`, without tag checks (runtime internal: guarded copy's
    /// copy-out, the JNI region copies). The world gate's shared hold
    /// covers the address lookup and the copy, so a compaction pass
    /// cannot move the object mid-copy.
    ///
    /// # Errors
    ///
    /// [`HeapError::IndexOutOfBounds`] when the range exceeds the
    /// payload; [`HeapError::Mem`] range errors.
    pub fn read_payload(&self, obj: &ObjectRef, at: usize, buf: &mut [u8]) -> Result<()> {
        let _gate = self.inner.world.read_recursive();
        let ptr = payload_range(obj, at, buf.len())?;
        self.inner.memory.read_bytes_unchecked(ptr, buf)?;
        Ok(())
    }

    /// Overwrites `buf.len()` bytes of an object's payload, from byte
    /// offset `at`, without tag checks (runtime internal: guarded copy's
    /// copy-back, the JNI region copies), under the world gate's shared
    /// hold like [`Heap::read_payload`].
    ///
    /// # Errors
    ///
    /// [`HeapError::IndexOutOfBounds`] when the range exceeds the
    /// payload; [`HeapError::Mem`] range errors.
    pub fn write_payload(&self, obj: &ObjectRef, at: usize, buf: &[u8]) -> Result<()> {
        let _gate = self.inner.world.read_recursive();
        let ptr = payload_range(obj, at, buf.len())?;
        self.inner.memory.write_bytes_unchecked(ptr, buf)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Pinning (the JNI critical-section contract)
    // ------------------------------------------------------------------

    /// Pins `obj` against collection and relocation until the returned
    /// guard drops. Every acquire through a protection scheme pins, and
    /// the JNI borrow record owns the guard, so the borrow's final
    /// `Release*` unpins. While pinned, [`Heap::sweep`] never reclaims
    /// and [`Heap::compact`] never moves the object — even after the last
    /// Java handle dies mid-borrow, because the guard holds a handle too.
    /// Pins on one object nest.
    pub fn pin(&self, obj: &ObjectRef) -> PinGuard<'_> {
        // No world-gate hold: the increment and the flag load below are
        // one side of the store-buffer handshake with `compact` (see
        // `world.rs`). A pin that finds a pass running undoes itself and
        // waits the pass out, so a pin never lands on an object the
        // collector is relocating; only a pin that succeeds counts.
        let world = &self.inner.world;
        obj.token.take_pin();
        while world.compacting() {
            obj.token.release_pin();
            world.wait_out_compaction();
            obj.token.take_pin();
        }
        self.inner.totals.bump(PINS);
        PinGuard {
            heap: self,
            obj: obj.clone(),
        }
    }

    /// Whether `obj` is currently pinned.
    pub fn is_pinned(&self, obj: &ObjectRef) -> bool {
        obj.token.pin_count() > 0
    }

    /// Number of distinct currently-pinned objects, counted from the
    /// objects' own pin counts under the objects lock.
    pub fn pinned_count(&self) -> usize {
        count_pinned(&self.inner.objects.lock())
    }

    /// Installs the GC safepoint callback. Replaces any previous hook.
    pub fn set_safepoint_hook(&self, hook: impl Fn(&Safepoint<'_>) + Send + Sync + 'static) {
        *self.inner.safepoint_hook.lock() = Some(Arc::new(hook));
    }

    // ------------------------------------------------------------------
    // GC
    // ------------------------------------------------------------------

    /// Sweeps dead objects (those with no live handles), returning their
    /// blocks to the allocator and clearing their memory tags so a stale
    /// tag can never alias a future allocation.
    ///
    /// Pinned objects are never reclaimed: a [`PinGuard`] holds a handle,
    /// so an object borrowed by native code through a critical interface
    /// survives — at a stable address, with its tag-table entry intact —
    /// until the final `Release*` drops the pin, per the JNI pinning
    /// contract.
    pub fn sweep(&self) -> GcStats {
        // Shared world hold for the whole sweep: a concurrent compaction
        // (the exclusive holder) cannot invalidate the candidate
        // snapshot while the objects lock is dropped across the
        // safepoint hook.
        let _world = self.inner.world.read_recursive();
        // One sweep at a time. The candidate snapshot below is shown to
        // the safepoint hook — which force-purges tag-table entries and
        // zeroes tags for those addresses — with the objects lock
        // dropped. Were a second sweep allowed to run in that window it
        // could reclaim a candidate, the allocator could reuse the
        // address, and a mutator could pin + acquire a brand-new object
        // there; this sweep's hook would then purge the *new* object's
        // live entry, faulting a legitimate borrow. Serializing sweeps
        // (with compaction already excluded by the world gate) means no
        // candidate's block can be freed between snapshot and purge.
        let _serial = self.inner.sweep_serial.lock();
        let mut dead: Vec<(u64, usize, usize)> = {
            let objects = self.inner.objects.lock();
            objects
                .iter()
                .filter(|(_, m)| m.live.strong_count() == 0)
                .map(|(&addr, m)| (addr, m.block_len, m.byte_len))
                .collect()
        };
        // Address order, not map order: the safepoint hook does
        // per-candidate work, so the candidate order must not leak the
        // hash map's iteration order (seeded schedules replay bit for
        // bit).
        dead.sort_unstable();
        // The safepoint fires before any candidate is reclaimed: a
        // protection scheme may still hold table entries for these dead
        // objects (a release abandoned after persistent faults), and
        // those entries must be gone before the addresses return to the
        // allocator.
        let safepoint = self.inner.safepoint_hook.lock().clone();
        if let Some(safepoint) = safepoint {
            let candidates: Vec<(u64, u64)> = dead
                .iter()
                .map(|&(addr, _, byte_len)| {
                    let payload = addr + HEADER_SIZE as u64;
                    (payload, payload + byte_len as u64)
                })
                .collect();
            safepoint(&Safepoint { phase: SafepointPhase::Sweep, candidates: &candidates });
        }
        let mut objects = self.inner.objects.lock();
        let mut bytes = 0usize;
        let mut swept = 0usize;
        for &(addr, block_len, _) in &dead {
            // Defensive re-check under the re-taken lock. With sweeps
            // serialized nothing else reclaims candidates, but keeping
            // reclamation idempotent costs one map probe and guards any
            // future caller that bypasses the serialization.
            let still_dead = objects
                .get(&addr)
                .is_some_and(|m| m.block_len == block_len && m.live.strong_count() == 0);
            if !still_dead {
                continue;
            }
            objects.remove(&addr);
            if self.inner.config.prot_mte {
                let p = TaggedPtr::from_addr(addr);
                self.inner
                    .memory
                    .set_tag_range(p, addr + block_len as u64, Tag::UNTAGGED)
                    .expect("heap blocks are PROT_MTE");
            }
            self.inner.blocks.free(addr, block_len);
            bytes += block_len;
            swept += 1;
        }
        let live = objects.len();
        let pinned = count_pinned(&objects);
        drop(objects);
        self.inner.totals.add(SWEPT, swept as u64);
        self.inner.totals.bump(SWEEPS);
        let stats = GcStats {
            swept,
            bytes_freed: bytes,
            live,
            pinned,
        };
        telemetry::trace::emit(|| telemetry::trace::TraceEvent::Sweep {
            swept: stats.swept as u64,
            pinned: stats.pinned as u64,
        });
        stats
    }

    /// Mark–compact collection over the block allocator: slides every
    /// unpinned live object toward the bottom of the heap, reclaims dead
    /// objects, rewrites handles through their shared liveness tokens,
    /// and migrates memory tags with the payload (re-tags the destination,
    /// zeroes the source). The protection scheme's safepoint hook runs
    /// first, so no tag-table entry is keyed to an object that moves.
    /// Pinned objects are immovable obstacles, exactly like ART's
    /// critical-section pinning.
    ///
    /// Runs stop-the-world: payload accessors block on the world gate for
    /// the duration, and pins back off and wait until it ends.
    pub fn compact(&self) -> CompactStats {
        let recording = telemetry::enabled();
        let t0 = std::time::Instant::now();
        let world = self.inner.world.write();
        // Every pin count is read once, here, after `write` raised the
        // gate's `compacting` flag. Both are `SeqCst`, as are a pin's
        // increment and its flag load, so a pin racing this read is
        // either seen here or sees the flag and backs off before it
        // returns (the handshake in `world.rs`). A transient pin seen
        // here, like an unpin racing the pass, only keeps one more
        // object in place. The safepoint candidates and the slide below
        // share this one decision, so nothing moves that the hook was
        // not shown.
        let mut pinned: Vec<u64> = self
            .inner
            .objects
            .lock()
            .iter()
            .filter(|(_, m)| m.live.upgrade().is_some_and(|t| t.pin_count() > 0))
            .map(|(&addr, _)| addr)
            .collect();
        pinned.sort_unstable();
        let is_pinned = |addr: &u64| pinned.binary_search(addr).is_ok();
        // With the world stopped, notify the protection scheme before
        // anything moves: every unpinned object is a move (or reclaim)
        // candidate, and any table entry still tracking one — an
        // abandoned release, since pinning is what a live borrow
        // implies — must be retired before its address is
        // re-tagged or handed to another object.
        let safepoint = self.inner.safepoint_hook.lock().clone();
        if let Some(safepoint) = safepoint {
            let mut candidates: Vec<(u64, u64)> = {
                let objects = self.inner.objects.lock();
                objects
                    .iter()
                    .filter(|(addr, _)| !is_pinned(addr))
                    .map(|(&addr, m)| {
                        let payload = addr + HEADER_SIZE as u64;
                        (payload, payload + m.byte_len as u64)
                    })
                    .collect()
            };
            // Address order, not map order: keeps seeded stress
            // schedules bit-reproducible (see `sweep`).
            candidates.sort_unstable();
            safepoint(&Safepoint {
                phase: SafepointPhase::CompactBegin,
                candidates: &candidates,
            });
        }
        let mut objects = self.inner.objects.lock();
        let mem = &self.inner.memory;
        let mut entries: Vec<(u64, ObjectMeta)> = objects.drain().collect();
        entries.sort_unstable_by_key(|&(addr, _)| addr);
        let heap_start = self.inner.blocks.start();
        let old_extent = entries
            .last()
            .map_or(heap_start, |&(addr, ref m)| addr + m.block_len as u64);
        // Tag migration needs granule-aligned blocks; the misaligned_mte
        // ablation config deliberately violates that, so it moves bytes
        // but leaves tags alone (its granule-sharing hazard is the point).
        let migrate_tags =
            self.inner.config.prot_mte && self.inner.config.alignment.is_multiple_of(GRANULE);
        let mut stats = CompactStats::default();
        let mut cursor = heap_start;
        let mut layout: Vec<(u64, u64)> = Vec::with_capacity(entries.len());
        let mut buf = Vec::new();
        for (addr, meta) in entries {
            let block_len = meta.block_len as u64;
            if is_pinned(&addr) {
                // Natively borrowed: the raw pointer handed out by the
                // protection scheme must stay valid, so the object is an
                // obstacle the slide flows around.
                stats.pinned_skipped += 1;
                cursor = cursor.max(addr + block_len);
                layout.push((addr, block_len));
                objects.insert(addr, meta);
                continue;
            }
            let Some(token) = meta.live.upgrade() else {
                // Dead: reclaiming is simply not carrying the block into
                // the new layout; its tags are zeroed with the free space.
                stats.reclaimed_dead += 1;
                stats.bytes_freed += meta.block_len;
                continue;
            };
            let new_addr = cursor;
            cursor += block_len;
            layout.push((new_addr, block_len));
            if new_addr == addr {
                objects.insert(addr, meta);
                continue;
            }
            debug_assert!(new_addr < addr, "sliding compaction only moves down");
            buf.resize(meta.block_len, 0);
            mem.read_bytes_unchecked(TaggedPtr::from_addr(addr), &mut buf)
                .expect("live blocks lie inside the heap");
            mem.write_bytes_unchecked(TaggedPtr::from_addr(new_addr), &buf)
                .expect("destination blocks lie inside the heap");
            if migrate_tags {
                // Migrate granule tags with the payload, coalescing
                // equal-tag runs into single range stores. Source tags are
                // read before the destination store of the same granule
                // can clobber them: new_addr < addr and granules advance
                // upward, so granule g's source read happens before any
                // destination store at or above it.
                let granule = GRANULE as u64;
                let granules = block_len / granule;
                let mut g = 0;
                while g < granules {
                    let tag = mem
                        .raw_tag_at(addr + g * granule)
                        .expect("live blocks lie inside the heap");
                    let mut run = 1;
                    while g + run < granules
                        && mem
                            .raw_tag_at(addr + (g + run) * granule)
                            .expect("live blocks lie inside the heap")
                            == tag
                    {
                        run += 1;
                    }
                    mem.set_tag_range(
                        TaggedPtr::from_addr(new_addr + g * granule),
                        new_addr + (g + run) * granule,
                        tag,
                    )
                    .expect("heap blocks are PROT_MTE");
                    g += run;
                }
            }
            token.relocate(new_addr);
            stats.moved_objects += 1;
            stats.moved_bytes += meta.block_len;
            objects.insert(new_addr, meta);
        }
        self.inner.blocks.reset_layout(&layout);
        if migrate_tags {
            // Zero the tags of every vacated region below the old
            // high-water mark so a stale tag can never alias a future
            // allocation ("zero the source").
            let mut free_cursor = heap_start;
            for &(addr, len) in &layout {
                if addr > free_cursor && free_cursor < old_extent {
                    mem.set_tag_range(
                        TaggedPtr::from_addr(free_cursor),
                        addr.min(old_extent),
                        Tag::UNTAGGED,
                    )
                    .expect("heap blocks are PROT_MTE");
                }
                free_cursor = addr + len;
            }
            if free_cursor < old_extent {
                mem.set_tag_range(
                    TaggedPtr::from_addr(free_cursor),
                    old_extent,
                    Tag::UNTAGGED,
                )
                .expect("heap blocks are PROT_MTE");
            }
        }
        drop(objects);
        drop(world);
        stats.pause = t0.elapsed();
        let totals = &self.inner.totals;
        totals.add(SWEPT, stats.reclaimed_dead as u64);
        totals.bump(COMPACTIONS);
        totals.add(MOVED_OBJECTS, stats.moved_objects as u64);
        totals.add(MOVED_BYTES, stats.moved_bytes as u64);
        if recording {
            let size_class = SizeClass::from_bytes(stats.moved_bytes as u64);
            let key = || HistKey {
                tenant: None,
                scheme: "heap",
                interface: "Compact",
                size_class,
                op: LatencyOp::GcPause,
            };
            self.inner.compaction_pause[size_class as usize].record(key, stats.pause);
        }
        telemetry::trace::emit(|| telemetry::trace::TraceEvent::Compact {
            moved: stats.moved_objects as u64,
            reclaimed: stats.reclaimed_dead as u64,
        });
        stats
    }

    /// Scans every live object's memory — header and payload — through
    /// `scanner`, using **untagged** pointers, exactly like a GC marking
    /// thread that never went through a JNI tagging interface.
    ///
    /// With MTE4JNI's thread-level control the scanner has `TCO` set and
    /// the scan is silent; a naively process-wide MTE enablement makes
    /// this scan fault on every object currently tagged for native code
    /// (paper §3.3).
    pub fn scan_live(&self, scanner: &MteThread) -> ScanOutcome {
        let _gate = self.inner.world.read_recursive();
        let tokens: Vec<(u64, usize)> = {
            let objects = self.inner.objects.lock();
            objects
                .iter()
                .filter(|(_, m)| m.live.strong_count() > 0)
                .map(|(&addr, m)| (addr, HEADER_SIZE + m.byte_len))
                .collect()
        };
        let mut outcome = ScanOutcome::default();
        let mut buf = Vec::new();
        for (addr, len) in tokens {
            buf.resize(len, 0);
            let ptr = TaggedPtr::from_addr(addr); // untagged, like a GC root
            match self.inner.memory.read_bytes(scanner, ptr, &mut buf) {
                Ok(()) => {}
                Err(mte_sim::MemError::TagCheck(fault)) => outcome.faults.push(*fault),
                // Reachable if an object moves between snapshot and read
                // (e.g. a concurrent compaction); report, don't panic the
                // GC thread.
                Err(other) => outcome.errors.push(other),
            }
            outcome.objects += 1;
            outcome.bytes += len;
        }
        // Async-mode scanners latch instead of failing; surface it here the
        // way the kernel would at the scanner's next syscall.
        if let Err(fault) = scanner.syscall("madvise") {
            outcome.faults.push(fault);
        }
        outcome
    }

    /// Number of live (handle-reachable) objects.
    pub fn live_count(&self) -> usize {
        self.inner
            .objects
            .lock()
            .values()
            .filter(|m| m.live.strong_count() > 0)
            .count()
    }

    /// The compaction pauses timed while recording was on, one summary
    /// per size class of the bytes a pass moved.
    pub fn compaction_pauses(&self) -> impl Iterator<Item = HistogramSummary> + '_ {
        self.inner
            .compaction_pause
            .iter()
            .filter_map(HistSlot::summary)
    }

    /// Aggregate heap statistics.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            live_objects: self.live_count(),
            bytes_in_use: self.inner.blocks.bytes_in_use(),
            fragmentation_bytes: self.inner.blocks.fragmentation_bytes(),
            allocated_total: self.inner.totals.get(ALLOCATED),
            swept_total: self.inner.totals.get(SWEPT),
            sweeps: self.inner.totals.get(SWEEPS),
            pinned_objects: self.pinned_count(),
            pins_total: self.inner.totals.get(PINS),
            unpins_total: self.inner.totals.get(UNPINS),
            compactions: self.inner.totals.get(COMPACTIONS),
            moved_objects_total: self.inner.totals.get(MOVED_OBJECTS),
            moved_bytes_total: self.inner.totals.get(MOVED_BYTES),
            world_gate_waits: self.inner.world.waits(),
        }
    }
}

/// One pin on a heap object, from [`Heap::pin`]; dropping it unpins.
///
/// The guard owns a handle to the object, so a pinned object stays live
/// after its last Java handle dies, and [`PinGuard::object`] still
/// reaches it for the final `Release*`.
#[must_use = "dropping a PinGuard unpins the object at once"]
pub struct PinGuard<'h> {
    heap: &'h Heap,
    obj: ObjectRef,
}

impl PinGuard<'_> {
    /// The pinned object.
    pub fn object(&self) -> &ObjectRef {
        &self.obj
    }
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        // No world-gate hold: an unpin that races a compaction only makes
        // the collector keep one more object in place.
        self.obj.token.release_pin();
        self.heap.inner.totals.bump(UNPINS);
    }
}

impl fmt::Debug for Heap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Heap")
            .field("config", &self.inner.config)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Result of one [`Heap::sweep`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Objects collected.
    pub swept: usize,
    /// Block bytes returned to the allocator.
    pub bytes_freed: usize,
    /// Objects still live after the sweep.
    pub live: usize,
    /// Objects pinned (natively borrowed) when the sweep finished.
    pub pinned: usize,
}

/// Result of one [`Heap::compact`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Objects relocated.
    pub moved_objects: usize,
    /// Block bytes relocated.
    pub moved_bytes: usize,
    /// Pinned objects left in place as obstacles.
    pub pinned_skipped: usize,
    /// Dead objects reclaimed during the pass.
    pub reclaimed_dead: usize,
    /// Block bytes those dead objects covered.
    pub bytes_freed: usize,
    /// Stop-the-world duration of the pass.
    pub pause: Duration,
}

/// Result of one [`Heap::scan_live`].
#[derive(Clone, Debug, Default)]
pub struct ScanOutcome {
    /// Objects scanned.
    pub objects: usize,
    /// Bytes read.
    pub bytes: usize,
    /// Tag-check faults the scanner hit (empty for a correctly configured
    /// runtime thread).
    pub faults: Vec<TagCheckFault>,
    /// Non-tag-check memory errors (e.g. a racing relocation moved an
    /// object out from under the snapshot).
    pub errors: Vec<mte_sim::MemError>,
}

/// Point-in-time heap statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Objects with live handles.
    pub live_objects: usize,
    /// Bytes currently held by object blocks.
    pub bytes_in_use: u64,
    /// Cumulative internal fragmentation from alignment rounding.
    pub fragmentation_bytes: u64,
    /// Objects ever allocated.
    pub allocated_total: u64,
    /// Objects ever swept.
    pub swept_total: u64,
    /// Sweep cycles run.
    pub sweeps: u64,
    /// Currently-pinned (natively borrowed) objects.
    pub pinned_objects: usize,
    /// Cumulative pins ever taken.
    pub pins_total: u64,
    /// Cumulative pins ever dropped.
    pub unpins_total: u64,
    /// Compaction passes run.
    pub compactions: u64,
    /// Objects ever relocated by compaction.
    pub moved_objects_total: u64,
    /// Block bytes ever relocated by compaction.
    pub moved_bytes_total: u64,
    /// Pins that backed off from an active compaction pass plus shared
    /// world-gate holds (allocation, payload copies, sweeps) that waited
    /// for one.
    pub world_gate_waits: u64,
}

macro_rules! element_accessors {
    (
        $prim:expr, $rust:ty,
        $alloc:ident, $alloc_from:ident, $at:ident, $set_at:ident, $as_vec:ident,
        $load:ident, $store:ident, $decode:expr, $encode:expr
    ) => {
        impl Heap {
            #[doc = concat!("Allocates a zero-filled `", stringify!($prim), "` array.")]
            ///
            /// # Errors
            ///
            /// [`HeapError::OutOfMemory`] when the heap is exhausted.
            pub fn $alloc(&self, len: usize) -> Result<ArrayRef> {
                self.alloc_array($prim, len)
            }

            /// Allocates an array initialized from `values`.
            ///
            /// # Errors
            ///
            /// [`HeapError::OutOfMemory`] when the heap is exhausted.
            pub fn $alloc_from(&self, values: &[$rust]) -> Result<ArrayRef> {
                let a = self.alloc_array($prim, values.len())?;
                let mut bytes = Vec::with_capacity(a.byte_len());
                for &v in values {
                    let enc = $encode(v);
                    bytes.extend_from_slice(&enc.to_le_bytes());
                }
                let _gate = self.inner.world.read_recursive();
                self.inner
                    .memory
                    .write_bytes_unchecked(TaggedPtr::from_addr(a.data_addr()), &bytes)?;
                Ok(a)
            }

            /// Managed (bounds- and type-checked) element read — the JVM's
            /// own safe path.
            ///
            /// # Errors
            ///
            /// [`HeapError::IndexOutOfBounds`] or [`HeapError::TypeMismatch`]
            /// on a bad access; [`HeapError::Mem`] on memory errors.
            pub fn $at(&self, t: &JavaThread, a: &ArrayRef, index: usize) -> Result<$rust> {
                let _gate = self.inner.world.read_recursive();
                let p = self.elem_ptr(a, $prim, index)?;
                let raw = self.inner.memory.$load(t.mte(), p)?;
                Ok($decode(raw))
            }

            /// Managed (bounds- and type-checked) element write.
            ///
            /// # Errors
            ///
            /// See the corresponding read accessor.
            pub fn $set_at(
                &self,
                t: &JavaThread,
                a: &ArrayRef,
                index: usize,
                value: $rust,
            ) -> Result<()> {
                let _gate = self.inner.world.read_recursive();
                let p = self.elem_ptr(a, $prim, index)?;
                self.inner.memory.$store(t.mte(), p, $encode(value))?;
                Ok(())
            }

            /// Copies the whole array out through the managed path.
            ///
            /// # Errors
            ///
            /// [`HeapError::TypeMismatch`] for the wrong element type;
            /// [`HeapError::Mem`] on memory errors.
            pub fn $as_vec(&self, t: &JavaThread, a: &ArrayRef) -> Result<Vec<$rust>> {
                let mut out = Vec::with_capacity(a.len());
                for i in 0..a.len() {
                    out.push(self.$at(t, a, i)?);
                }
                Ok(out)
            }
        }
    };
}

element_accessors!(
    PrimitiveType::Boolean, bool,
    alloc_boolean_array, alloc_boolean_array_from, boolean_at, set_boolean_at, boolean_array_as_vec,
    load_u8, store_u8, |raw: u8| raw != 0, |v: bool| u8::from(v)
);
element_accessors!(
    PrimitiveType::Byte, i8,
    alloc_byte_array, alloc_byte_array_from, byte_at, set_byte_at, byte_array_as_vec,
    load_u8, store_u8, |raw: u8| raw as i8, |v: i8| v as u8
);
element_accessors!(
    PrimitiveType::Char, u16,
    alloc_char_array, alloc_char_array_from, char_at, set_char_at, char_array_as_vec,
    load_u16, store_u16, |raw: u16| raw, |v: u16| v
);
element_accessors!(
    PrimitiveType::Short, i16,
    alloc_short_array, alloc_short_array_from, short_at, set_short_at, short_array_as_vec,
    load_u16, store_u16, |raw: u16| raw as i16, |v: i16| v as u16
);
element_accessors!(
    PrimitiveType::Int, i32,
    alloc_int_array, alloc_int_array_from, int_at, set_int_at, int_array_as_vec,
    load_u32, store_u32, |raw: u32| raw as i32, |v: i32| v as u32
);
element_accessors!(
    PrimitiveType::Long, i64,
    alloc_long_array, alloc_long_array_from, long_at, set_long_at, long_array_as_vec,
    load_u64, store_u64, |raw: u64| raw as i64, |v: i64| v as u64
);
element_accessors!(
    PrimitiveType::Float, f32,
    alloc_float_array, alloc_float_array_from, float_at, set_float_at, float_array_as_vec,
    load_u32, store_u32, f32::from_bits, |v: f32| v.to_bits()
);
element_accessors!(
    PrimitiveType::Double, f64,
    alloc_double_array, alloc_double_array_from, double_at, set_double_at, double_array_as_vec,
    load_u64, store_u64, f64::from_bits, |v: f64| v.to_bits()
);

/// The untagged address of `len` payload bytes of `obj` from byte
/// offset `at`; read it under a world-gate hold, since compaction moves
/// payloads.
fn payload_range(obj: &ObjectRef, at: usize, len: usize) -> Result<TaggedPtr> {
    match at.checked_add(len) {
        Some(end) if end <= obj.byte_len() => Ok(TaggedPtr::from_addr(obj.data_addr() + at as u64)),
        _ => Err(HeapError::IndexOutOfBounds {
            index: at.saturating_add(len),
            length: obj.byte_len(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn heap() -> Heap {
        Heap::new(HeapConfig::default())
    }

    #[test]
    fn int_array_round_trip() {
        let h = heap();
        let t = JavaThread::new("main");
        let a = h.alloc_int_array_from(&[-1, 0, i32::MAX, i32::MIN]).unwrap();
        assert_eq!(h.int_array_as_vec(&t, &a).unwrap(), vec![-1, 0, i32::MAX, i32::MIN]);
        h.set_int_at(&t, &a, 1, 77).unwrap();
        assert_eq!(h.int_at(&t, &a, 1).unwrap(), 77);
    }

    #[test]
    fn all_types_round_trip() {
        let h = heap();
        let t = JavaThread::new("main");
        let b = h.alloc_boolean_array_from(&[true, false, true]).unwrap();
        assert_eq!(h.boolean_array_as_vec(&t, &b).unwrap(), vec![true, false, true]);
        let y = h.alloc_byte_array_from(&[-128, 127]).unwrap();
        assert_eq!(h.byte_array_as_vec(&t, &y).unwrap(), vec![-128, 127]);
        let c = h.alloc_char_array_from(&[0x0041, 0xFFFF]).unwrap();
        assert_eq!(h.char_array_as_vec(&t, &c).unwrap(), vec![0x0041, 0xFFFF]);
        let s = h.alloc_short_array_from(&[-5, 5]).unwrap();
        assert_eq!(h.short_array_as_vec(&t, &s).unwrap(), vec![-5, 5]);
        let l = h.alloc_long_array_from(&[i64::MIN, i64::MAX]).unwrap();
        assert_eq!(h.long_array_as_vec(&t, &l).unwrap(), vec![i64::MIN, i64::MAX]);
        let f = h.alloc_float_array_from(&[1.5, -0.0]).unwrap();
        assert_eq!(h.float_array_as_vec(&t, &f).unwrap(), vec![1.5, -0.0]);
        let d = h.alloc_double_array_from(&[std::f64::consts::PI]).unwrap();
        assert_eq!(h.double_array_as_vec(&t, &d).unwrap(), vec![std::f64::consts::PI]);
    }

    #[test]
    fn fresh_arrays_are_zeroed() {
        let h = heap();
        let t = JavaThread::new("main");
        let a = h.alloc_int_array(16).unwrap();
        assert_eq!(h.int_array_as_vec(&t, &a).unwrap(), vec![0; 16]);
    }

    #[test]
    fn managed_access_bounds_checked() {
        let h = heap();
        let t = JavaThread::new("main");
        let a = h.alloc_int_array(18).unwrap();
        // The JVM catches what native code would not: index 21 of 18.
        assert_eq!(
            h.int_at(&t, &a, 21),
            Err(HeapError::IndexOutOfBounds { index: 21, length: 18 })
        );
        assert!(h.set_int_at(&t, &a, 18, 1).is_err());
        assert!(h.set_int_at(&t, &a, 17, 1).is_ok());
    }

    #[test]
    fn managed_access_type_checked() {
        let h = heap();
        let t = JavaThread::new("main");
        let a = h.alloc_byte_array(4).unwrap();
        assert!(matches!(
            h.int_at(&t, &a, 0),
            Err(HeapError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn alignment_respects_config() {
        for align in [8usize, 16] {
            let h = Heap::new(HeapConfig {
                alignment: align,
                ..HeapConfig::default()
            });
            for len in [1usize, 3, 7, 18] {
                let a = h.alloc_int_array(len).unwrap();
                assert_eq!(a.addr() % align as u64, 0, "align {align} len {len}");
            }
        }
    }

    #[test]
    fn string_round_trip() {
        let h = heap();
        let s = h.alloc_string("Hello, 世界 😀").unwrap();
        assert_eq!(h.read_string(&s).unwrap(), "Hello, 世界 😀");
        assert_eq!(s.len(), "Hello, 世界 😀".encode_utf16().count());
    }

    #[test]
    fn sweep_collects_only_dead_objects() {
        let h = heap();
        let keep = h.alloc_int_array(8).unwrap();
        {
            let _drop_me = h.alloc_int_array(8).unwrap();
        }
        let stats = h.sweep();
        assert_eq!(stats.swept, 1);
        assert_eq!(stats.live, 1);
        assert_eq!(h.live_count(), 1);
        drop(keep);
        assert_eq!(h.sweep().swept, 1);
        assert_eq!(h.live_count(), 0);
    }

    #[test]
    fn sweep_allows_address_reuse() {
        let h = heap();
        let addr = {
            let a = h.alloc_int_array(64).unwrap();
            a.addr()
        };
        h.sweep();
        let b = h.alloc_int_array(64).unwrap();
        assert_eq!(b.addr(), addr, "freed block reused first-fit");
    }

    #[test]
    fn sweep_clears_stale_tags() {
        let h = heap();
        let (addr, end) = {
            let a = h.alloc_int_array(8).unwrap();
            let p = TaggedPtr::from_addr(a.addr());
            h.memory()
                .set_tag_range(p, a.addr() + 48, Tag::new(0xD).unwrap())
                .unwrap();
            (a.addr(), a.addr() + 48)
        };
        h.sweep();
        let mut a = addr;
        while a < end {
            assert_eq!(h.memory().raw_tag_at(a).unwrap(), Tag::UNTAGGED);
            a += 16;
        }
    }

    /// Regression for sweep serialization: a Sweep-phase safepoint
    /// candidate must still be dead and unreclaimed when the hook sees
    /// it. Without `sweep_serial`, a racing sweep could reclaim a
    /// candidate and the allocator could hand the address to a new live
    /// object before this sweep's hook runs — the hook would then purge
    /// the new object's tag-table entry out from under a mutator.
    /// Workers publish every currently-live payload address to a shared
    /// set (unpublishing *before* the handle drops, so a legitimately
    /// dead candidate can never be in the set); the hook cross-checks
    /// each candidate against it.
    #[test]
    fn concurrent_sweeps_never_present_a_live_address_as_a_candidate() {
        use std::collections::HashSet;
        use std::sync::Barrier;
        let h = heap();
        let live: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
        let violations = Arc::new(AtomicU64::new(0));
        {
            let live = Arc::clone(&live);
            let violations = Arc::clone(&violations);
            h.set_safepoint_hook(move |sp| {
                if sp.phase != SafepointPhase::Sweep {
                    return;
                }
                let live = live.lock();
                for &(begin, _) in sp.candidates {
                    if live.contains(&begin) {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        let barrier = Arc::new(Barrier::new(4));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                let live = Arc::clone(&live);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..64 {
                        let a = h.alloc_int_array(8).unwrap();
                        live.lock().insert(a.data_addr());
                        // Sweep while the object is published, so other
                        // threads' hooks fire against a set that holds
                        // this (possibly just-reused) address.
                        h.sweep();
                        live.lock().remove(&a.data_addr());
                        drop(a);
                        h.sweep();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(violations.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn scan_live_reads_everything_quietly_for_runtime_threads() {
        let h = heap();
        let _a = h.alloc_int_array(100).unwrap();
        let _b = h.alloc_string("gc test").unwrap();
        let scanner = MteThread::new("HeapTaskDaemon"); // TCO set by default
        let outcome = h.scan_live(&scanner);
        assert_eq!(outcome.objects, 2);
        assert!(outcome.faults.is_empty());
        assert!(outcome.bytes >= 100 * 4 + HEADER_SIZE);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let h = Heap::new(HeapConfig {
            memory: MemoryConfig {
                base: 0x7a00_0000_0000,
                size: 64 << 10,
            },
            ..HeapConfig::default()
        });
        // Heap region is 48 KiB; this cannot fit.
        assert!(matches!(
            h.alloc_byte_array(1 << 20),
            Err(HeapError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn data_starts_after_header_on_granule_boundary() {
        let h = heap();
        let a = h.alloc_int_array(4).unwrap();
        assert_eq!(a.data_addr(), a.addr() + 16);
        assert_eq!(a.data_addr() % 16, 0);
    }

    #[test]
    fn stats_track_allocation_lifecycle() {
        let h = heap();
        let _a = h.alloc_int_array(10).unwrap();
        {
            let _b = h.alloc_int_array(10).unwrap();
        }
        h.sweep();
        let s = h.stats();
        assert_eq!(s.allocated_total, 2);
        assert_eq!(s.swept_total, 1);
        assert_eq!(s.live_objects, 1);
        assert_eq!(s.sweeps, 1);
        assert!(s.bytes_in_use >= 56);
    }

    #[test]
    fn pin_counts_nest() {
        let h = heap();
        let a = ObjectRef::from(h.alloc_int_array(4).unwrap());
        let outer = h.pin(&a);
        let inner = h.pin(&a);
        assert!(h.is_pinned(&a));
        assert_eq!(h.pinned_count(), 1, "one object, two pins");
        drop(inner);
        assert!(h.is_pinned(&a), "still borrowed once");
        drop(outer);
        assert!(!h.is_pinned(&a));
        let s = h.stats();
        assert_eq!((s.pins_total, s.unpins_total, s.pinned_objects), (2, 2, 0));
    }

    #[test]
    fn a_pin_waits_out_an_active_compaction_pass() {
        let h = heap();
        let a = ObjectRef::from(h.alloc_int_array(4).unwrap());
        let before = h.stats();
        std::thread::scope(|s| {
            let world = h.inner.world.write();
            let pinner = s.spawn(|| h.pin(&a));
            // Wait until the pinner has backed off (or, wrongly, returned).
            while h.inner.world.waits() == 0 && !pinner.is_finished() {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(20));
            assert!(
                !pinner.is_finished(),
                "a pin returned while the exclusive hold lasts"
            );
            assert_eq!(a.token.pin_count(), 0, "the backed-off pin undid itself");
            drop(world);
            let pin = pinner.join().unwrap();
            assert_eq!(a.token.pin_count(), 1);
            let after = h.stats();
            assert_eq!(after.pins_total - before.pins_total, 1);
            assert_eq!(after.unpins_total, before.unpins_total);
            assert_eq!(after.world_gate_waits, 1);
            drop(pin);
        });
    }

    #[test]
    fn a_ranged_payload_read_waits_out_an_active_compaction_pass() {
        let h = heap();
        let a = ObjectRef::from(h.alloc_int_array_from(&[1, 2, 3, 4]).unwrap());
        std::thread::scope(|s| {
            let world = h.inner.world.write();
            let reader = s.spawn(|| {
                let mut buf = [0u8; 8];
                h.read_payload(&a, 4, &mut buf).map(|()| buf)
            });
            // Wait until the reader has queued on the gate (or, wrongly,
            // returned).
            while h.inner.world.waits() == 0 && !reader.is_finished() {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(20));
            assert!(
                !reader.is_finished(),
                "a payload read returned while the exclusive hold lasts"
            );
            drop(world);
            assert_eq!(reader.join().unwrap().unwrap(), [2, 0, 0, 0, 3, 0, 0, 0]);
        });
        assert_eq!(h.stats().world_gate_waits, 1);
        assert!(
            matches!(
                h.read_payload(&a, 12, &mut [0u8; 8]),
                Err(HeapError::IndexOutOfBounds { index: 20, length: 16 })
            ),
            "a range past the payload is refused"
        );
        h.write_payload(&a, 12, &9i32.to_le_bytes()).unwrap();
        let mut all = [0u8; 16];
        h.read_payload(&a, 0, &mut all).unwrap();
        assert_eq!(all[8..], [3, 0, 0, 0, 9, 0, 0, 0]);
    }

    #[test]
    fn pinned_objects_counts_distinct_objects() {
        let h = heap();
        let a = ObjectRef::from(h.alloc_int_array(4).unwrap());
        let b = ObjectRef::from(h.alloc_int_array(4).unwrap());
        let pins = [h.pin(&a), h.pin(&a), h.pin(&b)];
        assert_eq!(h.stats().pinned_objects, 2);
        drop(pins);
        assert_eq!(h.stats().pinned_objects, 0);
    }

    #[test]
    fn a_pin_dropped_on_another_thread_unpins() {
        // The gauge is read from the object's own pin count, so a guard
        // taken on one thread and dropped on another balances it.
        let h = heap();
        let a = ObjectRef::from(h.alloc_int_array(4).unwrap());
        let pin = std::thread::scope(|s| s.spawn(|| h.pin(&a)).join().unwrap());
        assert_eq!(h.stats().pinned_objects, 1);
        std::thread::scope(|s| {
            s.spawn(move || drop(pin));
        });
        let st = h.stats();
        assert_eq!(st.pinned_objects, 0);
        assert_eq!((st.pins_total, st.unpins_total), (1, 1));
    }

    #[test]
    fn sweep_reports_the_pinned_gauge() {
        let h = heap();
        let a = ObjectRef::from(h.alloc_int_array(4).unwrap());
        let _other = h.alloc_int_array(4).unwrap();
        drop(h.alloc_int_array(4).unwrap()); // garbage for the sweep
        let pin = h.pin(&a);
        let gc = h.sweep();
        assert_eq!((gc.swept, gc.pinned), (1, 1));
        assert_eq!(gc.pinned, h.stats().pinned_objects);
        drop(pin);
        assert_eq!(h.sweep().pinned, 0);
    }

    #[test]
    fn a_pin_keeps_its_object_alive() {
        let h = heap();
        let a = h.alloc_int_array(4).unwrap();
        let weak = Arc::downgrade(&a.as_object().token);
        let pin = h.pin(a.as_object());
        drop(a); // the last Java handle dies
        assert!(weak.upgrade().is_some(), "the pin keeps the token alive");
        assert_eq!(pin.object().len(), 4);
        drop(pin);
        assert!(weak.upgrade().is_none(), "unpinned and unreferenced: dead");
    }

    /// The headline regression: a dead-but-borrowed object survives sweep
    /// until its last release.
    #[test]
    fn sweep_never_reclaims_a_pinned_object() {
        let h = heap();
        let t = JavaThread::new("main");
        let a = h.alloc_int_array_from(&[11, 22, 33]).unwrap();
        let addr = a.addr();
        let pin = h.pin(a.as_object());
        drop(a); // the last Java handle dies mid-borrow
        let stats = h.sweep();
        assert_eq!(stats.swept, 0, "pinned object must survive the sweep");
        assert_eq!(stats.pinned, 1);
        // Native code can still reach the object through its pin.
        let arr = pin.object().as_array().unwrap();
        assert_eq!(arr.addr(), addr);
        assert_eq!(h.int_array_as_vec(&t, &arr).unwrap(), vec![11, 22, 33]);
        drop(arr);
        drop(pin); // the final Release*
        assert_eq!(h.sweep().swept, 1, "collected after the final release");
        let s = h.stats();
        assert_eq!((s.pins_total, s.unpins_total, s.pinned_objects), (1, 1, 0));
    }

    #[test]
    fn compaction_round_trip_preserves_payloads_and_migrates_tags() {
        let h = heap();
        let t = JavaThread::new("main");
        // Fragment the heap: interleave survivors with garbage.
        let mut keep = Vec::new();
        for i in 0..8i32 {
            keep.push(h.alloc_int_array_from(&[i; 16]).unwrap());
            let _garbage = h.alloc_int_array(16).unwrap();
        }
        h.sweep();
        // Give one survivor a lingering JNI-style tag over header + two
        // payload granules.
        let tag = Tag::new(0x7).unwrap();
        let tagged_old = keep[5].addr();
        h.memory()
            .set_tag_range(TaggedPtr::from_addr(tagged_old), tagged_old + 48, tag)
            .unwrap();
        let old_addrs: Vec<u64> = keep.iter().map(|k| k.addr()).collect();
        let stats = h.compact();
        // keep[0] was already bottom-most; the other seven slide down.
        assert_eq!(stats.moved_objects, 7);
        assert_eq!(stats.pinned_skipped, 0);
        for (k, &old) in keep.iter().zip(&old_addrs) {
            assert!(k.addr() <= old, "sliding compaction only moves down");
        }
        // Payloads are bit-identical through the relocated handles.
        for (i, k) in keep.iter().enumerate() {
            assert_eq!(h.int_array_as_vec(&t, k).unwrap(), vec![i as i32; 16]);
        }
        // Tags migrated: valid at the destination…
        let tagged_new = keep[5].addr();
        assert_ne!(tagged_new, tagged_old);
        for g in 0..3 {
            assert_eq!(h.memory().raw_tag_at(tagged_new + g * 16).unwrap(), tag);
        }
        // …and zeroed at the (now free) source.
        for g in 0..3 {
            assert_eq!(
                h.memory().raw_tag_at(tagged_old + g * 16).unwrap(),
                Tag::UNTAGGED
            );
        }
        let s = h.stats();
        assert_eq!(s.compactions, 1);
        assert_eq!(s.moved_objects_total, 7);
        assert_eq!(s.moved_bytes_total, stats.moved_bytes as u64);
    }

    #[test]
    fn compaction_never_moves_a_pinned_object() {
        let h = heap();
        let garbage = h.alloc_int_array(16).unwrap();
        let pinned = h.alloc_int_array_from(&[9; 16]).unwrap();
        let mover = h.alloc_int_array_from(&[4; 16]).unwrap();
        let pinned_addr = pinned.addr();
        let mover_old = mover.addr();
        let pin = h.pin(pinned.as_object());
        drop(garbage);
        let stats = h.compact();
        assert_eq!(pinned.addr(), pinned_addr, "pinned object is an obstacle");
        assert_eq!(stats.pinned_skipped, 1);
        assert_eq!(stats.reclaimed_dead, 1);
        // The mover cannot slide below the pinned obstacle; it stays put
        // because its slot already followed the obstacle.
        assert_eq!(mover.addr(), mover_old);
        assert_eq!(stats.moved_objects, 0);
        // Unpin, then compact again: now everything slides down.
        drop(pin);
        let stats = h.compact();
        assert_eq!(stats.pinned_skipped, 0);
        assert_eq!(stats.moved_objects, 2);
        assert!(pinned.addr() < pinned_addr);
        let t = JavaThread::new("main");
        assert_eq!(h.int_array_as_vec(&t, &pinned).unwrap(), vec![9; 16]);
        assert_eq!(h.int_array_as_vec(&t, &mover).unwrap(), vec![4; 16]);
    }

    #[test]
    fn compaction_reuses_reclaimed_space_for_new_allocations() {
        let h = heap();
        let mut survivors = Vec::new();
        for _ in 0..4 {
            let _garbage = h.alloc_int_array(64).unwrap();
            survivors.push(h.alloc_int_array(4).unwrap());
        }
        let before = h.stats().bytes_in_use;
        h.compact();
        let after = h.stats().bytes_in_use;
        assert!(after < before, "dead blocks reclaimed by the pass");
        // The heap is dense: the next allocation lands right after the
        // last survivor.
        let expected = survivors.iter().map(|s| s.addr()).max().unwrap() + 32;
        let next = h.alloc_int_array(4).unwrap();
        assert_eq!(next.addr(), expected);
    }
}
