//! The simulated tagged physical memory.
//!
//! Storage is word-packed for throughput (DESIGN.md §10): data lives in
//! little-endian `AtomicU64` words accessed in 8-byte chunks, and tags
//! live 16-per-word (4 bits each, [`TAGS_PER_WORD`]), so a checked bulk
//! access compares 16 granules' tags against a broadcast pointer tag per
//! loop iteration instead of one. A scalar reference implementation with
//! byte-granular storage is kept in [`crate::reference`]; the
//! differential property suite (`tests/differential.rs`) pins the two
//! bit-equivalent.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use crate::error::MemError;
use crate::fault::{AccessKind, FaultKind, TagCheckFault};
use crate::inject::{should_fail, InjectPoint};
use crate::pointer::TaggedPtr;
use crate::stats::MteStats;
use crate::tag::{Tag, GRANULE, PAGE_SIZE, TAGS_PER_WORD};
use crate::thread::{MteThread, TcfMode};
use crate::Result;

/// Configuration for a [`TaggedMemory`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Virtual base address of the simulated region. Must be granule
    /// aligned and below 2^56.
    pub base: u64,
    /// Region size in bytes; rounded up to a whole number of pages.
    pub size: usize,
}

impl Default for MemoryConfig {
    /// 64 MiB at `0x7a00_0000_0000` — enough for every experiment in the
    /// paper's evaluation at the default scales.
    fn default() -> Self {
        MemoryConfig {
            base: 0x7a00_0000_0000,
            size: 64 << 20,
        }
    }
}

/// Bytes per data word.
const WORD: usize = 8;

/// Nibble mask covering granule nibbles `lo..=hi` of one tag word.
#[inline]
fn nibble_span_mask(lo: usize, hi: usize) -> u64 {
    debug_assert!(lo <= hi && hi < TAGS_PER_WORD);
    let n = hi - lo + 1;
    let ones = if n == TAGS_PER_WORD {
        u64::MAX
    } else {
        (1u64 << (n * 4)) - 1
    };
    ones << (lo * 4)
}

/// A flat byte-addressable memory with a 4-bit tag per 16-byte granule and
/// page-granular `PROT_MTE` tracking.
///
/// All access methods take the accessing [`MteThread`] so the simulated
/// hardware can apply that thread's check mode and `TCO` state — the
/// mechanism MTE4JNI uses to let GC threads scan tagged memory with
/// untagged pointers while native-code threads are fully checked.
///
/// Data and tag storage use relaxed atomics, so a `TaggedMemory` can be
/// shared across simulated threads exactly like physical RAM. (Racy
/// simulated programs observe racy — but memory-safe — results, as on real
/// hardware. The word packing does not widen the race surface: partial
/// stores inside a word are single read-modify-write operations, so bytes
/// outside the store are never clobbered; see DESIGN.md §10 for the
/// aliasing/ordering argument.)
pub struct TaggedMemory {
    base: u64,
    size: usize,
    /// Data bytes, packed little-endian 8 per word.
    data: Box<[AtomicU64]>,
    /// Granule tags, packed 16 per word ([`TAGS_PER_WORD`]): granule `g`
    /// occupies nibble `g % 16` of word `g / 16`.
    tags: Box<[AtomicU64]>,
    /// One byte per page; bit 0 = `PROT_MTE`.
    prot: Box<[AtomicU8]>,
    stats: MteStats,
}

fn zeroed_words(len: usize) -> Box<[AtomicU64]> {
    (0..len).map(|_| AtomicU64::new(0)).collect()
}

fn zeroed_bytes(len: usize) -> Box<[AtomicU8]> {
    (0..len).map(|_| AtomicU8::new(0)).collect()
}

/// A `Copy` view of a [`TaggedMemory`]'s planes: its base and size,
/// the data, tag and `PROT_MTE` slices, and the memory itself for the
/// cold handlers (fault reports and statistics).
///
/// The view owns the one-word checked access path (DESIGN.md §10):
/// [`TaggedMemory`]'s scalar accessors (`load_u8` … `store_u64`)
/// delegate to it, and `jni_rt::NativeMem` holds one for a whole
/// native frame, so an element loop keeps these fields in registers
/// instead of reloading them through `&TaggedMemory` after every
/// access (an access may store, and the compiler cannot prove that the
/// store leaves the memory's fields alone). The planes never move or
/// resize, so the view stays valid for as long as it borrows the
/// memory.
#[derive(Clone, Copy)]
pub struct PlaneView<'m> {
    base: u64,
    size: usize,
    data: &'m [AtomicU64],
    tags: &'m [AtomicU64],
    prot: &'m [AtomicU8],
    memory: &'m TaggedMemory,
}

impl fmt::Debug for PlaneView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlaneView")
            .field("base", &format_args!("{:#x}", self.base))
            .field("size", &self.size)
            .finish()
    }
}

/// Outlined constructor for the out-of-range error so the bounds check
/// inlines to a compare + predictable branch.
#[cold]
#[inline(never)]
fn out_of_range(addr: u64, len: usize) -> MemError {
    MemError::OutOfRange { addr, len }
}

/// Ditto for `PROT_MTE` violations on tag stores.
#[cold]
#[inline(never)]
fn not_prot_mte(addr: u64) -> MemError {
    MemError::NotProtMte { addr }
}

impl TaggedMemory {
    /// Creates a new zero-filled, untagged memory.
    ///
    /// # Panics
    ///
    /// Panics if the base address is not granule aligned or the region
    /// would extend past the 56-bit address space.
    pub fn new(config: MemoryConfig) -> Arc<TaggedMemory> {
        assert_eq!(
            config.base % GRANULE as u64,
            0,
            "base address must be granule aligned"
        );
        let size = config.size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        assert!(
            config.base.checked_add(size as u64).is_some_and(|end| end < (1 << 56)),
            "region must fit below 2^56"
        );
        // A page is 512 data words and 16 tag words, so page rounding
        // guarantees whole words.
        Arc::new(TaggedMemory {
            base: config.base,
            size,
            data: zeroed_words(size / WORD),
            tags: zeroed_words(size / GRANULE / TAGS_PER_WORD),
            prot: zeroed_bytes(size / PAGE_SIZE),
            stats: MteStats::default(),
        })
    }

    /// Virtual base address of the region.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Region size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// One past the last valid address.
    pub fn end(&self) -> u64 {
        self.base + self.size as u64
    }

    /// Whether `[addr, addr + len)` lies entirely inside the region.
    pub fn contains(&self, addr: u64, len: usize) -> bool {
        addr >= self.base && addr.checked_add(len as u64).is_some_and(|e| e <= self.end())
    }

    /// Operation counters.
    pub fn stats(&self) -> &MteStats {
        &self.stats
    }

    /// The memory's [`PlaneView`], for a caller that makes many scalar
    /// accesses in a row.
    #[inline(always)]
    pub fn view(&self) -> PlaneView<'_> {
        PlaneView {
            base: self.base,
            size: self.size,
            data: &self.data,
            tags: &self.tags,
            prot: &self.prot,
            memory: self,
        }
    }

    #[inline]
    fn offset_of(&self, addr: u64, len: usize) -> Result<usize> {
        if self.contains(addr, len) {
            Ok((addr - self.base) as usize)
        } else {
            Err(out_of_range(addr, len))
        }
    }

    #[inline]
    fn page_is_mte(&self, offset: usize) -> bool {
        self.view().page_is_mte(offset)
    }

    /// Applies or removes `PROT_MTE` over the pages covering
    /// `[addr, addr + len)`. The range is widened to page boundaries, as
    /// `mprotect(2)` requires page granularity.
    ///
    /// Removing `PROT_MTE` leaves stored tags in place but makes them
    /// inert: accesses to the page are no longer checked and `ldg` reads
    /// zero.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range leaves the region.
    pub fn mprotect_mte(&self, addr: u64, len: usize, enable: bool) -> Result<()> {
        let offset = self.offset_of(addr, len)?;
        let first = offset / PAGE_SIZE;
        let last = (offset + len.max(1) - 1) / PAGE_SIZE;
        for page in first..=last {
            if enable {
                self.prot[page].fetch_or(1, Ordering::Relaxed);
            } else {
                self.prot[page].fetch_and(!1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Whether the page containing `addr` is mapped with `PROT_MTE`.
    pub fn is_prot_mte(&self, addr: u64) -> bool {
        self.contains(addr, 1) && self.page_is_mte((addr - self.base) as usize)
    }

    // ------------------------------------------------------------------
    // Word-packed data plumbing
    // ------------------------------------------------------------------

    /// Copies `buf.len()` bytes out of the data store starting at
    /// `offset`: partial head/tail bytes come from single word loads,
    /// the aligned middle moves 8 bytes per iteration.
    fn copy_out(&self, offset: usize, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        let mut off = offset;
        let mut i = 0;
        let misalign = off % WORD;
        if misalign != 0 {
            let head = (WORD - misalign).min(buf.len());
            let bytes = self.data[off / WORD].load(Ordering::Relaxed).to_le_bytes();
            buf[..head].copy_from_slice(&bytes[misalign..misalign + head]);
            off += head;
            i = head;
        }
        let mid_words = (buf.len() - i) / WORD;
        let start = off / WORD;
        for (w, chunk) in self.data[start..start + mid_words]
            .iter()
            .zip(buf[i..].chunks_exact_mut(WORD))
        {
            chunk.copy_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
        }
        off += mid_words * WORD;
        i += mid_words * WORD;
        if i < buf.len() {
            let rem = buf.len() - i;
            let bytes = self.data[off / WORD].load(Ordering::Relaxed).to_le_bytes();
            buf[i..].copy_from_slice(&bytes[..rem]);
        }
    }

    /// Merges `bytes` into word `word_idx` starting at byte `byte_off`,
    /// leaving the other lanes untouched.
    #[inline]
    fn store_partial(&self, word_idx: usize, byte_off: usize, bytes: &[u8]) {
        debug_assert!(byte_off + bytes.len() <= WORD);
        let mut value = 0u64;
        for (i, &b) in bytes.iter().enumerate() {
            value |= u64::from(b) << (i * 8);
        }
        self.view().store_lanes(word_idx, byte_off, bytes.len(), value);
    }

    /// Copies `buf` into the data store starting at `offset`: full words
    /// are plain stores, partial head/tail words are masked RMWs.
    fn copy_in(&self, offset: usize, buf: &[u8]) {
        if buf.is_empty() {
            return;
        }
        let mut off = offset;
        let mut i = 0;
        let misalign = off % WORD;
        if misalign != 0 {
            let head = (WORD - misalign).min(buf.len());
            self.store_partial(off / WORD, misalign, &buf[..head]);
            off += head;
            i = head;
        }
        let mid_words = (buf.len() - i) / WORD;
        let start = off / WORD;
        for (w, chunk) in self.data[start..start + mid_words]
            .iter()
            .zip(buf[i..].chunks_exact(WORD))
        {
            w.store(
                u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")),
                Ordering::Relaxed,
            );
        }
        off += mid_words * WORD;
        i += mid_words * WORD;
        if i < buf.len() {
            self.store_partial(off / WORD, 0, &buf[i..]);
        }
    }

    /// Fills `len` bytes at `offset` with `value`, word-at-a-time.
    fn fill_words(&self, offset: usize, len: usize, value: u8) {
        if len == 0 {
            return;
        }
        let splat = u64::from(value) * 0x0101_0101_0101_0101;
        let bytes = [value; WORD];
        let mut off = offset;
        let mut remaining = len;
        let misalign = off % WORD;
        if misalign != 0 {
            let head = (WORD - misalign).min(remaining);
            self.store_partial(off / WORD, misalign, &bytes[..head]);
            off += head;
            remaining -= head;
        }
        let mid_words = remaining / WORD;
        let start = off / WORD;
        for w in &self.data[start..start + mid_words] {
            w.store(splat, Ordering::Relaxed);
        }
        off += mid_words * WORD;
        remaining -= mid_words * WORD;
        if remaining > 0 {
            self.store_partial(off / WORD, 0, &bytes[..remaining]);
        }
    }

    /// The stored tag nibble of granule `g`.
    #[inline]
    fn tag_nibble(&self, g: usize) -> Tag {
        let word = self.tags[g / TAGS_PER_WORD].load(Ordering::Relaxed);
        Tag::from_low_bits((word >> ((g % TAGS_PER_WORD) * 4)) as u8)
    }

    /// Stores `tag` into granule `g`'s nibble, leaving siblings intact.
    #[inline]
    fn set_tag_nibble(&self, g: usize, tag: Tag) {
        let shift = (g % TAGS_PER_WORD) * 4;
        let mask = 0xFu64 << shift;
        let value = u64::from(tag.value()) << shift;
        let _ = self.tags[g / TAGS_PER_WORD]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| {
                Some((w & !mask) | value)
            });
    }

    /// Broadcast-stores `tag` into granules `first..=last`, whole words
    /// where possible.
    fn set_tag_span(&self, first: usize, last: usize, tag: Tag) {
        let splat = tag.broadcast64();
        let first_word = first / TAGS_PER_WORD;
        let last_word = last / TAGS_PER_WORD;
        for w in first_word..=last_word {
            let lo = if w == first_word { first % TAGS_PER_WORD } else { 0 };
            let hi = if w == last_word {
                last % TAGS_PER_WORD
            } else {
                TAGS_PER_WORD - 1
            };
            if lo == 0 && hi == TAGS_PER_WORD - 1 {
                self.tags[w].store(splat, Ordering::Relaxed);
            } else {
                let mask = nibble_span_mask(lo, hi);
                let _ = self.tags[w]
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |word| {
                        Some((word & !mask) | (splat & mask))
                    });
            }
        }
    }

    // ------------------------------------------------------------------
    // Tag checking
    // ------------------------------------------------------------------

    /// Performs the hardware tag check for an access of `len` bytes at
    /// `ptr` by thread `t`. Called on every bulk access and every scalar
    /// access that straddles a data word (one-word scalar accesses use
    /// [`PlaneView::check_word_access`]); a no-op when the thread's checks are
    /// disabled or the page lacks `PROT_MTE`.
    ///
    /// The `PROT_MTE` bit is read once per *page* spanned by the access
    /// (not once per granule), and granule tags are compared 16 at a
    /// time: the packed tag word XOR the broadcast pointer tag is zero
    /// in every matching nibble, so one word compare clears 256 bytes.
    #[inline]
    fn check_access(
        &self,
        t: &MteThread,
        ptr: TaggedPtr,
        offset: usize,
        len: usize,
        access: AccessKind,
    ) -> Result<()> {
        if !t.checks_enabled() {
            return Ok(());
        }
        if should_fail(InjectPoint::Check) {
            self.spurious_fault(t, ptr, offset, access)?;
        }
        let first = offset / GRANULE;
        let last = (offset + len.max(1) - 1) / GRANULE;
        let mut g = first;
        while g <= last {
            let page = g * GRANULE / PAGE_SIZE;
            let page_last = (page + 1) * PAGE_SIZE / GRANULE - 1;
            let segment_last = page_last.min(last);
            if self.prot[page].load(Ordering::Relaxed) & 1 != 0 {
                self.check_granule_span(t, ptr, g, segment_last, offset, access)?;
            }
            g = segment_last + 1;
        }
        Ok(())
    }

    /// Word-wide tag compare over granules `first..=last` (all on one
    /// `PROT_MTE` page). The fast path is one load + XOR + mask per 16
    /// granules; mismatches drop to the cold handler.
    #[inline]
    fn check_granule_span(
        &self,
        t: &MteThread,
        ptr: TaggedPtr,
        first: usize,
        last: usize,
        offset: usize,
        access: AccessKind,
    ) -> Result<()> {
        let broadcast = ptr.tag().broadcast64();
        let first_word = first / TAGS_PER_WORD;
        let last_word = last / TAGS_PER_WORD;
        for w in first_word..=last_word {
            let lo = if w == first_word { first % TAGS_PER_WORD } else { 0 };
            let hi = if w == last_word {
                last % TAGS_PER_WORD
            } else {
                TAGS_PER_WORD - 1
            };
            let word = self.tags[w].load(Ordering::Relaxed);
            let diff = (word ^ broadcast) & nibble_span_mask(lo, hi);
            if diff != 0 {
                self.tag_mismatch(t, ptr, word, w, lo, hi, offset, access)?;
            }
        }
        Ok(())
    }

    /// Cold path: at least one granule in `word` mismatched. Resolves
    /// the thread's fault mode per granule in address order, exactly as
    /// the scalar kernel did: a sync fault aborts at the first mismatch,
    /// async faults latch per mismatching granule and continue.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn tag_mismatch(
        &self,
        t: &MteThread,
        ptr: TaggedPtr,
        word: u64,
        word_idx: usize,
        lo: usize,
        hi: usize,
        offset: usize,
        access: AccessKind,
    ) -> Result<()> {
        let ptag = ptr.tag();
        let mode = t.mode();
        for nibble in lo..=hi {
            let mtag = Tag::from_low_bits((word >> (nibble * 4)) as u8);
            if mtag == ptag {
                continue;
            }
            let g = word_idx * TAGS_PER_WORD + nibble;
            match mode {
                TcfMode::Sync => {
                    self.stats.count_sync_fault();
                    let fault_addr = self.base + (g * GRANULE).max(offset) as u64;
                    return Err(MemError::TagCheck(Box::new(TagCheckFault {
                        kind: FaultKind::Sync,
                        pointer: TaggedPtr::from_addr(fault_addr).with_tag(ptag),
                        pointer_tag: ptag,
                        memory_tag: mtag,
                        access,
                        thread: t.name_arc(),
                        backtrace: t.backtrace(),
                        attribution: None,
                    })));
                }
                TcfMode::Async => {
                    self.stats.count_async_fault();
                    t.latch_async_fault(ptr, mtag, access);
                    // Execution continues: async mode only logs.
                }
                TcfMode::None => unreachable!("checks_enabled() gates None out"),
            }
        }
        Ok(())
    }

    /// Injected spurious tag-check fault: "a checked access faults
    /// despite matching tags". Raised through the same machinery as a
    /// real mismatch — the thread's TCF mode decides between
    /// a synchronous error and an async latch, and the same stats fire —
    /// so downstream containment cannot tell it from
    /// a genuine fault. The reported memory tag equals the pointer tag,
    /// which is the one signature that marks it as spurious in reports.
    #[cold]
    #[inline(never)]
    fn spurious_fault(
        &self,
        t: &MteThread,
        ptr: TaggedPtr,
        offset: usize,
        access: AccessKind,
    ) -> Result<()> {
        let ptag = ptr.tag();
        match t.mode() {
            TcfMode::Sync => {
                self.stats.count_sync_fault();
                Err(MemError::TagCheck(Box::new(TagCheckFault {
                    kind: FaultKind::Sync,
                    pointer: TaggedPtr::from_addr(self.base + offset as u64).with_tag(ptag),
                    pointer_tag: ptag,
                    memory_tag: ptag,
                    access,
                    thread: t.name_arc(),
                    backtrace: t.backtrace(),
                    attribution: None,
                })))
            }
            TcfMode::Async => {
                self.stats.count_async_fault();
                t.latch_async_fault(ptr, ptag, access);
                Ok(())
            }
            // `checks_enabled()` gated `None` out before injection.
            TcfMode::None => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Data access (checked)
    // ------------------------------------------------------------------

    /// Loads one byte.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] outside the region;
    /// [`MemError::TagCheck`] on a synchronous tag mismatch.
    #[inline]
    pub fn load_u8(&self, t: &MteThread, ptr: TaggedPtr) -> Result<u8> {
        self.load_le(t, ptr, 1).map(|v| v as u8)
    }

    /// Stores one byte.
    ///
    /// # Errors
    ///
    /// See [`Self::load_u8`].
    #[inline]
    pub fn store_u8(&self, t: &MteThread, ptr: TaggedPtr, value: u8) -> Result<()> {
        self.store_le(t, ptr, 1, u64::from(value))
    }

    /// Scalar load of `len` (1..=8) bytes: the [`PlaneView`]'s one-word
    /// path, injection draw included.
    #[inline(always)]
    fn load_le(&self, t: &MteThread, ptr: TaggedPtr, len: usize) -> Result<u64> {
        self.view().load_le::<true>(t, ptr, len)
    }

    /// Scalar store of the low `len` (1..=8) bytes of `value`; see
    /// [`Self::load_le`].
    #[inline(always)]
    fn store_le(&self, t: &MteThread, ptr: TaggedPtr, len: usize, value: u64) -> Result<()> {
        self.view().store_le::<true>(t, ptr, len, value)
    }

    /// The tail of a scalar load that straddles two data words: the span
    /// check and a byte copy. Out of line, so the one-word path that
    /// inlines into element loops stays small. The error is boxed so the
    /// result comes back in registers: a caller that inlines the
    /// one-word path then keeps its own result in registers too, where a
    /// `Result<u64, MemError>` returned through memory pinned it to the
    /// stack, one store and reload per access.
    #[inline(never)]
    fn load_straddle(
        &self,
        t: &MteThread,
        ptr: TaggedPtr,
        offset: usize,
        len: usize,
    ) -> std::result::Result<u64, Box<MemError>> {
        self.check_access(t, ptr, offset, len, AccessKind::Read)?;
        let mut bytes = [0u8; WORD];
        self.copy_out(offset, &mut bytes[..len]);
        Ok(u64::from_le_bytes(bytes))
    }

    /// The store counterpart of [`Self::load_straddle`].
    #[inline(never)]
    fn store_straddle(
        &self,
        t: &MteThread,
        ptr: TaggedPtr,
        offset: usize,
        len: usize,
        value: u64,
    ) -> std::result::Result<(), Box<MemError>> {
        self.check_access(t, ptr, offset, len, AccessKind::Write)?;
        self.copy_in(offset, &value.to_le_bytes()[..len]);
        Ok(())
    }

    /// Loads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// See [`Self::load_u8`].
    #[inline]
    pub fn load_u16(&self, t: &MteThread, ptr: TaggedPtr) -> Result<u16> {
        self.load_le(t, ptr, 2).map(|v| v as u16)
    }

    /// Stores a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// See [`Self::load_u8`].
    #[inline]
    pub fn store_u16(&self, t: &MteThread, ptr: TaggedPtr, value: u16) -> Result<()> {
        self.store_le(t, ptr, 2, u64::from(value))
    }

    /// Loads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// See [`Self::load_u8`].
    #[inline]
    pub fn load_u32(&self, t: &MteThread, ptr: TaggedPtr) -> Result<u32> {
        self.load_le(t, ptr, 4).map(|v| v as u32)
    }

    /// Stores a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// See [`Self::load_u8`].
    #[inline]
    pub fn store_u32(&self, t: &MteThread, ptr: TaggedPtr, value: u32) -> Result<()> {
        self.store_le(t, ptr, 4, u64::from(value))
    }

    /// Loads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`Self::load_u8`].
    #[inline]
    pub fn load_u64(&self, t: &MteThread, ptr: TaggedPtr) -> Result<u64> {
        self.load_le(t, ptr, 8)
    }

    /// Stores a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`Self::load_u8`].
    #[inline]
    pub fn store_u64(&self, t: &MteThread, ptr: TaggedPtr, value: u64) -> Result<()> {
        self.store_le(t, ptr, 8, value)
    }

    /// Reads `buf.len()` bytes starting at `ptr`, tag-checking every
    /// granule touched.
    ///
    /// # Errors
    ///
    /// See [`Self::load_u8`].
    pub fn read_bytes(&self, t: &MteThread, ptr: TaggedPtr, buf: &mut [u8]) -> Result<()> {
        let offset = self.offset_of(ptr.addr(), buf.len())?;
        self.check_access(t, ptr, offset, buf.len(), AccessKind::Read)?;
        self.stats.count_load();
        self.copy_out(offset, buf);
        Ok(())
    }

    /// Writes `buf` starting at `ptr`, tag-checking every granule touched.
    ///
    /// # Errors
    ///
    /// See [`Self::load_u8`].
    pub fn write_bytes(&self, t: &MteThread, ptr: TaggedPtr, buf: &[u8]) -> Result<()> {
        let offset = self.offset_of(ptr.addr(), buf.len())?;
        self.check_access(t, ptr, offset, buf.len(), AccessKind::Write)?;
        self.stats.count_store();
        self.copy_in(offset, buf);
        Ok(())
    }

    /// Fills `len` bytes starting at `ptr` with `value`, tag-checked.
    ///
    /// # Errors
    ///
    /// See [`Self::load_u8`].
    pub fn fill(&self, t: &MteThread, ptr: TaggedPtr, len: usize, value: u8) -> Result<()> {
        let offset = self.offset_of(ptr.addr(), len)?;
        self.check_access(t, ptr, offset, len, AccessKind::Write)?;
        self.stats.count_store();
        self.fill_words(offset, len, value);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data access (unchecked — runtime-internal, equivalent to TCO set)
    // ------------------------------------------------------------------

    /// Reads bytes without any tag check — how runtime-internal code (the
    /// allocator, the GC with `TCO` set) touches memory.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] outside the region.
    pub fn read_bytes_unchecked(&self, ptr: TaggedPtr, buf: &mut [u8]) -> Result<()> {
        let offset = self.offset_of(ptr.addr(), buf.len())?;
        self.stats.count_load();
        self.copy_out(offset, buf);
        Ok(())
    }

    /// Writes bytes without any tag check.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] outside the region.
    pub fn write_bytes_unchecked(&self, ptr: TaggedPtr, buf: &[u8]) -> Result<()> {
        let offset = self.offset_of(ptr.addr(), buf.len())?;
        self.stats.count_store();
        self.copy_in(offset, buf);
        Ok(())
    }

    /// Fills bytes without any tag check.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] outside the region.
    pub fn fill_unchecked(&self, ptr: TaggedPtr, len: usize, value: u8) -> Result<()> {
        let offset = self.offset_of(ptr.addr(), len)?;
        self.stats.count_store();
        self.fill_words(offset, len, value);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Tag instructions
    // ------------------------------------------------------------------

    /// The `irg` instruction with operation counting; delegates to the
    /// thread's random source.
    pub fn irg(&self, t: &MteThread) -> Tag {
        self.stats.count_irg();
        if should_fail(InjectPoint::Irg) {
            // Tag-pool exhaustion: the generator falls back to the zero
            // tag it otherwise never draws.
            return Tag::UNTAGGED;
        }
        t.irg()
    }

    /// The `ldg` instruction: loads the memory tag of the granule
    /// containing `ptr`. Reads zero from pages without `PROT_MTE`, as on
    /// Linux.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] outside the region.
    pub fn ldg(&self, ptr: TaggedPtr) -> Result<Tag> {
        let offset = self.offset_of(ptr.granule_base(), GRANULE)?;
        if should_fail(InjectPoint::Ldg) {
            return Err(MemError::Injected { point: "ldg" });
        }
        self.stats.count_ldg();
        if !self.page_is_mte(offset) {
            return Ok(Tag::UNTAGGED);
        }
        Ok(self.tag_nibble(offset / GRANULE))
    }

    /// The `stg` instruction: stores `tag` on the granule containing `ptr`.
    ///
    /// # Errors
    ///
    /// [`MemError::NotProtMte`] if the page is not mapped with `PROT_MTE`;
    /// [`MemError::OutOfRange`] outside the region.
    pub fn stg(&self, ptr: TaggedPtr, tag: Tag) -> Result<()> {
        let offset = self.offset_of(ptr.granule_base(), GRANULE)?;
        if !self.page_is_mte(offset) {
            return Err(not_prot_mte(ptr.addr()));
        }
        if should_fail(InjectPoint::Stg) {
            return Err(MemError::Injected { point: "stg" });
        }
        self.stats.count_stg(1);
        self.set_tag_nibble(offset / GRANULE, tag);
        Ok(())
    }

    /// The `st2g` instruction: tags the granule containing `ptr` and the
    /// next one.
    ///
    /// One bounds check, one `PROT_MTE` validation pass, and one stats
    /// update cover both granules; if either granule is
    /// unmappable neither is tagged.
    ///
    /// # Errors
    ///
    /// See [`Self::stg`].
    pub fn st2g(&self, ptr: TaggedPtr, tag: Tag) -> Result<()> {
        let offset = self.offset_of(ptr.granule_base(), 2 * GRANULE)?;
        if !self.page_is_mte(offset) {
            return Err(not_prot_mte(ptr.addr()));
        }
        if !self.page_is_mte(offset + GRANULE) {
            return Err(not_prot_mte(self.base + (offset + GRANULE) as u64));
        }
        if should_fail(InjectPoint::Stg) {
            return Err(MemError::Injected { point: "stg" });
        }
        self.stats.count_stg(2);
        let g = offset / GRANULE;
        self.set_tag_span(g, g + 1, tag);
        Ok(())
    }

    /// The `stzg` instruction: tags the granule and zeroes its data.
    ///
    /// The granule offset is computed once and shared by the tag store
    /// and the data zeroing (two aligned word stores).
    ///
    /// # Errors
    ///
    /// See [`Self::stg`].
    pub fn stzg(&self, ptr: TaggedPtr, tag: Tag) -> Result<()> {
        let offset = self.offset_of(ptr.granule_base(), GRANULE)?;
        if !self.page_is_mte(offset) {
            return Err(not_prot_mte(ptr.addr()));
        }
        if should_fail(InjectPoint::Stg) {
            return Err(MemError::Injected { point: "stg" });
        }
        self.stats.count_stg(1);
        self.set_tag_nibble(offset / GRANULE, tag);
        // A granule is 16-byte aligned, so its data is exactly two words.
        self.data[offset / WORD].store(0, Ordering::Relaxed);
        self.data[offset / WORD + 1].store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Tags every granule covering `[begin, end)` with `tag` — the loop
    /// Algorithm 1 describes ("apply new tags to memory from begin to end
    /// using st2g and stg instructions"), implemented as broadcast word
    /// stores 16 granules at a time.
    ///
    /// `PROT_MTE` is validated over the *whole* range before any granule
    /// is retagged, so a failed call leaves the tag map untouched.
    ///
    /// # Errors
    ///
    /// See [`Self::stg`].
    pub fn set_tag_range(&self, begin: TaggedPtr, end: u64, tag: Tag) -> Result<()> {
        let start = begin.granule_base();
        if start >= end {
            return Ok(());
        }
        let len = (end - start) as usize;
        let offset = self.offset_of(start, len)?;
        if should_fail(InjectPoint::Stg) {
            return Err(MemError::Injected { point: "stg" });
        }
        let first = offset / GRANULE;
        let last = (offset + len - 1) / GRANULE;
        // Validate every page up front: no partial tagging on failure.
        let first_page = first * GRANULE / PAGE_SIZE;
        let last_page = last * GRANULE / PAGE_SIZE;
        for page in first_page..=last_page {
            if self.prot[page].load(Ordering::Relaxed) & 1 == 0 {
                // Report the first granule of the range on the bad page,
                // as the scalar loop did.
                let g = first.max(page * PAGE_SIZE / GRANULE);
                return Err(not_prot_mte(self.base + (g * GRANULE) as u64));
            }
        }
        self.set_tag_span(first, last, tag);
        self.stats.count_stg((last - first + 1) as u64);
        Ok(())
    }

    /// Renders the tag map of `[addr, addr + len)` as hex digits, one per
    /// granule, 64 granules per line, with `.` for untagged granules —
    /// a debugging view of who tagged what.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] outside the region.
    pub fn tag_map(&self, addr: u64, len: usize) -> Result<String> {
        let start = addr & !(GRANULE as u64 - 1);
        let offset = self.offset_of(start, len.max(1))?;
        let granules = (len.max(1)).div_ceil(GRANULE);
        let mut out = String::with_capacity(granules + granules / 64 + 16);
        for (i, g) in (offset / GRANULE..offset / GRANULE + granules).enumerate() {
            if i > 0 && i % 64 == 0 {
                out.push('\n');
            }
            let tag = self.tag_nibble(g);
            if tag.is_untagged() {
                out.push('.');
            } else {
                out.push(char::from_digit(u32::from(tag.value()), 16).expect("tag < 16"));
            }
        }
        Ok(out)
    }

    /// Reads the stored memory tag at `addr` without counting as an `ldg`
    /// (test/debug helper; ignores `PROT_MTE`).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] outside the region.
    pub fn raw_tag_at(&self, addr: u64) -> Result<Tag> {
        let offset = self.offset_of(addr & !(GRANULE as u64 - 1), GRANULE)?;
        Ok(self.tag_nibble(offset / GRANULE))
    }
}

impl<'m> PlaneView<'m> {
    /// The memory this view is of, for its bulk and tag operations.
    #[inline(always)]
    pub fn memory(&self) -> &'m TaggedMemory {
        self.memory
    }

    /// Whether the page holding region offset `offset` has `PROT_MTE`.
    #[inline(always)]
    fn page_is_mte(&self, offset: usize) -> bool {
        self.prot[offset / PAGE_SIZE].load(Ordering::Relaxed) & 1 != 0
    }

    /// Region offset of a scalar access of `len <= 8` bytes: one
    /// compare, since an address below the base wraps to a huge offset.
    #[inline(always)]
    fn scalar_offset(&self, addr: u64, len: usize) -> Result<usize> {
        debug_assert!((1..=WORD).contains(&len));
        let offset = addr.wrapping_sub(self.base);
        if offset <= (self.size - len) as u64 {
            Ok(offset as usize)
        } else {
            Err(out_of_range(addr, len))
        }
    }

    /// The tag check for an access that stays inside one data word, and
    /// so inside one granule and one page (DESIGN.md §10): one
    /// `PROT_MTE` byte load and one nibble compare. Injection and
    /// mismatch handling are exactly [`TaggedMemory::check_access`]'s;
    /// `HOOKS = false` leaves out the injection draw, for a caller that
    /// saw the [`telemetry::hooks`] word at zero (so no thread, this one
    /// included, is armed).
    #[inline(always)]
    fn check_word_access<const HOOKS: bool>(
        &self,
        t: &MteThread,
        ptr: TaggedPtr,
        offset: usize,
        access: AccessKind,
    ) -> Result<()> {
        if !t.checks_enabled() {
            return Ok(());
        }
        if HOOKS && should_fail(InjectPoint::Check) {
            self.memory.spurious_fault(t, ptr, offset, access)?;
        }
        if !self.page_is_mte(offset) {
            return Ok(());
        }
        let g = offset / GRANULE;
        let (word_idx, nibble) = (g / TAGS_PER_WORD, g % TAGS_PER_WORD);
        let word = self.tags[word_idx].load(Ordering::Relaxed);
        if (word >> (nibble * 4)) & 0xF != u64::from(ptr.tag().value()) {
            let memory = self.memory;
            memory.tag_mismatch(t, ptr, word, word_idx, nibble, nibble, offset, access)?;
        }
        Ok(())
    }

    /// Stores the low `len` bytes of `value` into word `word_idx` at byte
    /// lane `lane`: a plain store for a whole word, otherwise one atomic
    /// read-modify-write, so concurrent writers to sibling bytes of the
    /// same word cannot be clobbered.
    #[inline(always)]
    fn store_lanes(&self, word_idx: usize, lane: usize, len: usize, value: u64) {
        debug_assert!(len > 0 && lane + len <= WORD);
        let word = &self.data[word_idx];
        if len == WORD {
            word.store(value, Ordering::Relaxed);
            return;
        }
        let mask = ((1u64 << (len * 8)) - 1) << (lane * 8);
        let bits = (value << (lane * 8)) & mask;
        // The closure always returns Some, so this cannot fail.
        let _ = word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| {
            Some((w & !mask) | bits)
        });
    }

    /// Scalar load of `len` (1..=8) bytes by thread `t`. An access inside
    /// one data word takes one granule check and one word load; only a
    /// word-straddling access pays for the span check and byte copy, in
    /// the out-of-line `TaggedMemory::load_straddle`. `HOOKS = false`
    /// leaves out the injection draw: pass `true` unless the
    /// [`telemetry::hooks`] word was just seen at zero.
    ///
    /// This, [`Self::store_le`], `check_word_access` and
    /// `store_lanes` are always inlined, so a caller's element
    /// loop holds the whole one-word path and calls only the cold
    /// handlers: with plain `#[inline]`, a dependent crate built without
    /// LTO kept them out of line (DESIGN.md §10).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] outside the region;
    /// [`MemError::TagCheck`] on a synchronous tag mismatch.
    #[inline(always)]
    pub fn load_le<const HOOKS: bool>(
        &self,
        t: &MteThread,
        ptr: TaggedPtr,
        len: usize,
    ) -> Result<u64> {
        let offset = self.scalar_offset(ptr.addr(), len)?;
        let lane = offset % WORD;
        if lane + len > WORD {
            return self.memory.load_straddle(t, ptr, offset, len).map_err(|e| *e);
        }
        self.check_word_access::<HOOKS>(t, ptr, offset, AccessKind::Read)?;
        let word = self.data[offset / WORD].load(Ordering::Relaxed) >> (lane * 8);
        Ok(if len == WORD {
            word
        } else {
            word & ((1u64 << (len * 8)) - 1)
        })
    }

    /// Scalar store of the low `len` (1..=8) bytes of `value`; the
    /// one-word case is a plain store or a single masked RMW. See
    /// [`Self::load_le`].
    ///
    /// # Errors
    ///
    /// See [`Self::load_le`].
    #[inline(always)]
    pub fn store_le<const HOOKS: bool>(
        &self,
        t: &MteThread,
        ptr: TaggedPtr,
        len: usize,
        value: u64,
    ) -> Result<()> {
        let offset = self.scalar_offset(ptr.addr(), len)?;
        let lane = offset % WORD;
        if lane + len > WORD {
            return self.memory.store_straddle(t, ptr, offset, len, value).map_err(|e| *e);
        }
        self.check_word_access::<HOOKS>(t, ptr, offset, AccessKind::Write)?;
        self.store_lanes(offset / WORD, lane, len, value);
        Ok(())
    }
}

impl fmt::Debug for TaggedMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaggedMemory")
            .field("base", &format_args!("{:#x}", self.base))
            .field("size", &self.size)
            .finish()
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Arc<TaggedMemory> {
        TaggedMemory::new(MemoryConfig {
            base: 0x7a00_0000_0000,
            size: 1 << 20,
        })
    }

    fn checked_thread(mode: TcfMode) -> MteThread {
        let t = MteThread::with_seed("test", 99);
        t.set_mode(mode);
        t.set_tco(false);
        t
    }

    #[test]
    fn size_rounds_up_to_pages() {
        let m = TaggedMemory::new(MemoryConfig {
            base: 0x1000,
            size: 100,
        });
        assert_eq!(m.size(), PAGE_SIZE);
    }

    #[test]
    #[should_panic(expected = "granule aligned")]
    fn unaligned_base_panics() {
        let _ = TaggedMemory::new(MemoryConfig { base: 0x8, size: 4096 });
    }

    #[test]
    fn round_trip_all_widths() {
        let m = mem();
        let t = MteThread::new("t");
        let p = TaggedPtr::from_addr(m.base() + 0x100);
        m.store_u8(&t, p, 0xAB).unwrap();
        assert_eq!(m.load_u8(&t, p).unwrap(), 0xAB);
        m.store_u16(&t, p, 0xBEEF).unwrap();
        assert_eq!(m.load_u16(&t, p).unwrap(), 0xBEEF);
        m.store_u32(&t, p, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.load_u32(&t, p).unwrap(), 0xDEAD_BEEF);
        m.store_u64(&t, p, 0x0123_4567_89AB_CDEF).unwrap();
        assert_eq!(m.load_u64(&t, p).unwrap(), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn multibyte_values_are_little_endian() {
        let m = mem();
        let t = MteThread::new("t");
        let p = TaggedPtr::from_addr(m.base());
        m.store_u32(&t, p, 0x0102_0304).unwrap();
        assert_eq!(m.load_u8(&t, p).unwrap(), 0x04);
        assert_eq!(m.load_u8(&t, p.wrapping_add(3)).unwrap(), 0x01);
    }

    #[test]
    fn out_of_range_access_errors() {
        let m = mem();
        let t = MteThread::new("t");
        let below = TaggedPtr::from_addr(m.base() - 1);
        let beyond = TaggedPtr::from_addr(m.end());
        let straddle = TaggedPtr::from_addr(m.end() - 2);
        assert!(matches!(m.load_u8(&t, below), Err(MemError::OutOfRange { .. })));
        assert!(matches!(m.load_u8(&t, beyond), Err(MemError::OutOfRange { .. })));
        assert!(matches!(m.load_u32(&t, straddle), Err(MemError::OutOfRange { .. })));
        assert!(m.load_u16(&t, straddle).is_ok());
    }

    #[test]
    fn stg_requires_prot_mte() {
        let m = mem();
        let p = TaggedPtr::from_addr(m.base());
        assert!(matches!(m.stg(p, Tag::new(3).unwrap()), Err(MemError::NotProtMte { .. })));
        m.mprotect_mte(m.base(), PAGE_SIZE, true).unwrap();
        m.stg(p, Tag::new(3).unwrap()).unwrap();
        assert_eq!(m.ldg(p).unwrap().value(), 3);
    }

    #[test]
    fn ldg_reads_zero_without_prot_mte() {
        let m = mem();
        let p = TaggedPtr::from_addr(m.base());
        m.mprotect_mte(m.base(), PAGE_SIZE, true).unwrap();
        m.stg(p, Tag::new(5).unwrap()).unwrap();
        m.mprotect_mte(m.base(), PAGE_SIZE, false).unwrap();
        assert_eq!(m.ldg(p).unwrap(), Tag::UNTAGGED, "prot removed hides tags");
        assert_eq!(m.raw_tag_at(m.base()).unwrap().value(), 5, "raw storage keeps them");
    }

    #[test]
    fn granule_shares_one_tag() {
        let m = mem();
        m.mprotect_mte(m.base(), PAGE_SIZE, true).unwrap();
        let p = TaggedPtr::from_addr(m.base() + 0x20);
        m.stg(p, Tag::new(7).unwrap()).unwrap();
        for off in 0..GRANULE as u64 {
            assert_eq!(m.ldg(p.wrapping_add(off)).unwrap().value(), 7);
        }
        assert_eq!(m.ldg(p.wrapping_add(GRANULE as u64)).unwrap(), Tag::UNTAGGED);
    }

    #[test]
    fn st2g_tags_two_granules() {
        let m = mem();
        m.mprotect_mte(m.base(), PAGE_SIZE, true).unwrap();
        let p = TaggedPtr::from_addr(m.base() + 0x40);
        m.st2g(p, Tag::new(9).unwrap()).unwrap();
        assert_eq!(m.ldg(p).unwrap().value(), 9);
        assert_eq!(m.ldg(p.wrapping_add(16)).unwrap().value(), 9);
        assert_eq!(m.ldg(p.wrapping_add(32)).unwrap(), Tag::UNTAGGED);
    }

    #[test]
    fn stzg_zeroes_data() {
        let m = mem();
        let t = MteThread::new("t");
        m.mprotect_mte(m.base(), PAGE_SIZE, true).unwrap();
        let p = TaggedPtr::from_addr(m.base());
        m.store_u64(&t, p, u64::MAX).unwrap();
        m.stzg(p, Tag::new(2).unwrap()).unwrap();
        assert_eq!(m.load_u64(&t, p.with_tag(Tag::new(2).unwrap())).unwrap(), 0);
    }

    #[test]
    fn set_tag_range_covers_odd_granule_counts() {
        let m = mem();
        m.mprotect_mte(m.base(), PAGE_SIZE, true).unwrap();
        let tag = Tag::new(0xC).unwrap();
        for granules in 1..=5u64 {
            let begin = TaggedPtr::from_addr(m.base() + 0x200 * granules);
            let end = begin.addr() + granules * GRANULE as u64;
            m.set_tag_range(begin, end, tag).unwrap();
            for g in 0..granules {
                assert_eq!(m.ldg(begin.wrapping_add(g * 16)).unwrap(), tag);
            }
            assert_eq!(m.ldg(begin.wrapping_add(granules * 16)).unwrap(), Tag::UNTAGGED);
        }
    }

    #[test]
    fn sync_check_faults_on_mismatch() {
        let m = mem();
        let t = checked_thread(TcfMode::Sync);
        m.mprotect_mte(m.base(), PAGE_SIZE, true).unwrap();
        let tag = Tag::new(4).unwrap();
        let p = TaggedPtr::from_addr(m.base()).with_tag(tag);
        m.stg(p, tag).unwrap();

        assert!(m.load_u32(&t, p).is_ok(), "matching tags pass");
        let oob = p.wrapping_add(GRANULE as u64);
        let err = m.load_u32(&t, oob).unwrap_err();
        let fault = err.as_tag_check().expect("tag check fault");
        assert_eq!(fault.kind, FaultKind::Sync);
        assert_eq!(fault.pointer_tag, tag);
        assert_eq!(fault.memory_tag, Tag::UNTAGGED);
        assert_eq!(fault.access, AccessKind::Read);
    }

    #[test]
    fn async_check_latches_and_continues() {
        let m = mem();
        let t = checked_thread(TcfMode::Async);
        m.mprotect_mte(m.base(), PAGE_SIZE, true).unwrap();
        let tag = Tag::new(4).unwrap();
        let p = TaggedPtr::from_addr(m.base()).with_tag(tag);
        m.stg(p, tag).unwrap();

        let oob = p.wrapping_add(GRANULE as u64);
        // Write proceeds despite the mismatch...
        m.store_u32(&t, oob, 1234).unwrap();
        assert_eq!(m.load_u32(&MteThread::new("x"), oob.untagged()).unwrap(), 1234);
        // ...and the fault surfaces at the next syscall.
        let fault = t.syscall("getuid").unwrap_err();
        assert_eq!(fault.kind, FaultKind::Async);
        assert_eq!(fault.access, AccessKind::Write);
    }

    #[test]
    fn tco_suppresses_checks() {
        let m = mem();
        let t = checked_thread(TcfMode::Sync);
        m.mprotect_mte(m.base(), PAGE_SIZE, true).unwrap();
        m.stg(TaggedPtr::from_addr(m.base()), Tag::new(8).unwrap()).unwrap();
        let untagged = TaggedPtr::from_addr(m.base());

        assert!(m.load_u8(&t, untagged).is_err(), "mismatch faults with TCO clear");
        t.set_tco(true);
        assert!(m.load_u8(&t, untagged).is_ok(), "TCO set suppresses the check");
    }

    #[test]
    fn untagged_pointer_to_untagged_memory_passes() {
        let m = mem();
        let t = checked_thread(TcfMode::Sync);
        m.mprotect_mte(m.base(), PAGE_SIZE, true).unwrap();
        let p = TaggedPtr::from_addr(m.base() + 0x80);
        assert!(m.store_u32(&t, p, 7).is_ok(), "tag 0 matches tag 0");
    }

    #[test]
    fn checks_skip_non_prot_mte_pages() {
        let m = mem();
        let t = checked_thread(TcfMode::Sync);
        // Page has tags disabled: even a tagged pointer passes.
        let p = TaggedPtr::from_addr(m.base()).with_tag(Tag::new(0xE).unwrap());
        assert!(m.load_u32(&t, p).is_ok());
    }

    #[test]
    fn cross_granule_access_checks_both_granules() {
        let m = mem();
        let t = checked_thread(TcfMode::Sync);
        m.mprotect_mte(m.base(), PAGE_SIZE, true).unwrap();
        let tag = Tag::new(6).unwrap();
        let first = TaggedPtr::from_addr(m.base());
        m.stg(first, tag).unwrap();
        // Granule 2 left untagged; a 4-byte access at offset 14 straddles.
        let straddle = first.wrapping_add(14).with_tag(tag);
        let err = m.load_u32(&t, straddle).unwrap_err();
        assert!(err.as_tag_check().is_some());
    }

    #[test]
    fn bulk_read_write_round_trip() {
        let m = mem();
        let t = MteThread::new("t");
        let p = TaggedPtr::from_addr(m.base() + 0x300);
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(&t, p, &data).unwrap();
        let mut back = vec![0u8; 256];
        m.read_bytes(&t, p, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn fill_and_unchecked_access() {
        let m = mem();
        m.mprotect_mte(m.base(), PAGE_SIZE, true).unwrap();
        m.stg(TaggedPtr::from_addr(m.base()), Tag::new(1).unwrap()).unwrap();
        // Unchecked writes ignore the tag entirely.
        let p = TaggedPtr::from_addr(m.base());
        m.fill_unchecked(p, 16, 0x5A).unwrap();
        let mut buf = [0u8; 16];
        m.read_bytes_unchecked(p, &mut buf).unwrap();
        assert_eq!(buf, [0x5A; 16]);
    }

    #[test]
    fn stats_observe_tag_traffic() {
        let m = mem();
        let t = checked_thread(TcfMode::Sync);
        m.mprotect_mte(m.base(), PAGE_SIZE, true).unwrap();
        let before = m.stats().snapshot();
        let tag = m.irg(&t);
        let p = TaggedPtr::from_addr(m.base()).with_tag(tag);
        m.set_tag_range(p, p.addr() + 64, tag).unwrap();
        m.load_u32(&t, p).unwrap();
        let d = m.stats().snapshot().since(&before);
        assert_eq!(d.irg_ops, 1);
        assert_eq!(d.stg_ops, 4, "64 bytes = 4 granules");
        assert_eq!(d.total_faults(), 0);
    }
}

#[cfg(test)]
mod tag_map_tests {
    use super::*;

    #[test]
    fn tag_map_renders_tags_and_dots() {
        let m = TaggedMemory::new(MemoryConfig {
            base: 0x7a00_0000_0000,
            size: 1 << 16,
        });
        m.mprotect_mte(m.base(), 4096, true).unwrap();
        let p = TaggedPtr::from_addr(m.base() + 16);
        m.set_tag_range(p, p.addr() + 32, Tag::new(0xA).unwrap()).unwrap();
        let map = m.tag_map(m.base(), 5 * GRANULE).unwrap();
        assert_eq!(map, ".aa..");
    }

    #[test]
    fn tag_map_wraps_lines_at_64_granules() {
        let m = TaggedMemory::new(MemoryConfig {
            base: 0x7a00_0000_0000,
            size: 1 << 16,
        });
        let map = m.tag_map(m.base(), 130 * GRANULE).unwrap();
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), 64);
        assert_eq!(lines[2].len(), 2);
    }

    #[test]
    fn tag_map_rejects_out_of_range() {
        let m = TaggedMemory::new(MemoryConfig {
            base: 0x7a00_0000_0000,
            size: 1 << 16,
        });
        assert!(m.tag_map(m.end(), 16).is_err());
    }
}
