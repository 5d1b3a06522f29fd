//! Scalar reference kernels: the pre-optimization `TaggedMemory`
//! implementation, retained verbatim in spirit — one `AtomicU8` per data
//! byte, one tag byte per granule, one `PROT_MTE` lookup and one tag
//! compare per granule per access.
//!
//! Two consumers keep this alive:
//!
//! * the differential property suite (`tests/differential.rs`) pins the
//!   word-packed kernels of [`crate::TaggedMemory`] bit-equivalent to these —
//!   results, fault kind and address, stats deltas, and final
//!   data/tag state must all agree;
//! * the `throughput` bench measures both implementations and records
//!   the speedup ratios the optimization claims.
//!
//! Semantics shared with the wide kernels (and differing from the
//! original scalar code only where this PR fixed bugs): `set_tag_range`
//! validates `PROT_MTE` over the whole range before writing any tag, and
//! `st2g` validates both granules before tagging either.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use crate::error::MemError;
use crate::fault::{AccessKind, FaultKind, TagCheckFault};
use crate::memory::MemoryConfig;
use crate::pointer::TaggedPtr;
use crate::stats::MteStats;
use crate::tag::{Tag, GRANULE, PAGE_SIZE};
use crate::thread::{MteThread, TcfMode};
use crate::Result;

/// Byte-granular scalar twin of [`crate::TaggedMemory`]. Same public
/// surface, same observable behavior, an order of magnitude slower on
/// bulk paths — by design.
pub struct ScalarMemory {
    base: u64,
    size: usize,
    data: Box<[AtomicU8]>,
    /// One tag per granule, stored in the low 4 bits.
    tags: Box<[AtomicU8]>,
    /// One byte per page; bit 0 = `PROT_MTE`.
    prot: Box<[AtomicU8]>,
    stats: MteStats,
}

fn zeroed(len: usize) -> Box<[AtomicU8]> {
    (0..len).map(|_| AtomicU8::new(0)).collect()
}

impl ScalarMemory {
    /// Creates a new zero-filled, untagged memory.
    ///
    /// # Panics
    ///
    /// As [`crate::TaggedMemory::new`].
    pub fn new(config: MemoryConfig) -> Arc<ScalarMemory> {
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
        Arc::new(ScalarMemory {
            base: config.base,
            size,
            data: zeroed(size),
            tags: zeroed(size / GRANULE),
            prot: zeroed(size / PAGE_SIZE),
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

    fn offset_of(&self, addr: u64, len: usize) -> Result<usize> {
        if self.contains(addr, len) {
            Ok((addr - self.base) as usize)
        } else {
            Err(MemError::OutOfRange { addr, len })
        }
    }

    fn page_is_mte(&self, offset: usize) -> bool {
        self.prot[offset / PAGE_SIZE].load(Ordering::Relaxed) & 1 != 0
    }

    /// As [`crate::TaggedMemory::mprotect_mte`].
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

    /// The original per-granule check loop: re-reads the `PROT_MTE` bit
    /// and compares one tag byte per granule.
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
        let ptag = ptr.tag();
        let first = offset / GRANULE;
        let last = (offset + len.max(1) - 1) / GRANULE;
        for g in first..=last {
            if !self.page_is_mte(g * GRANULE) {
                continue;
            }
            let mtag = Tag::from_low_bits(self.tags[g].load(Ordering::Relaxed));
            if mtag != ptag {
                match t.mode() {
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
                    }
                    TcfMode::None => unreachable!("checks_enabled() gates None out"),
                }
            }
        }
        Ok(())
    }

    /// Loads one byte.
    ///
    /// # Errors
    ///
    /// As [`crate::TaggedMemory::load_u8`].
    pub fn load_u8(&self, t: &MteThread, ptr: TaggedPtr) -> Result<u8> {
        let offset = self.offset_of(ptr.addr(), 1)?;
        self.check_access(t, ptr, offset, 1, AccessKind::Read)?;
        Ok(self.data[offset].load(Ordering::Relaxed))
    }

    /// Stores one byte.
    ///
    /// # Errors
    ///
    /// As [`crate::TaggedMemory::load_u8`].
    pub fn store_u8(&self, t: &MteThread, ptr: TaggedPtr, value: u8) -> Result<()> {
        let offset = self.offset_of(ptr.addr(), 1)?;
        self.check_access(t, ptr, offset, 1, AccessKind::Write)?;
        self.data[offset].store(value, Ordering::Relaxed);
        Ok(())
    }

    fn load_le(&self, t: &MteThread, ptr: TaggedPtr, len: usize) -> Result<u64> {
        let offset = self.offset_of(ptr.addr(), len)?;
        self.check_access(t, ptr, offset, len, AccessKind::Read)?;
        let mut v = 0u64;
        for i in (0..len).rev() {
            v = (v << 8) | u64::from(self.data[offset + i].load(Ordering::Relaxed));
        }
        Ok(v)
    }

    fn store_le(&self, t: &MteThread, ptr: TaggedPtr, len: usize, value: u64) -> Result<()> {
        let offset = self.offset_of(ptr.addr(), len)?;
        self.check_access(t, ptr, offset, len, AccessKind::Write)?;
        let mut v = value;
        for i in 0..len {
            self.data[offset + i].store((v & 0xFF) as u8, Ordering::Relaxed);
            v >>= 8;
        }
        Ok(())
    }

    /// Loads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// As [`crate::TaggedMemory::load_u8`].
    pub fn load_u16(&self, t: &MteThread, ptr: TaggedPtr) -> Result<u16> {
        self.load_le(t, ptr, 2).map(|v| v as u16)
    }

    /// Stores a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// As [`crate::TaggedMemory::load_u8`].
    pub fn store_u16(&self, t: &MteThread, ptr: TaggedPtr, value: u16) -> Result<()> {
        self.store_le(t, ptr, 2, u64::from(value))
    }

    /// Loads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// As [`crate::TaggedMemory::load_u8`].
    pub fn load_u32(&self, t: &MteThread, ptr: TaggedPtr) -> Result<u32> {
        self.load_le(t, ptr, 4).map(|v| v as u32)
    }

    /// Stores a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// As [`crate::TaggedMemory::load_u8`].
    pub fn store_u32(&self, t: &MteThread, ptr: TaggedPtr, value: u32) -> Result<()> {
        self.store_le(t, ptr, 4, u64::from(value))
    }

    /// Loads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As [`crate::TaggedMemory::load_u8`].
    pub fn load_u64(&self, t: &MteThread, ptr: TaggedPtr) -> Result<u64> {
        self.load_le(t, ptr, 8)
    }

    /// Stores a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As [`crate::TaggedMemory::load_u8`].
    pub fn store_u64(&self, t: &MteThread, ptr: TaggedPtr, value: u64) -> Result<()> {
        self.store_le(t, ptr, 8, value)
    }

    /// Byte-at-a-time checked bulk read.
    ///
    /// # Errors
    ///
    /// As [`crate::TaggedMemory::load_u8`].
    pub fn read_bytes(&self, t: &MteThread, ptr: TaggedPtr, buf: &mut [u8]) -> Result<()> {
        let offset = self.offset_of(ptr.addr(), buf.len())?;
        self.check_access(t, ptr, offset, buf.len(), AccessKind::Read)?;
        self.stats.count_load();
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.data[offset + i].load(Ordering::Relaxed);
        }
        Ok(())
    }

    /// Byte-at-a-time checked bulk write.
    ///
    /// # Errors
    ///
    /// As [`crate::TaggedMemory::load_u8`].
    pub fn write_bytes(&self, t: &MteThread, ptr: TaggedPtr, buf: &[u8]) -> Result<()> {
        let offset = self.offset_of(ptr.addr(), buf.len())?;
        self.check_access(t, ptr, offset, buf.len(), AccessKind::Write)?;
        self.stats.count_store();
        for (i, &b) in buf.iter().enumerate() {
            self.data[offset + i].store(b, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Byte-at-a-time checked fill.
    ///
    /// # Errors
    ///
    /// As [`crate::TaggedMemory::load_u8`].
    pub fn fill(&self, t: &MteThread, ptr: TaggedPtr, len: usize, value: u8) -> Result<()> {
        let offset = self.offset_of(ptr.addr(), len)?;
        self.check_access(t, ptr, offset, len, AccessKind::Write)?;
        self.stats.count_store();
        for i in 0..len {
            self.data[offset + i].store(value, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Byte-at-a-time unchecked bulk read.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] outside the region.
    pub fn read_bytes_unchecked(&self, ptr: TaggedPtr, buf: &mut [u8]) -> Result<()> {
        let offset = self.offset_of(ptr.addr(), buf.len())?;
        self.stats.count_load();
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.data[offset + i].load(Ordering::Relaxed);
        }
        Ok(())
    }

    /// Byte-at-a-time unchecked bulk write.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] outside the region.
    pub fn write_bytes_unchecked(&self, ptr: TaggedPtr, buf: &[u8]) -> Result<()> {
        let offset = self.offset_of(ptr.addr(), buf.len())?;
        self.stats.count_store();
        for (i, &b) in buf.iter().enumerate() {
            self.data[offset + i].store(b, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Byte-at-a-time unchecked fill.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] outside the region.
    pub fn fill_unchecked(&self, ptr: TaggedPtr, len: usize, value: u8) -> Result<()> {
        let offset = self.offset_of(ptr.addr(), len)?;
        self.stats.count_store();
        for i in 0..len {
            self.data[offset + i].store(value, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The `irg` instruction with operation counting.
    pub fn irg(&self, t: &MteThread) -> Tag {
        self.stats.count_irg();
        t.irg()
    }

    /// The `ldg` instruction over byte-per-granule tag storage.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] outside the region.
    pub fn ldg(&self, ptr: TaggedPtr) -> Result<Tag> {
        let offset = self.offset_of(ptr.granule_base(), GRANULE)?;
        self.stats.count_ldg();
        if !self.page_is_mte(offset) {
            return Ok(Tag::UNTAGGED);
        }
        Ok(Tag::from_low_bits(self.tags[offset / GRANULE].load(Ordering::Relaxed)))
    }

    /// The `stg` instruction over byte-per-granule tag storage.
    ///
    /// # Errors
    ///
    /// As [`crate::TaggedMemory::stg`].
    pub fn stg(&self, ptr: TaggedPtr, tag: Tag) -> Result<()> {
        let offset = self.offset_of(ptr.granule_base(), GRANULE)?;
        if !self.page_is_mte(offset) {
            return Err(MemError::NotProtMte { addr: ptr.addr() });
        }
        self.stats.count_stg(1);
        self.tags[offset / GRANULE].store(tag.value(), Ordering::Relaxed);
        Ok(())
    }

    /// The `st2g` instruction, with the same validate-both-granules-first
    /// semantics as the wide kernel.
    ///
    /// # Errors
    ///
    /// As [`crate::TaggedMemory::stg`].
    pub fn st2g(&self, ptr: TaggedPtr, tag: Tag) -> Result<()> {
        let offset = self.offset_of(ptr.granule_base(), 2 * GRANULE)?;
        if !self.page_is_mte(offset) {
            return Err(MemError::NotProtMte { addr: ptr.addr() });
        }
        if !self.page_is_mte(offset + GRANULE) {
            return Err(MemError::NotProtMte {
                addr: self.base + (offset + GRANULE) as u64,
            });
        }
        self.stats.count_stg(2);
        self.tags[offset / GRANULE].store(tag.value(), Ordering::Relaxed);
        self.tags[offset / GRANULE + 1].store(tag.value(), Ordering::Relaxed);
        Ok(())
    }

    /// The `stzg` instruction: tags the granule and zeroes its 16 data
    /// bytes one at a time.
    ///
    /// # Errors
    ///
    /// As [`crate::TaggedMemory::stg`].
    pub fn stzg(&self, ptr: TaggedPtr, tag: Tag) -> Result<()> {
        let offset = self.offset_of(ptr.granule_base(), GRANULE)?;
        if !self.page_is_mte(offset) {
            return Err(MemError::NotProtMte { addr: ptr.addr() });
        }
        self.stats.count_stg(1);
        self.tags[offset / GRANULE].store(tag.value(), Ordering::Relaxed);
        for i in 0..GRANULE {
            self.data[offset + i].store(0, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Scalar `set_tag_range`: one tag-byte store per granule, with the
    /// same validate-the-whole-range-first semantics as the wide kernel.
    ///
    /// # Errors
    ///
    /// As [`crate::TaggedMemory::stg`].
    pub fn set_tag_range(&self, begin: TaggedPtr, end: u64, tag: Tag) -> Result<()> {
        let start = begin.granule_base();
        if start >= end {
            return Ok(());
        }
        let len = (end - start) as usize;
        let offset = self.offset_of(start, len)?;
        let first = offset / GRANULE;
        let last = (offset + len - 1) / GRANULE;
        for g in first..=last {
            if !self.page_is_mte(g * GRANULE) {
                return Err(MemError::NotProtMte {
                    addr: self.base + (g * GRANULE) as u64,
                });
            }
        }
        for g in first..=last {
            self.tags[g].store(tag.value(), Ordering::Relaxed);
        }
        self.stats.count_stg((last - first + 1) as u64);
        Ok(())
    }

    /// Reads the stored memory tag at `addr` (test helper; ignores
    /// `PROT_MTE`).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] outside the region.
    pub fn raw_tag_at(&self, addr: u64) -> Result<Tag> {
        let offset = self.offset_of(addr & !(GRANULE as u64 - 1), GRANULE)?;
        Ok(Tag::from_low_bits(self.tags[offset / GRANULE].load(Ordering::Relaxed)))
    }
}
