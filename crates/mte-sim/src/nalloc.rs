//! A simulated native (libc-style) allocator.
//!
//! The guarded-copy baseline allocates its shadow buffers from the process
//! native heap, *not* the Java heap. To keep the memory-access path uniform
//! across protection schemes, those buffers must also live inside the
//! simulated [`TaggedMemory`]; this module carves them out of a dedicated
//! arena with a first-fit free list. Native-heap pages are never mapped
//! with `PROT_MTE`, so accesses to them are never tag-checked — exactly
//! like `malloc` memory on an MTE device with stock jemalloc/scudo tagging
//! disabled.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::MemError;
use crate::memory::TaggedMemory;
use crate::pointer::TaggedPtr;
use crate::tag::GRANULE;
use crate::Result;

/// First-fit free-list allocator over a sub-range of a [`TaggedMemory`].
///
/// All allocations are 16-byte aligned (the default alignment of 64-bit
/// `malloc` implementations, and the paper's observation in §4.1 that many
/// 64-bit allocators already align to the MTE granule).
pub struct NativeAllocator {
    memory: Arc<TaggedMemory>,
    start: u64,
    end: u64,
    free: Mutex<Vec<(u64, u64)>>,
    allocs: AtomicU64,
    frees: AtomicU64,
    in_use: AtomicU64,
    peak: AtomicU64,
}

impl NativeAllocator {
    /// Creates an allocator over `[start, start + len)` inside `memory`.
    ///
    /// # Panics
    ///
    /// Panics if the range is not granule aligned or lies outside `memory`.
    pub fn new(memory: Arc<TaggedMemory>, start: u64, len: usize) -> NativeAllocator {
        assert_eq!(start % GRANULE as u64, 0, "arena start must be granule aligned");
        assert_eq!(len % GRANULE, 0, "arena length must be granule aligned");
        assert!(memory.contains(start, len), "arena must lie inside the memory");
        NativeAllocator {
            memory,
            start,
            end: start + len as u64,
            free: Mutex::new(vec![(start, len as u64)]),
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            in_use: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Arena start address.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// One past the arena's last byte.
    pub fn end(&self) -> u64 {
        self.end
    }

    fn block_size(len: usize) -> u64 {
        (len.max(1) as u64).div_ceil(GRANULE as u64) * GRANULE as u64
    }

    /// Allocates `len` bytes (rounded up to a granule), returning an
    /// untagged pointer. The memory content is left as-is (like `malloc`).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfNativeMemory`] when no free block is large enough.
    pub fn alloc(&self, len: usize) -> Result<TaggedPtr> {
        if crate::inject::should_fail(crate::inject::InjectPoint::Alloc) {
            return Err(MemError::OutOfNativeMemory { requested: len });
        }
        let want = Self::block_size(len);
        let mut free = self.free.lock();
        let idx = free
            .iter()
            .position(|&(_, flen)| flen >= want)
            .ok_or(MemError::OutOfNativeMemory { requested: len })?;
        let (fstart, flen) = free[idx];
        if flen == want {
            free.remove(idx);
        } else {
            free[idx] = (fstart + want, flen - want);
        }
        drop(free);
        self.allocs.fetch_add(1, Ordering::Relaxed);
        let now = self.in_use.fetch_add(want, Ordering::Relaxed) + want;
        self.peak.fetch_max(now, Ordering::Relaxed);
        Ok(TaggedPtr::from_addr(fstart))
    }

    /// Returns `[ptr, ptr + len)` (same `len` passed to [`Self::alloc`]) to
    /// the free list, coalescing with neighbours.
    ///
    /// # Panics
    ///
    /// Panics if the block lies outside the arena or overlaps a free block
    /// (double free).
    pub fn free(&self, ptr: TaggedPtr, len: usize) {
        let want = Self::block_size(len);
        let addr = ptr.addr();
        assert!(
            addr >= self.start && addr + want <= self.end,
            "freed block {addr:#x}+{want} outside arena"
        );
        let mut free = self.free.lock();
        let pos = free.partition_point(|&(fstart, _)| fstart < addr);
        if let Some(&(next, _)) = free.get(pos) {
            assert!(addr + want <= next, "double free or overlap at {addr:#x}");
        }
        if pos > 0 {
            let (pstart, plen) = free[pos - 1];
            assert!(pstart + plen <= addr, "double free or overlap at {addr:#x}");
        }
        free.insert(pos, (addr, want));
        // Coalesce with successor then predecessor.
        if pos + 1 < free.len() && free[pos].0 + free[pos].1 == free[pos + 1].0 {
            free[pos].1 += free[pos + 1].1;
            free.remove(pos + 1);
        }
        if pos > 0 && free[pos - 1].0 + free[pos - 1].1 == free[pos].0 {
            free[pos - 1].1 += free[pos].1;
            free.remove(pos);
        }
        drop(free);
        self.frees.fetch_add(1, Ordering::Relaxed);
        self.in_use.fetch_sub(want, Ordering::Relaxed);
    }

    /// The backing memory.
    pub fn memory(&self) -> &Arc<TaggedMemory> {
        &self.memory
    }

    /// Current usage statistics.
    pub fn stats(&self) -> NativeAllocatorStats {
        NativeAllocatorStats {
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            bytes_in_use: self.in_use.load(Ordering::Relaxed),
            peak_bytes: self.peak.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for NativeAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeAllocator")
            .field("start", &format_args!("{:#x}", self.start))
            .field("end", &format_args!("{:#x}", self.end))
            .field("stats", &self.stats())
            .finish()
    }
}

/// Usage counters for a [`NativeAllocator`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NativeAllocatorStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Frees.
    pub frees: u64,
    /// Bytes currently allocated (after granule rounding).
    pub bytes_in_use: u64,
    /// High-water mark of `bytes_in_use`.
    pub peak_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryConfig;

    fn arena() -> NativeAllocator {
        let mem = TaggedMemory::new(MemoryConfig {
            base: 0x7a00_0000_0000,
            size: 1 << 20,
        });
        let start = mem.base() + 0x10000;
        NativeAllocator::new(mem, start, 0x10000)
    }

    #[test]
    fn alloc_is_granule_aligned_and_untagged() {
        let a = arena();
        for len in [1usize, 7, 16, 17, 100] {
            let p = a.alloc(len).unwrap();
            assert!(p.is_aligned_to(GRANULE));
            assert!(p.tag().is_untagged());
        }
    }

    #[test]
    fn distinct_live_allocations_do_not_overlap() {
        let a = arena();
        let p1 = a.alloc(40).unwrap();
        let p2 = a.alloc(40).unwrap();
        let d = p1.addr().abs_diff(p2.addr());
        assert!(d >= 48, "40 bytes rounds to 48; blocks must not overlap");
    }

    #[test]
    fn free_allows_reuse() {
        let a = arena();
        let p1 = a.alloc(64).unwrap();
        a.free(p1, 64);
        let p2 = a.alloc(64).unwrap();
        assert_eq!(p1.addr(), p2.addr(), "first fit reuses the freed block");
    }

    #[test]
    fn coalescing_reassembles_the_arena() {
        let a = arena();
        let ps: Vec<_> = (0..8).map(|_| a.alloc(1024).unwrap()).collect();
        // Free in an interleaved order to exercise both coalesce branches.
        for &i in &[1usize, 3, 5, 7, 0, 2, 4, 6] {
            a.free(ps[i], 1024);
        }
        // A single huge allocation must now fit again.
        let big = a.alloc(0x10000).unwrap();
        assert_eq!(big.addr(), a.start());
    }

    #[test]
    fn exhaustion_errors() {
        let a = arena();
        assert!(matches!(
            a.alloc(0x10001),
            Err(MemError::OutOfNativeMemory { .. })
        ));
        let _keep = a.alloc(0x10000).unwrap();
        assert!(a.alloc(16).is_err());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let a = arena();
        let p = a.alloc(32).unwrap();
        a.free(p, 32);
        a.free(p, 32);
    }

    #[test]
    fn stats_track_usage() {
        let a = arena();
        let p = a.alloc(100).unwrap();
        let s = a.stats();
        assert_eq!(s.allocs, 1);
        assert_eq!(s.bytes_in_use, 112, "100 rounds to 7 granules");
        a.free(p, 100);
        let s = a.stats();
        assert_eq!(s.frees, 1);
        assert_eq!(s.bytes_in_use, 0);
        assert_eq!(s.peak_bytes, 112);
    }

    #[test]
    fn zero_length_alloc_gets_a_granule() {
        let a = arena();
        let p = a.alloc(0).unwrap();
        assert!(a.stats().bytes_in_use >= 16);
        a.free(p, 0);
    }
}
