//! A simulated native (libc-style) allocator.
//!
//! The guarded-copy baseline allocates its shadow buffers from the process
//! native heap, *not* the Java heap. To keep the memory-access path uniform
//! across protection schemes, those buffers must also live inside the
//! simulated [`TaggedMemory`]; this module carves them out of a dedicated
//! arena with a [`BlockAllocator`] at granule alignment. Native-heap pages
//! are never mapped with `PROT_MTE`, so accesses to them are never
//! tag-checked — exactly like `malloc` memory on an MTE device with stock
//! jemalloc/scudo tagging disabled.

use std::fmt;

use crate::block_alloc::BlockAllocator;
use crate::error::MemError;
use crate::inject::{should_fail, InjectPoint};
use crate::memory::TaggedMemory;
use crate::pointer::TaggedPtr;
use crate::tag::GRANULE;
use crate::Result;

/// The native arena: a sub-range of a [`TaggedMemory`] handed out in
/// granule-aligned blocks.
///
/// All allocations are 16-byte aligned (the default alignment of 64-bit
/// `malloc` implementations, and the paper's observation in §4.1 that many
/// 64-bit allocators already align to the MTE granule).
pub struct NativeAllocator {
    blocks: BlockAllocator,
}

impl NativeAllocator {
    /// Creates an allocator over `[start, start + len)` inside `memory`.
    ///
    /// # Panics
    ///
    /// Panics if the range is not granule aligned or lies outside `memory`.
    pub fn new(memory: &TaggedMemory, start: u64, len: usize) -> NativeAllocator {
        assert_eq!(len % GRANULE, 0, "arena length must be granule aligned");
        assert!(memory.contains(start, len), "arena must lie inside the memory");
        NativeAllocator {
            blocks: BlockAllocator::new(start, len, GRANULE),
        }
    }

    /// Allocates `len` bytes (rounded up to a granule), returning an
    /// untagged pointer. The memory content is left as-is (like `malloc`).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfNativeMemory`] when no free block is large enough,
    /// or when an installed fault plan fails the allocation.
    pub fn alloc(&self, len: usize) -> Result<TaggedPtr> {
        let oom = MemError::OutOfNativeMemory { requested: len };
        if should_fail(InjectPoint::Alloc) {
            return Err(oom);
        }
        let (addr, _) = self.blocks.alloc(len).ok_or(oom)?;
        Ok(TaggedPtr::from_addr(addr))
    }

    /// Returns `[ptr, ptr + len)` (same `len` passed to [`Self::alloc`]) to
    /// the arena, coalescing with neighbours.
    ///
    /// # Panics
    ///
    /// Panics if the block lies outside the arena or overlaps a free block
    /// (double free).
    pub fn free(&self, ptr: TaggedPtr, len: usize) {
        self.blocks.free(ptr.addr(), len);
    }

    /// Bytes currently allocated (after granule rounding).
    pub fn bytes_in_use(&self) -> u64 {
        self.blocks.bytes_in_use()
    }

    /// High-water mark of [`Self::bytes_in_use`].
    pub fn peak_bytes(&self) -> u64 {
        self.blocks.peak_bytes()
    }
}

impl fmt::Debug for NativeAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeAllocator")
            .field("blocks", &self.blocks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::inject::{self, FaultPlan, InjectCounters};
    use crate::memory::MemoryConfig;

    const ARENA: usize = 0x10000;

    fn arena() -> NativeAllocator {
        let mem = TaggedMemory::new(MemoryConfig {
            base: 0x7a00_0000_0000,
            size: 1 << 20,
        });
        NativeAllocator::new(&mem, mem.base() + 0x10000, ARENA)
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
    fn exhaustion_errors() {
        let a = arena();
        assert!(matches!(
            a.alloc(ARENA + 1),
            Err(MemError::OutOfNativeMemory { .. })
        ));
        let _keep = a.alloc(ARENA).unwrap();
        assert!(a.alloc(16).is_err());
    }

    #[test]
    fn bytes_in_use_counts_granules() {
        let a = arena();
        let p = a.alloc(100).unwrap();
        assert_eq!(a.bytes_in_use(), 112, "100 rounds to 7 granules");
        a.free(p, 100);
        assert_eq!(a.bytes_in_use(), 0);
        assert_eq!(a.peak_bytes(), 112);
    }

    #[test]
    fn zero_length_alloc_gets_a_granule() {
        let a = arena();
        let p = a.alloc(0).unwrap();
        assert_eq!(a.bytes_in_use(), GRANULE as u64);
        a.free(p, 0);
        assert_eq!(a.bytes_in_use(), 0);
    }

    #[test]
    fn an_injected_alloc_failure_is_transient_and_takes_nothing() {
        let a = arena();
        let _keep = a.alloc(32).unwrap();
        let before = a.bytes_in_use();
        let plan = FaultPlan {
            alloc_fail_ppm: 1_000_000,
            ..FaultPlan::default()
        };
        let counters = Arc::new(InjectCounters::default());
        inject::install(plan, 1, Arc::clone(&counters));
        let failed = a.alloc(64);
        inject::clear();
        assert!(matches!(
            failed,
            Err(MemError::OutOfNativeMemory { requested: 64 })
        ));
        assert!(failed.unwrap_err().is_transient());
        assert_eq!(counters.get(InjectPoint::Alloc), 1);
        assert_eq!(a.bytes_in_use(), before, "the failed alloc took nothing");
        a.alloc(64).expect("the next alloc succeeds");
    }
}
