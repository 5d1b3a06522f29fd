//! Free-list block allocator with configurable alignment.
//!
//! ART's allocator aligns objects to 8 bytes by default; MTE4JNI changes
//! this to 16 so that no two objects share a tag granule (paper §4.1).
//! Both configurations are first-class here so the ablation can show the
//! granule-sharing hazard and measure the fragmentation cost of the wider
//! alignment. The simulated heap runs two of these: the Java heap's
//! object blocks at the configured alignment, and the native arena
//! ([`NativeAllocator`](crate::NativeAllocator)) at [`GRANULE`](crate::GRANULE).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// First-fit free-list allocator over an abstract address range.
///
/// Purely an address-space manager: it does not touch memory contents.
/// Thread safe; allocation order under contention is unspecified but
/// blocks never overlap.
pub struct BlockAllocator {
    start: u64,
    end: u64,
    align: u64,
    state: Mutex<State>,
    /// Bytes currently allocated (rounded sizes). Written only under the
    /// `state` mutex, read without it: admission and quiescence checks
    /// read it as one load.
    in_use: AtomicU64,
}

/// The free `(addr, len)` blocks, sorted by address and coalesced, and
/// the statistics kept under the same mutex.
#[derive(Default)]
struct State {
    free: Vec<(u64, u64)>,
    bytes_requested: u64,
    bytes_allocated: u64,
    peak: u64,
}

impl BlockAllocator {
    /// Creates an allocator over `[start, start + len)` with the given
    /// block alignment.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or `start` is not aligned.
    pub fn new(start: u64, len: usize, align: usize) -> BlockAllocator {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert_eq!(start % align as u64, 0, "start must be aligned");
        BlockAllocator {
            start,
            end: start + len as u64,
            align: align as u64,
            state: Mutex::new(State {
                free: vec![(start, len as u64)],
                ..State::default()
            }),
            in_use: AtomicU64::new(0),
        }
    }

    /// Range start.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// One past the range end.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Block alignment in bytes.
    pub fn alignment(&self) -> usize {
        self.align as usize
    }

    fn round(&self, len: usize) -> u64 {
        (len.max(1) as u64).div_ceil(self.align) * self.align
    }

    /// Allocates an aligned block of at least `len` bytes, returning its
    /// address and the rounded block size, or `None` when exhausted.
    pub fn alloc(&self, len: usize) -> Option<(u64, usize)> {
        let want = self.round(len);
        let mut state = self.state.lock();
        let free = &mut state.free;
        let idx = free.iter().position(|&(_, flen)| flen >= want)?;
        let (fstart, flen) = free[idx];
        if flen == want {
            free.remove(idx);
        } else {
            free[idx] = (fstart + want, flen - want);
        }
        state.bytes_requested += len as u64;
        state.bytes_allocated += want;
        let now = self.bytes_in_use() + want;
        self.in_use.store(now, Ordering::Relaxed);
        state.peak = state.peak.max(now);
        Some((fstart, want as usize))
    }

    /// Frees a block previously returned by [`Self::alloc`], coalescing
    /// with neighbours. `len` is the length passed to `alloc` or the
    /// rounded size it returned: both round to the same block.
    ///
    /// # Panics
    ///
    /// Panics on double free, overlap, or a block outside the range.
    pub fn free(&self, addr: u64, len: usize) {
        let len = self.round(len);
        assert!(
            addr >= self.start && addr + len <= self.end && addr.is_multiple_of(self.align),
            "freed block {addr:#x}+{len} invalid for this allocator"
        );
        let mut state = self.state.lock();
        let free = &mut state.free;
        let pos = free.partition_point(|&(fstart, _)| fstart < addr);
        if let Some(&(next, _)) = free.get(pos) {
            assert!(addr + len <= next, "double free or overlap at {addr:#x}");
        }
        if pos > 0 {
            let (pstart, plen) = free[pos - 1];
            assert!(pstart + plen <= addr, "double free or overlap at {addr:#x}");
        }
        free.insert(pos, (addr, len));
        if pos + 1 < free.len() && free[pos].0 + free[pos].1 == free[pos + 1].0 {
            free[pos].1 += free[pos + 1].1;
            free.remove(pos + 1);
        }
        if pos > 0 && free[pos - 1].0 + free[pos - 1].1 == free[pos].0 {
            free[pos - 1].1 += free[pos].1;
            free.remove(pos);
        }
        self.in_use.store(self.bytes_in_use() - len, Ordering::Relaxed);
    }

    /// Replaces the free list with the complement of `allocated`, a
    /// sorted, non-overlapping list of `(addr, block_len)` blocks — the
    /// post-compaction heap layout. The cumulative request/allocation
    /// counters are untouched (compaction moves blocks, it does not
    /// allocate), but `bytes_in_use` is re-derived from the layout.
    ///
    /// # Panics
    ///
    /// Panics if `allocated` is unsorted, overlapping, misaligned, or
    /// outside the managed range.
    pub fn reset_layout(&self, allocated: &[(u64, u64)]) {
        let mut state = self.state.lock();
        let free = &mut state.free;
        free.clear();
        let mut cursor = self.start;
        let mut in_use = 0u64;
        for &(addr, len) in allocated {
            assert!(
                addr >= cursor && addr + len <= self.end && addr.is_multiple_of(self.align),
                "layout block {addr:#x}+{len} invalid for this allocator"
            );
            if addr > cursor {
                free.push((cursor, addr - cursor));
            }
            cursor = addr + len;
            in_use += len;
        }
        if cursor < self.end {
            free.push((cursor, self.end - cursor));
        }
        self.in_use.store(in_use, Ordering::Relaxed);
    }

    /// Bytes currently allocated (rounded sizes).
    pub fn bytes_in_use(&self) -> u64 {
        self.in_use.load(Ordering::Relaxed)
    }

    /// High-water mark of [`Self::bytes_in_use`].
    pub fn peak_bytes(&self) -> u64 {
        self.state.lock().peak
    }

    /// Cumulative internal fragmentation: bytes handed out beyond what was
    /// requested. This is the §4.1 "minor internal memory fragmentation"
    /// cost of 16-byte alignment, made measurable.
    pub fn fragmentation_bytes(&self) -> u64 {
        let state = self.state.lock();
        state.bytes_allocated - state.bytes_requested
    }
}

impl fmt::Debug for BlockAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockAllocator")
            .field("start", &format_args!("{:#x}", self.start))
            .field("end", &format_args!("{:#x}", self.end))
            .field("align", &self.align)
            .field("in_use", &self.bytes_in_use())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_byte_alignment_packs_two_objects_per_granule() {
        let a = BlockAllocator::new(0x1000, 0x1000, 8);
        let (p1, _) = a.alloc(8).unwrap();
        let (p2, _) = a.alloc(8).unwrap();
        assert_eq!(p1 / 16, p2 / 16, "stock ART: neighbours share a granule");
    }

    #[test]
    fn sixteen_byte_alignment_separates_granules() {
        let a = BlockAllocator::new(0x1000, 0x1000, 16);
        let (p1, _) = a.alloc(8).unwrap();
        let (p2, _) = a.alloc(8).unwrap();
        assert_ne!(p1 / 16, p2 / 16, "MTE4JNI: one object per granule");
    }

    #[test]
    fn fragmentation_is_visible() {
        let a = BlockAllocator::new(0x1000, 0x1000, 16);
        a.alloc(8).unwrap();
        a.alloc(24).unwrap();
        assert_eq!(a.fragmentation_bytes(), 8 + 8);
    }

    #[test]
    fn alloc_free_reuse_cycle() {
        let a = BlockAllocator::new(0, 0x100, 16);
        let (p, l) = a.alloc(0x100).unwrap();
        assert!(a.alloc(16).is_none(), "exhausted");
        a.free(p, l);
        assert_eq!(a.alloc(0x100).unwrap().0, p);
    }

    #[test]
    fn coalescing_across_many_blocks() {
        let a = BlockAllocator::new(0, 0x1000, 8);
        let blocks: Vec<_> = (0..16).map(|_| a.alloc(0x100).unwrap()).collect();
        // Odd blocks first, then even: each even block merges with a free
        // successor and a free predecessor.
        for i in (1..16).step_by(2).chain((0..16).step_by(2)) {
            let (p, l) = blocks[i];
            a.free(p, l);
        }
        assert_eq!(a.alloc(0x1000).unwrap().0, 0);
        assert_eq!(a.bytes_in_use(), 0x1000);
    }

    #[test]
    fn free_takes_the_requested_or_the_rounded_length() {
        let a = BlockAllocator::new(0, 0x100, 16);
        let (p, l) = a.alloc(40).unwrap();
        assert_eq!(l, 48);
        a.free(p, 40);
        assert_eq!(a.bytes_in_use(), 0);
        let (p, l) = a.alloc(40).unwrap();
        a.free(p, l);
        assert_eq!(a.bytes_in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_detected() {
        let a = BlockAllocator::new(0, 0x100, 8);
        let (p, l) = a.alloc(8).unwrap();
        a.free(p, l);
        a.free(p, l);
    }

    #[test]
    fn reset_layout_rebuilds_the_free_list() {
        let a = BlockAllocator::new(0x1000, 0x1000, 16);
        let blocks: Vec<_> = (0..4).map(|_| a.alloc(0x100).unwrap()).collect();
        assert_eq!(a.bytes_in_use(), 0x400);
        // Compacted layout: the middle two blocks slid left, the last
        // stayed pinned in place.
        let layout = [
            (0x1000u64, 0x100u64),
            (0x1100, 0x100),
            (0x1200, 0x100),
            (blocks[3].0, 0x100),
        ];
        a.reset_layout(&layout);
        assert_eq!(a.bytes_in_use(), 0x400);
        // The next allocations come from the coalesced tail gap.
        let (p, _) = a.alloc(0x100).unwrap();
        assert_eq!(p, 0x1400);
        // Freeing a layout block round-trips with the rebuilt list.
        a.free(0x1100, 0x100);
        assert_eq!(a.alloc(0x100).unwrap().0, 0x1100);
    }

    #[test]
    #[should_panic(expected = "invalid for this allocator")]
    fn reset_layout_rejects_overlap() {
        let a = BlockAllocator::new(0, 0x1000, 16);
        a.reset_layout(&[(0, 0x100), (0x80, 0x100)]);
    }

    #[test]
    fn peak_tracks_high_water() {
        let a = BlockAllocator::new(0, 0x1000, 8);
        let (p, l) = a.alloc(0x800).unwrap();
        a.free(p, l);
        a.alloc(0x100).unwrap();
        assert_eq!(a.peak_bytes(), 0x800);
    }
}
