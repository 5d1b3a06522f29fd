//! Property-based tests for the heap substrate.

use art_heap::{Heap, HeapConfig, JavaThread};
use mte_sim::{BlockAllocator, MemoryConfig};
use proptest::prelude::*;

fn small_heap() -> Heap {
    Heap::new(HeapConfig {
        memory: MemoryConfig {
            base: 0x7a00_0000_0000,
            size: 4 << 20,
        },
        ..HeapConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any sequence of allocations yields pairwise-disjoint, aligned
    /// blocks; freeing everything restores full capacity.
    #[test]
    fn allocator_blocks_never_overlap(
        sizes in prop::collection::vec(1usize..2048, 1..64),
        align_16 in any::<bool>(),
    ) {
        let align = if align_16 { 16 } else { 8 };
        let arena = BlockAllocator::new(0x10000, 1 << 20, align);
        let mut live: Vec<(u64, usize)> = Vec::new();
        for &s in &sizes {
            let (addr, len) = arena.alloc(s).expect("arena is large enough");
            prop_assert_eq!(addr % align as u64, 0);
            prop_assert!(len >= s);
            for &(other, olen) in &live {
                let disjoint = addr + len as u64 <= other || other + olen as u64 <= addr;
                prop_assert!(disjoint, "{addr:#x}+{len} overlaps {other:#x}+{olen}");
            }
            live.push((addr, len));
        }
        for (addr, len) in live {
            arena.free(addr, len);
        }
        prop_assert_eq!(arena.bytes_in_use(), 0);
        // The arena coalesced back into one block.
        let (big, big_len) = arena.alloc(1 << 20).expect("full capacity restored");
        prop_assert_eq!(big, 0x10000);
        prop_assert_eq!(big_len, 1 << 20);
    }

    /// Interleaved alloc/free driven by a random program keeps the
    /// in-use accounting exact.
    #[test]
    fn allocator_accounting_is_exact(ops in prop::collection::vec((any::<bool>(), 1usize..512), 1..128)) {
        let arena = BlockAllocator::new(0, 1 << 20, 16);
        let mut live: Vec<(u64, usize)> = Vec::new();
        let mut expected = 0u64;
        for (is_alloc, n) in ops {
            if is_alloc || live.is_empty() {
                if let Some((addr, len)) = arena.alloc(n) {
                    live.push((addr, len));
                    expected += len as u64;
                }
            } else {
                let (addr, len) = live.swap_remove(n % live.len());
                arena.free(addr, len);
                expected -= len as u64;
            }
            prop_assert_eq!(arena.bytes_in_use(), expected);
        }
    }

    /// Java strings round-trip arbitrary Rust strings exactly.
    #[test]
    fn string_round_trips_arbitrary_text(s in ".{0,200}") {
        let heap = small_heap();
        let js = heap.alloc_string(&s).unwrap();
        prop_assert_eq!(heap.read_string(&js).unwrap(), s.clone());
        prop_assert_eq!(js.len(), s.encode_utf16().count());
    }

    /// Modified UTF-8 encode/decode round-trips arbitrary UTF-16 unit
    /// sequences, including unpaired surrogates.
    #[test]
    fn modified_utf8_round_trips_raw_units(units in prop::collection::vec(any::<u16>(), 0..120)) {
        let encoded = art_heap::encode_modified_utf8(&units);
        let decoded = art_heap::decode_modified_utf8(&encoded).unwrap();
        prop_assert_eq!(decoded, units);
        prop_assert!(!encoded.contains(&0), "never an embedded NUL");
    }

    /// Managed element accessors store and load arbitrary values exactly,
    /// and only within bounds.
    #[test]
    fn managed_accessors_are_exact_and_bounded(
        values in prop::collection::vec(any::<i32>(), 1..64),
        probe in any::<usize>(),
    ) {
        let heap = small_heap();
        let thread = JavaThread::new("prop");
        let a = heap.alloc_int_array_from(&values).unwrap();
        prop_assert_eq!(heap.int_array_as_vec(&thread, &a).unwrap(), values.clone());
        let result = heap.int_at(&thread, &a, probe);
        prop_assert_eq!(result.is_ok(), probe < values.len());
    }

    /// Dropping any subset of handles and sweeping collects exactly that
    /// subset.
    #[test]
    fn sweep_collects_exactly_the_dropped_handles(keep_mask in prop::collection::vec(any::<bool>(), 1..40)) {
        let heap = small_heap();
        let mut kept = Vec::new();
        let mut dropped = 0usize;
        for &keep in &keep_mask {
            let a = heap.alloc_int_array(8).unwrap();
            if keep {
                kept.push(a);
            } else {
                dropped += 1;
            }
        }
        let stats = heap.sweep();
        prop_assert_eq!(stats.swept, dropped);
        prop_assert_eq!(heap.live_count(), kept.len());
    }
}
