//! Property-based tests for the MTE simulator's core invariants.

use mte_sim::{MemoryConfig, MteThread, Tag, TaggedMemory, TaggedPtr, TcfMode, GRANULE, PAGE_SIZE};
use proptest::prelude::*;

const BASE: u64 = 0x7a00_0000_0000;
const SIZE: usize = 1 << 20;

fn mem() -> std::sync::Arc<TaggedMemory> {
    TaggedMemory::new(MemoryConfig { base: BASE, size: SIZE })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Pointer arithmetic never disturbs the tag, for any tag and offset.
    #[test]
    fn arithmetic_preserves_tag(addr in 0u64..(1 << 50), tag in 0u8..16, off in any::<i64>()) {
        let p = TaggedPtr::from_addr(addr).with_tag(Tag::new(tag).unwrap());
        let q = p.wrapping_offset(off);
        prop_assert_eq!(q.tag().value(), tag);
    }

    /// `with_tag` then `tag`/`addr` round-trips.
    #[test]
    fn with_tag_round_trips(addr in 0u64..(1 << 56), tag in 0u8..16) {
        let p = TaggedPtr::from_addr(addr).with_tag(Tag::new(tag).unwrap());
        prop_assert_eq!(p.addr(), addr);
        prop_assert_eq!(p.tag().value(), tag);
        prop_assert_eq!(TaggedPtr::from_raw(p.raw()), p);
    }

    /// Every byte of a granule observes the tag stored by `stg`, and the
    /// neighbouring granules are untouched.
    #[test]
    fn stg_scope_is_exactly_one_granule(
        granule_idx in 1usize..(PAGE_SIZE / GRANULE - 1),
        tag in 1u8..16,
    ) {
        let m = mem();
        m.mprotect_mte(BASE, PAGE_SIZE, true).unwrap();
        let addr = BASE + (granule_idx * GRANULE) as u64;
        let t = Tag::new(tag).unwrap();
        m.stg(TaggedPtr::from_addr(addr), t).unwrap();
        for off in 0..GRANULE as u64 {
            prop_assert_eq!(m.ldg(TaggedPtr::from_addr(addr + off)).unwrap(), t);
        }
        prop_assert_eq!(m.ldg(TaggedPtr::from_addr(addr - 1)).unwrap(), Tag::UNTAGGED);
        prop_assert_eq!(
            m.ldg(TaggedPtr::from_addr(addr + GRANULE as u64)).unwrap(),
            Tag::UNTAGGED
        );
    }

    /// `set_tag_range` tags exactly the granules covering `[begin, end)`.
    #[test]
    fn set_tag_range_exact_coverage(
        start_granule in 2usize..64,
        granules in 1usize..32,
        tag in 1u8..16,
    ) {
        let m = mem();
        m.mprotect_mte(BASE, 64 * PAGE_SIZE, true).unwrap();
        let begin = BASE + (start_granule * GRANULE) as u64;
        let end = begin + (granules * GRANULE) as u64;
        let t = Tag::new(tag).unwrap();
        m.set_tag_range(TaggedPtr::from_addr(begin), end, t).unwrap();
        prop_assert_eq!(m.ldg(TaggedPtr::from_addr(begin - 1)).unwrap(), Tag::UNTAGGED);
        for g in 0..granules {
            let a = begin + (g * GRANULE) as u64;
            prop_assert_eq!(m.ldg(TaggedPtr::from_addr(a)).unwrap(), t);
        }
        prop_assert_eq!(m.ldg(TaggedPtr::from_addr(end)).unwrap(), Tag::UNTAGGED);
    }

    /// A checked access succeeds iff the pointer tag matches the memory tag
    /// of every granule touched (sync mode).
    #[test]
    fn sync_check_matches_tag_equality(
        mem_tag in 0u8..16,
        ptr_tag in 0u8..16,
        len in 1usize..64,
        offset_in_granule in 0usize..GRANULE,
    ) {
        let m = mem();
        m.mprotect_mte(BASE, 16 * PAGE_SIZE, true).unwrap();
        let mt = Tag::new(mem_tag).unwrap();
        let pt = Tag::new(ptr_tag).unwrap();
        // Tag a comfortably large window with mem_tag.
        m.set_tag_range(TaggedPtr::from_addr(BASE), BASE + 4096, mt).unwrap();
        let thread = MteThread::new("p");
        thread.set_mode(TcfMode::Sync);
        thread.set_tco(false);
        let ptr = TaggedPtr::from_addr(BASE + offset_in_granule as u64).with_tag(pt);
        let mut buf = vec![0u8; len];
        let result = m.read_bytes(&thread, ptr, &mut buf);
        if mem_tag == ptr_tag {
            prop_assert!(result.is_ok());
        } else {
            prop_assert!(result.is_err());
        }
    }

    /// Async mode never blocks the access and always surfaces the fault at
    /// the next syscall.
    #[test]
    fn async_faults_surface_exactly_once(value in any::<u32>(), tag in 1u8..16) {
        let m = mem();
        m.mprotect_mte(BASE, PAGE_SIZE, true).unwrap();
        m.stg(TaggedPtr::from_addr(BASE), Tag::new(tag).unwrap()).unwrap();
        let thread = MteThread::new("p");
        thread.set_mode(TcfMode::Async);
        thread.set_tco(false);
        let wrong = TaggedPtr::from_addr(BASE); // untagged pointer, tagged memory
        m.store_u32(&thread, wrong, value).unwrap();
        prop_assert!(thread.syscall("write").is_err());
        prop_assert!(thread.syscall("write").is_ok(), "latch cleared after surfacing");
        // The store went through despite the mismatch.
        let reader = MteThread::new("r");
        prop_assert_eq!(
            m.load_u32(&reader, wrong).unwrap(),
            value
        );
    }

    /// `irg` never produces the untagged value, for any seed.
    #[test]
    fn irg_never_untagged(seed in any::<u64>()) {
        let t = MteThread::with_seed("p", seed);
        for _ in 0..64 {
            prop_assert!(!t.irg().is_untagged());
        }
    }

    /// Data written through one pointer is readable through any pointer to
    /// the same address when checks pass (tags do not affect stored data).
    #[test]
    fn tags_do_not_alias_data(
        value in any::<u64>(),
        tag_a in 0u8..16,
        tag_b in 0u8..16,
        granule in 0usize..256,
    ) {
        let m = mem();
        let t = MteThread::new("p"); // checks disabled
        let addr = BASE + (granule * GRANULE) as u64;
        let pa = TaggedPtr::from_addr(addr).with_tag(Tag::new(tag_a).unwrap());
        let pb = TaggedPtr::from_addr(addr).with_tag(Tag::new(tag_b).unwrap());
        m.store_u64(&t, pa, value).unwrap();
        prop_assert_eq!(m.load_u64(&t, pb).unwrap(), value);
    }
}
