//! Differential equivalence: the word-packed kernels in `TaggedMemory`
//! must be bit-equivalent to the retained scalar reference
//! (`ScalarMemory`) — same results, same fault kind and fault address,
//! same stats deltas, same final data and tag state — for arbitrary
//! unaligned offsets, lengths, tag maps, and `PROT_MTE` page patterns.

use mte_sim::{
    MemError, MemoryConfig, MteStatsSnapshot, MteThread, ScalarMemory, Tag, TaggedMemory,
    TaggedPtr, TcfMode, GRANULE, PAGE_SIZE,
};
use proptest::prelude::*;
use std::sync::Arc;

const BASE: u64 = 0x7a00_0000_0000;
/// Four pages: enough for cross-page accesses and mixed prot patterns
/// while keeping full-state comparison cheap.
const SIZE: usize = 4 * PAGE_SIZE;
const GRANULES: usize = SIZE / GRANULE;
/// Every tag-check fault mode; each proptest draws one.
const MODES: [TcfMode; 3] = [TcfMode::Sync, TcfMode::Async, TcfMode::None];

/// The wide implementation and its scalar oracle, driven in lockstep.
struct Pair {
    wide: Arc<TaggedMemory>,
    scalar: Arc<ScalarMemory>,
    /// Threads share a name so fault payloads compare equal.
    wt: MteThread,
    st: MteThread,
}

impl Pair {
    /// Builds both memories with an identical `PROT_MTE` page pattern
    /// (bit `i` of `prot_mask` maps page `i`), tag map, and data image.
    fn build(rng_tags: &[u8], prot_mask: u8, data_seed: u64, mode: TcfMode) -> Pair {
        let cfg = MemoryConfig { base: BASE, size: SIZE };
        let wide = TaggedMemory::new(cfg);
        let scalar = ScalarMemory::new(cfg);

        // Tag both while every page is PROT_MTE, then narrow to the
        // requested pattern — stored tags survive mprotect, exactly like
        // the kernel's behavior the simulator models.
        wide.mprotect_mte(BASE, SIZE, true).unwrap();
        scalar.mprotect_mte(BASE, SIZE, true).unwrap();
        for (g, &t) in rng_tags.iter().enumerate() {
            let p = TaggedPtr::from_addr(BASE + (g * GRANULE) as u64);
            let tag = Tag::from_low_bits(t);
            wide.stg(p, tag).unwrap();
            scalar.stg(p, tag).unwrap();
        }
        for page in 0..SIZE / PAGE_SIZE {
            let on = prot_mask & (1 << page) != 0;
            let addr = BASE + (page * PAGE_SIZE) as u64;
            wide.mprotect_mte(addr, PAGE_SIZE, on).unwrap();
            scalar.mprotect_mte(addr, PAGE_SIZE, on).unwrap();
        }

        // Deterministic data image, written through the unchecked path.
        let mut image = vec![0u8; SIZE];
        let mut s = data_seed | 1;
        for b in image.iter_mut() {
            s = s.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x632B);
            *b = (s >> 56) as u8;
        }
        let p0 = TaggedPtr::from_addr(BASE);
        wide.write_bytes_unchecked(p0, &image).unwrap();
        scalar.write_bytes_unchecked(p0, &image).unwrap();

        let wt = MteThread::new("diff");
        wt.set_mode(mode);
        wt.set_tco(false);
        let st = MteThread::new("diff");
        st.set_mode(mode);
        st.set_tco(false);
        Pair { wide, scalar, wt, st }
    }

    fn deltas(
        &self,
        w0: &MteStatsSnapshot,
        s0: &MteStatsSnapshot,
    ) -> (MteStatsSnapshot, MteStatsSnapshot) {
        (
            self.wide.stats().snapshot().since(w0),
            self.scalar.stats().snapshot().since(s0),
        )
    }

    /// Full-state comparison: every data byte and every granule tag.
    /// (The shim's `prop_assert*` macros panic, so plain asserts are
    /// equivalent here.)
    fn assert_same_state(&self) {
        let mut wd = vec![0u8; SIZE];
        let mut sd = vec![0u8; SIZE];
        let p0 = TaggedPtr::from_addr(BASE);
        self.wide.read_bytes_unchecked(p0, &mut wd).unwrap();
        self.scalar.read_bytes_unchecked(p0, &mut sd).unwrap();
        assert_eq!(wd, sd, "data images diverged");
        for g in 0..GRANULES {
            let a = BASE + (g * GRANULE) as u64;
            assert_eq!(
                self.wide.raw_tag_at(a).unwrap(),
                self.scalar.raw_tag_at(a).unwrap(),
                "tag map diverged at granule {g}"
            );
        }
    }
}

/// Both implementations must agree on the async-latch state too: drain
/// it via a simulated syscall and compare the surfaced faults.
fn assert_same_latch(p: &Pair) {
    let w = p.wt.syscall("diff-probe");
    let s = p.st.syscall("diff-probe");
    assert_eq!(w, s, "async fault latches diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Checked bulk reads: identical result (including the exact fault),
    /// identical bytes on success, identical stats deltas.
    #[test]
    fn read_bytes_matches_scalar(
        tags in prop::collection::vec(0u8..16, GRANULES..GRANULES + 1),
        prot_mask in 0u8..16,
        ptr_tag in 0u8..16,
        offset in 0usize..(SIZE - 600),
        len in 0usize..600,
        data_seed in any::<u64>(),
        mode_sel in 0usize..MODES.len(),
    ) {
        let mode = MODES[mode_sel];
        let p = Pair::build(&tags, prot_mask, data_seed, mode);
        let ptr = TaggedPtr::from_addr(BASE + offset as u64)
            .with_tag(Tag::from_low_bits(ptr_tag));
        let (w0, s0) = (p.wide.stats().snapshot(), p.scalar.stats().snapshot());
        let mut wbuf = vec![0u8; len];
        let mut sbuf = vec![0u8; len];
        let wr = p.wide.read_bytes(&p.wt, ptr, &mut wbuf);
        let sr = p.scalar.read_bytes(&p.st, ptr, &mut sbuf);
        prop_assert_eq!(&wr, &sr, "results diverged");
        if wr.is_ok() {
            prop_assert_eq!(wbuf, sbuf, "read bytes diverged");
        }
        let (wd, sd) = p.deltas(&w0, &s0);
        prop_assert_eq!(wd, sd, "stats deltas diverged");
        assert_same_latch(&p);
    }

    /// Checked bulk writes and fills, including async continuation
    /// semantics: the data image afterwards must match byte-for-byte.
    #[test]
    fn write_and_fill_match_scalar(
        tags in prop::collection::vec(0u8..16, GRANULES..GRANULES + 1),
        prot_mask in 0u8..16,
        ptr_tag in 0u8..16,
        offset in 0usize..(SIZE - 600),
        len in 0usize..600,
        fill_value in any::<u8>(),
        data_seed in any::<u64>(),
        mode_sel in 0usize..MODES.len(),
        use_fill in any::<bool>(),
    ) {
        let mode = MODES[mode_sel];
        let p = Pair::build(&tags, prot_mask, data_seed, mode);
        let ptr = TaggedPtr::from_addr(BASE + offset as u64)
            .with_tag(Tag::from_low_bits(ptr_tag));
        let (w0, s0) = (p.wide.stats().snapshot(), p.scalar.stats().snapshot());
        let (wr, sr) = if use_fill {
            (
                p.wide.fill(&p.wt, ptr, len, fill_value),
                p.scalar.fill(&p.st, ptr, len, fill_value),
            )
        } else {
            let payload: Vec<u8> = (0..len).map(|i| (i as u8) ^ fill_value).collect();
            (
                p.wide.write_bytes(&p.wt, ptr, &payload),
                p.scalar.write_bytes(&p.st, ptr, &payload),
            )
        };
        prop_assert_eq!(&wr, &sr, "results diverged");
        let (wd, sd) = p.deltas(&w0, &s0);
        prop_assert_eq!(wd, sd, "stats deltas diverged");
        p.assert_same_state();
        assert_same_latch(&p);
    }

    /// Scalar-width loads/stores (u8..u64) at arbitrary unaligned
    /// offsets, crossing word and granule boundaries, in every check mode
    /// with `TCO` set or clear. A quarter of the cases land within 16
    /// bytes of the region end, so the last word and `OutOfRange` are
    /// reached too.
    #[test]
    fn scalar_width_accesses_match(
        tags in prop::collection::vec(0u8..16, GRANULES..GRANULES + 1),
        prot_mask in 0u8..16,
        ptr_tag in 0u8..16,
        offset in 0usize..(SIZE - 8),
        tail_sel in 0u8..4,
        tail_offset in 0usize..24,
        value in any::<u64>(),
        width_sel in 0u8..4,
        data_seed in any::<u64>(),
        mode_sel in 0usize..MODES.len(),
        tco in any::<bool>(),
    ) {
        let mode = MODES[mode_sel];
        let p = Pair::build(&tags, prot_mask, data_seed, mode);
        p.wt.set_tco(tco);
        p.st.set_tco(tco);
        let offset = if tail_sel == 0 { SIZE - 16 + tail_offset } else { offset };
        let ptr = TaggedPtr::from_addr(BASE + offset as u64)
            .with_tag(Tag::from_low_bits(ptr_tag));
        let (w0, s0) = (p.wide.stats().snapshot(), p.scalar.stats().snapshot());
        let (wr, sr): (Result<u64, MemError>, Result<u64, MemError>) = match width_sel {
            0 => {
                let w = p.wide.store_u8(&p.wt, ptr, value as u8)
                    .and_then(|()| p.wide.load_u8(&p.wt, ptr).map(u64::from));
                let s = p.scalar.store_u8(&p.st, ptr, value as u8)
                    .and_then(|()| p.scalar.load_u8(&p.st, ptr).map(u64::from));
                (w, s)
            }
            1 => {
                let w = p.wide.store_u16(&p.wt, ptr, value as u16)
                    .and_then(|()| p.wide.load_u16(&p.wt, ptr).map(u64::from));
                let s = p.scalar.store_u16(&p.st, ptr, value as u16)
                    .and_then(|()| p.scalar.load_u16(&p.st, ptr).map(u64::from));
                (w, s)
            }
            2 => {
                let w = p.wide.store_u32(&p.wt, ptr, value as u32)
                    .and_then(|()| p.wide.load_u32(&p.wt, ptr).map(u64::from));
                let s = p.scalar.store_u32(&p.st, ptr, value as u32)
                    .and_then(|()| p.scalar.load_u32(&p.st, ptr).map(u64::from));
                (w, s)
            }
            _ => {
                let w = p.wide.store_u64(&p.wt, ptr, value)
                    .and_then(|()| p.wide.load_u64(&p.wt, ptr));
                let s = p.scalar.store_u64(&p.st, ptr, value)
                    .and_then(|()| p.scalar.load_u64(&p.st, ptr));
                (w, s)
            }
        };
        prop_assert_eq!(&wr, &sr, "results diverged");
        if let Ok(v) = wr {
            // Round-tripped value is the stored one (masked to width).
            let mask = match width_sel { 0 => 0xFF, 1 => 0xFFFF, 2 => 0xFFFF_FFFF, _ => u64::MAX };
            prop_assert_eq!(v, value & mask);
        }
        let (wd, sd) = p.deltas(&w0, &s0);
        prop_assert_eq!(wd, sd, "stats deltas diverged");
        p.assert_same_state();
        assert_same_latch(&p);
    }

    /// Tag instructions (`stg`/`st2g`/`stzg`/`ldg`/`set_tag_range`) over
    /// mixed `PROT_MTE` patterns: same errors, same tag map, same stats.
    #[test]
    fn tag_instructions_match_scalar(
        tags in prop::collection::vec(0u8..16, GRANULES..GRANULES + 1),
        prot_mask in 0u8..16,
        granule in 0usize..(GRANULES - 2),
        span_granules in 1usize..96,
        new_tag in 0u8..16,
        sub_offset in 0usize..GRANULE,
        op_sel in 0u8..5,
        data_seed in any::<u64>(),
    ) {
        let p = Pair::build(&tags, prot_mask, data_seed, TcfMode::Sync);
        let addr = BASE + (granule * GRANULE + sub_offset) as u64;
        let ptr = TaggedPtr::from_addr(addr);
        let tag = Tag::from_low_bits(new_tag);
        let (w0, s0) = (p.wide.stats().snapshot(), p.scalar.stats().snapshot());
        match op_sel {
            0 => prop_assert_eq!(p.wide.stg(ptr, tag), p.scalar.stg(ptr, tag)),
            1 => prop_assert_eq!(p.wide.st2g(ptr, tag), p.scalar.st2g(ptr, tag)),
            2 => prop_assert_eq!(p.wide.stzg(ptr, tag), p.scalar.stzg(ptr, tag)),
            3 => prop_assert_eq!(p.wide.ldg(ptr), p.scalar.ldg(ptr)),
            _ => {
                let end = (addr + (span_granules * GRANULE) as u64).min(BASE + SIZE as u64);
                prop_assert_eq!(
                    p.wide.set_tag_range(ptr, end, tag),
                    p.scalar.set_tag_range(ptr, end, tag)
                );
            }
        }
        let (wd, sd) = p.deltas(&w0, &s0);
        prop_assert_eq!(wd, sd, "stats deltas diverged");
        p.assert_same_state();
    }

    /// Fault payloads: with a guaranteed-mismatching pointer into fully
    /// tagged memory, both kernels report the identical `TagCheckFault`
    /// (kind, fault address, pointer tag, memory tag, access kind).
    #[test]
    fn sync_fault_payloads_match(
        mem_tag in 1u8..16,
        offset in 0usize..(SIZE - 600),
        len in 1usize..600,
        data_seed in any::<u64>(),
        write in any::<bool>(),
    ) {
        // All granules carry mem_tag; the pointer carries a different tag.
        let tags = vec![mem_tag; GRANULES];
        let p = Pair::build(&tags, 0xF, data_seed, TcfMode::Sync);
        let ptr_tag = Tag::from_low_bits(mem_tag ^ 0xF); // != mem_tag for 1..16
        let ptr = TaggedPtr::from_addr(BASE + offset as u64).with_tag(ptr_tag);
        let (wr, sr) = if write {
            let payload = vec![0xA5u8; len];
            (
                p.wide.write_bytes(&p.wt, ptr, &payload),
                p.scalar.write_bytes(&p.st, ptr, &payload),
            )
        } else {
            let mut wbuf = vec![0u8; len];
            let mut sbuf = vec![0u8; len];
            (
                p.wide.read_bytes(&p.wt, ptr, &mut wbuf),
                p.scalar.read_bytes(&p.st, ptr, &mut sbuf),
            )
        };
        let we = wr.unwrap_err();
        let se = sr.unwrap_err();
        let wf = we.as_tag_check().expect("wide fault");
        let sf = se.as_tag_check().expect("scalar fault");
        prop_assert_eq!(wf.kind, sf.kind);
        prop_assert_eq!(wf.pointer, sf.pointer, "fault address diverged");
        prop_assert_eq!(wf.pointer_tag, sf.pointer_tag);
        prop_assert_eq!(wf.memory_tag, sf.memory_tag);
        prop_assert_eq!(wf.access, sf.access);
        prop_assert_eq!(we, se, "full fault payloads diverged");
    }
}

/// Satellite regression: a `NotProtMte` page mid-range must leave the
/// tag map completely untouched — the old scalar loop retagged every
/// granule before the bad page and then errored out.
#[test]
fn set_tag_range_failure_leaves_tags_untouched() {
    let cfg = MemoryConfig { base: BASE, size: SIZE };
    let m = TaggedMemory::new(cfg);
    // Page 0 mapped, page 1 not: a range crossing into page 1 must fail.
    m.mprotect_mte(BASE, PAGE_SIZE, true).unwrap();
    let begin = TaggedPtr::from_addr(BASE + (PAGE_SIZE - 4 * GRANULE) as u64);
    let end = BASE + (PAGE_SIZE + 4 * GRANULE) as u64;
    let err = m.set_tag_range(begin, end, Tag::new(0xB).unwrap()).unwrap_err();
    assert!(
        matches!(err, MemError::NotProtMte { addr } if addr == BASE + PAGE_SIZE as u64),
        "error reports the first granule on the unmapped page: {err:?}"
    );
    // No granule — in particular none of the in-page prefix — was tagged.
    for g in 0..GRANULES {
        let a = BASE + (g * GRANULE) as u64;
        assert_eq!(m.raw_tag_at(a).unwrap(), Tag::UNTAGGED, "granule {g} was partially tagged");
    }
    // Stats did not count a partial store either.
    assert_eq!(m.stats().snapshot().stg_ops, 0);
}
