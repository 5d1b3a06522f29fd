//! Differential oracle: the lock-free [`AtomicEntryTable`] must be
//! observationally identical — bit for bit — to the paper-faithful
//! [`TwoTierTable`] over arbitrary acquire/release sequences: same tags
//! (the `irg` streams are same-seeded), same shared flags, same release
//! outcomes, same tracked counts, and identical final granule tags.

use std::sync::Arc;

use mte4jni::{AtomicEntryTable, Borrow, Release, ReleaseOutcome, TagTable, TwoTierTable};
use mte_sim::{MemoryConfig, MteThread, TaggedMemory, TaggedPtr};

const BASE: u64 = 0x7a00_0000_0000;
const OBJECTS: u64 = 5;
const STRIDE: u64 = 0x100;
const LEN: u64 = 64;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

fn memory() -> Arc<TaggedMemory> {
    let mem = TaggedMemory::new(MemoryConfig {
        base: BASE,
        size: 1 << 20,
    });
    mem.mprotect_mte(BASE, 1 << 20, true).unwrap();
    mem
}

fn release_pair(
    a: &AtomicEntryTable,
    b: &TwoTierTable,
    mem_a: &TaggedMemory,
    mem_b: &TaggedMemory,
    (ba, bb): (Borrow, Borrow),
    context: &str,
) {
    let ra = a.release(mem_a, ba).unwrap();
    let rb = b.release(mem_b, bb).unwrap();
    match (&ra, &rb) {
        (Release::Freed, Release::Freed) => {}
        (Release::Shared { remaining: x }, Release::Shared { remaining: y }) if x == y => {}
        _ => panic!("{context}: release outcomes diverged: {ra:?} vs {rb:?}"),
    }
}

#[test]
fn lock_free_matches_two_tier_bit_for_bit() {
    for seed in 0..8u64 {
        let (mem_a, mem_b) = (memory(), memory());
        let ta = MteThread::with_seed("diff", 0xD1FF ^ seed);
        let tb = MteThread::with_seed("diff", 0xD1FF ^ seed);
        let a = AtomicEntryTable::new();
        let b = TwoTierTable::new(16);
        let mut stacks: Vec<Vec<(Borrow, Borrow)>> =
            (0..OBJECTS).map(|_| Vec::new()).collect();
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for step in 0..400 {
            let obj = (lcg(&mut rng) % OBJECTS) as usize;
            let addr = BASE + STRIDE * obj as u64;
            let begin = TaggedPtr::from_addr(addr);
            let end = addr + LEN;
            if lcg(&mut rng) % 2 == 1 {
                match stacks[obj].pop() {
                    Some(pair) => release_pair(
                        &a,
                        &b,
                        &mem_a,
                        &mem_b,
                        pair,
                        &format!("seed {seed} step {step}"),
                    ),
                    None => {
                        // Both tables agree strays are not their problem.
                        assert_eq!(
                            a.release_raw(&mem_a, begin, end).unwrap(),
                            ReleaseOutcome::NotTracked
                        );
                        assert_eq!(
                            b.release_raw(&mem_b, begin, end).unwrap(),
                            ReleaseOutcome::NotTracked
                        );
                    }
                }
            } else {
                let ba = a.acquire(&mem_a, &ta, begin, end).unwrap();
                let bb = b.acquire(&mem_b, &tb, begin, end).unwrap();
                assert_eq!(
                    ba.tag(),
                    bb.tag(),
                    "seed {seed} step {step}: tags diverged"
                );
                assert_eq!(
                    ba.shared(),
                    bb.shared(),
                    "seed {seed} step {step}: shared flags diverged"
                );
                stacks[obj].push((ba, bb));
            }
            assert_eq!(
                a.tracked_objects(),
                b.tracked_objects(),
                "seed {seed} step {step}: tracked counts diverged"
            );
        }
        // Drain the remaining borrows, then the final tag state must be
        // identical granule by granule (and fully untagged).
        for stack in &mut stacks {
            while let Some(pair) = stack.pop() {
                release_pair(&a, &b, &mem_a, &mem_b, pair, &format!("seed {seed} drain"));
            }
        }
        assert_eq!(a.tracked_objects(), 0);
        assert_eq!(b.tracked_objects(), 0);
        for g in 0..(OBJECTS * STRIDE / 16) {
            let addr = BASE + 16 * g;
            let (tag_a, tag_b) = (
                mem_a.raw_tag_at(addr).unwrap(),
                mem_b.raw_tag_at(addr).unwrap(),
            );
            assert_eq!(tag_a, tag_b, "seed {seed}: final tag at {addr:#x} diverged");
            assert!(tag_a.is_untagged(), "seed {seed}: tag leaked at {addr:#x}");
        }
    }
}
