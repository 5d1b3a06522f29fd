//! Property tests for the reference-counted tag tables: any interleaved
//! sequence of acquires and releases over a handful of objects must
//! match a trivial sequential reference-count model, on all three
//! backends (lock-free, two-tier, global-lock).

use std::collections::HashMap;
use std::sync::Arc;

use mte4jni::{Borrow, Release, ReleaseOutcome, TableBackend, TableConfig, TagTable};
use mte_sim::{MemoryConfig, MteThread, Tag, TaggedMemory, TaggedPtr};
use proptest::prelude::*;

const BASE: u64 = 0x7a00_0000_0000;
const OBJECTS: usize = 4;
const OBJ_STRIDE: u64 = 0x100;
const OBJ_LEN: u64 = 64;

const BACKENDS: [TableBackend; 3] = [
    TableBackend::LockFree,
    TableBackend::TwoTier,
    TableBackend::Global,
];

fn setup() -> (Arc<TaggedMemory>, MteThread) {
    let mem = TaggedMemory::new(MemoryConfig {
        base: BASE,
        size: 1 << 20,
    });
    mem.mprotect_mte(BASE, 1 << 20, true).unwrap();
    (mem, MteThread::with_seed("prop", 0x7ab1e))
}

fn table_for(backend: TableBackend) -> Box<dyn TagTable> {
    TableConfig {
        backend,
        ..TableConfig::default()
    }
    .build()
}

fn obj_range(i: usize) -> (TaggedPtr, u64) {
    let addr = BASE + OBJ_STRIDE * i as u64;
    (TaggedPtr::from_addr(addr), addr + OBJ_LEN)
}

/// Drives `ops` (object index, is_release) against a real table and the
/// model; returns an error message on the first divergence.
fn check_against_model(backend: TableBackend, ops: &[(usize, bool)]) -> Result<(), String> {
    let (mem, thread) = setup();
    let table = table_for(backend);
    // The model: per-object stack of live borrow tokens and live tag.
    let mut borrows: HashMap<usize, Vec<Borrow>> = HashMap::new();
    let mut tags: HashMap<usize, Tag> = HashMap::new();

    for (step, &(obj, is_release)) in ops.iter().enumerate() {
        let (begin, end) = obj_range(obj);
        let held = borrows.entry(obj).or_default();
        if is_release {
            match held.pop() {
                // Never-acquired (or fully released) objects are not the
                // table's problem: Algorithm 2's early-out, reachable only
                // through the untyped escape hatch.
                None => {
                    let outcome = table
                        .release_raw(&mem, begin, end)
                        .map_err(|e| format!("step {step}: stray release error {e}"))?;
                    if outcome != ReleaseOutcome::NotTracked {
                        return Err(format!(
                            "step {step}: model count 0 but table said {outcome:?}"
                        ));
                    }
                }
                Some(borrow) => {
                    let n = held.len() as u32 + 1;
                    let release = table
                        .release(&mem, borrow)
                        .map_err(|e| format!("step {step}: release error {e}"))?;
                    match (n, release) {
                        (1, Release::Freed) => {
                            tags.remove(&obj);
                            // The tag must be re-zeroed exactly at count zero.
                            let seen =
                                mem.ldg(begin).map_err(|e| format!("step {step}: {e}"))?;
                            if !seen.is_untagged() {
                                return Err(format!("step {step}: tag {seen:?} survived Freed"));
                            }
                        }
                        (n, Release::Shared { remaining }) if n > 1 => {
                            // The count never underflows: remaining == n - 1.
                            if remaining != n - 1 {
                                return Err(format!(
                                    "step {step}: count {n} decremented to {remaining}"
                                ));
                            }
                        }
                        (n, release) => {
                            return Err(format!(
                                "step {step}: model count {n} but table said {release:?}"
                            ));
                        }
                    }
                }
            }
        } else {
            let borrow = table
                .acquire(&mem, &thread, begin, end)
                .map_err(|e| format!("step {step}: acquire error {e}"))?;
            if borrow.shared() == held.is_empty() {
                return Err(format!(
                    "step {step}: model count {} but shared={}",
                    held.len(),
                    borrow.shared()
                ));
            }
            if let Some(&live) = tags.get(&obj) {
                // Concurrent (here: overlapping) getters observe one tag.
                if borrow.tag() != live {
                    return Err(format!(
                        "step {step}: second acquire saw {:?}, first saw {live:?}",
                        borrow.tag()
                    ));
                }
            } else {
                tags.insert(obj, borrow.tag());
            }
            let seen = mem.ldg(begin).map_err(|e| format!("step {step}: {e}"))?;
            if seen != borrow.tag() {
                return Err(format!(
                    "step {step}: memory holds {seen:?}, acquire returned {:?}",
                    borrow.tag()
                ));
            }
            held.push(borrow);
        }
    }

    let live = borrows.values().filter(|b| !b.is_empty()).count();
    if table.tracked_objects() != live {
        return Err(format!(
            "end: model has {live} live objects, table tracks {}",
            table.tracked_objects()
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any acquire/release interleaving matches the sequential model on
    /// all backends: no underflow, `Freed` exactly at the last release,
    /// `NotTracked` for never-acquired addresses.
    #[test]
    fn tables_match_the_reference_count_model(
        ops in prop::collection::vec((0usize..OBJECTS, any::<bool>()), 0..120),
    ) {
        for backend in BACKENDS {
            if let Err(msg) = check_against_model(backend, &ops) {
                panic!("{backend:?}: {msg}");
            }
        }
    }

    /// Releasing addresses that were never acquired — including addresses
    /// interleaved between real objects — is always `NotTracked` and
    /// never disturbs live entries.
    #[test]
    fn never_acquired_addresses_release_as_not_tracked(
        live in 0usize..OBJECTS,
        strays in prop::collection::vec(0u64..32, 1..16),
    ) {
        for backend in BACKENDS {
            let (mem, thread) = setup();
            let table = table_for(backend);
            let (begin, end) = obj_range(live);
            let borrow = table.acquire(&mem, &thread, begin, end).unwrap();
            let tag = borrow.tag();
            for &s in &strays {
                // Offset by granules: never equal to a tracked begin.
                let addr = BASE + OBJ_STRIDE * OBJECTS as u64 + 16 * s;
                let stray = TaggedPtr::from_addr(addr);
                let outcome = table.release_raw(&mem, stray, addr + OBJ_LEN).unwrap();
                prop_assert_eq!(outcome, ReleaseOutcome::NotTracked);
            }
            prop_assert_eq!(table.tracked_objects(), 1);
            prop_assert_eq!(mem.ldg(begin).unwrap(), tag);
            assert!(matches!(table.release(&mem, borrow), Ok(Release::Freed)));
        }
    }
}

// Exhaustively check the underflow edge: double-release after a single
// acquire must hit NotTracked, not wrap the count. The typed API makes
// this a compile error (the token is consumed); the raw escape hatch is
// where the edge still exists.
#[test]
fn double_release_never_underflows() {
    for backend in BACKENDS {
        let (mem, thread) = setup();
        let table = table_for(backend);
        let (begin, end) = obj_range(0);
        let borrow = table.acquire(&mem, &thread, begin, end).unwrap();
        assert!(matches!(table.release(&mem, borrow), Ok(Release::Freed)));
        for _ in 0..3 {
            assert_eq!(
                table.release_raw(&mem, begin, end).unwrap(),
                ReleaseOutcome::NotTracked,
                "{backend:?}: release after Freed must be NotTracked"
            );
        }
        assert_eq!(table.tracked_objects(), 0);
    }
}
