//! The harness's own acceptance tests: seed determinism, deadlock
//! detection, fault-injection robustness, and the mutation self-check.

use std::sync::Arc;

use mte_sim::inject::FaultPlan;
use stress::harness::{
    run_containment_schedule, run_lifecycle_schedule, run_schedule, SchemeKind, StressConfig,
};
use stress::sched::{self, trace_hash, Abort};

fn render(result: &stress::harness::ScheduleResult) -> String {
    result
        .report
        .trace
        .iter()
        .map(|ev| ev.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn same_seed_replays_the_same_schedule_bit_for_bit() {
    let cfg = StressConfig {
        fault_plan: FaultPlan::uniform(2000),
        ..StressConfig::default()
    };
    for kind in SchemeKind::REAL {
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let a = run_schedule(kind, seed, &cfg);
            let b = run_schedule(kind, seed, &cfg);
            assert_eq!(
                render(&a),
                render(&b),
                "{}: seed {seed:#x} must replay identically",
                kind.label()
            );
            assert_eq!(trace_hash(&a.report.trace), trace_hash(&b.report.trace));
            assert_eq!(a.violations, b.violations);
            assert_eq!(a.fresh_acquires, b.fresh_acquires);
            assert_eq!(a.injected, b.injected);
        }
    }
}

#[test]
fn different_seeds_explore_different_interleavings() {
    let cfg = StressConfig::default();
    let hashes: Vec<u64> = (0..16)
        .map(|seed| trace_hash(&run_schedule(SchemeKind::TwoTier, seed, &cfg).report.trace))
        .collect();
    let distinct: std::collections::HashSet<_> = hashes.iter().collect();
    // Identical traces for a few seeds are fine; all-16-identical means
    // the seed is not reaching the scheduler.
    assert!(
        distinct.len() > 1,
        "16 seeds produced a single interleaving: {hashes:?}"
    );
}

#[test]
fn real_schemes_survive_contention_and_heavy_fault_injection() {
    // 10% failure at every injection point: the error paths *are* the
    // workload. Any oracle violation here is a rollback bug.
    let cfg = StressConfig {
        fault_plan: FaultPlan::uniform(100_000),
        ..StressConfig::default()
    };
    for kind in SchemeKind::REAL {
        for seed in 0..40u64 {
            let r = run_schedule(kind, seed, &cfg);
            assert!(
                r.violations.is_empty(),
                "{} seed {seed}: {:?}\ntrace:\n{}",
                kind.label(),
                r.violations,
                render(&r)
            );
        }
    }
}

#[test]
fn lifecycle_schedules_replay_bit_for_bit() {
    let cfg = StressConfig {
        fault_plan: FaultPlan::uniform(2000),
        ..StressConfig::default()
    };
    for kind in SchemeKind::REAL {
        for seed in [3u64, 0xBEEF] {
            let a = run_lifecycle_schedule(kind, seed, &cfg);
            let b = run_lifecycle_schedule(kind, seed, &cfg);
            assert_eq!(render(&a), render(&b), "{}: seed {seed:#x}", kind.label());
            assert_eq!(a.violations, b.violations);
            assert_eq!(a.fresh_acquires, b.fresh_acquires);
            assert_eq!(a.freed, b.freed);
        }
    }
}

#[test]
fn lifecycle_schedules_stay_clean_under_fault_injection() {
    // The dead-but-borrowed regression schedule: every seed must keep the
    // sweep away from borrowed objects and leave no entry, pin, or stale
    // tag behind — even with the error paths forced into the state space.
    let cfg = StressConfig {
        fault_plan: FaultPlan::uniform(20_000),
        ..StressConfig::default()
    };
    for kind in SchemeKind::REAL {
        for seed in 0..20u64 {
            let r = run_lifecycle_schedule(kind, seed, &cfg);
            assert!(
                r.violations.is_empty(),
                "{} seed {seed}: {:?}\ntrace:\n{}",
                kind.label(),
                r.violations,
                render(&r)
            );
            assert_eq!(
                r.fresh_acquires, r.freed,
                "{} seed {seed}: every acquire must reach its final release",
                kind.label()
            );
        }
    }
}

/// A mixed per-point plan like the CI containment gate's.
fn mixed_plan() -> FaultPlan {
    FaultPlan {
        irg_exhaust_ppm: 2000,
        ldg_fail_ppm: 2000,
        stg_fail_ppm: 2000,
        alloc_fail_ppm: 2000,
        spurious_check_ppm: 2000,
    }
}

#[test]
fn containment_schedules_replay_bit_for_bit() {
    let cfg = StressConfig {
        fault_plan: mixed_plan(),
        ..StressConfig::default()
    };
    for kind in [SchemeKind::LockFree, SchemeKind::TwoTier, SchemeKind::Global] {
        for seed in [5u64, 0xFACE] {
            let a = run_containment_schedule(kind, seed, &cfg);
            let b = run_containment_schedule(kind, seed, &cfg);
            assert_eq!(render(&a), render(&b), "{}: seed {seed:#x}", kind.label());
            assert_eq!(a.violations, b.violations);
            assert_eq!(a.contained, b.contained);
            assert_eq!(a.degraded_quarantine, b.degraded_quarantine);
            assert_eq!(a.degraded_exhaust, b.degraded_exhaust);
        }
    }
}

#[test]
fn containment_schedules_survive_faults_and_observe_degradation() {
    // The containment oracle: every schedule's VM survives its own
    // out-of-bounds natives plus injected failures with nothing leaked —
    // and across the sweep, faults actually get contained and at least
    // one method is quarantined onto guarded copy.
    let cfg = StressConfig {
        rounds: 4,
        fault_plan: mixed_plan(),
        ..StressConfig::default()
    };
    let mut contained = 0;
    let mut degraded = 0;
    for seed in 0..30u64 {
        let r = run_containment_schedule(SchemeKind::TwoTier, seed, &cfg);
        assert!(
            r.violations.is_empty(),
            "seed {seed}: {:?}\ntrace:\n{}",
            r.violations,
            render(&r)
        );
        contained += r.contained;
        degraded += r.degraded_quarantine;
    }
    assert!(contained > 0, "no schedule contained a fault");
    assert!(degraded > 0, "no schedule quarantined a method");
}

/// Scheduler-hosted differential: workers drive the lock-free table and
/// the two-tier table in lockstep (each paired op under one per-object
/// mutex, with same-seeded `irg` streams), so under every explored
/// interleaving both tables must hand out bit-identical tags, identical
/// shared flags, and identical release outcomes.
#[test]
fn lock_free_matches_two_tier_under_the_scheduler() {
    use mte4jni::{AtomicEntryTable, ReleaseOutcome, TagTable, TwoTierTable};
    use mte_sim::sync::{yield_point, Mutex};
    use mte_sim::{MemoryConfig, MteThread, TaggedMemory, TaggedPtr};

    const BASE: u64 = 0x7a00_0000_0000;
    const OBJECTS: usize = 3;
    let memory = || {
        let mem = TaggedMemory::new(MemoryConfig {
            base: BASE,
            size: 1 << 20,
        });
        mem.mprotect_mte(BASE, 1 << 20, true).unwrap();
        mem
    };
    for seed in 0..24u64 {
        let mem_a = memory();
        let mem_b = memory();
        let a: Arc<dyn TagTable> = Arc::new(AtomicEntryTable::new());
        let b: Arc<dyn TagTable> = Arc::new(TwoTierTable::new(16));
        let pair_locks: Arc<Vec<Mutex<()>>> =
            Arc::new((0..OBJECTS).map(|_| Mutex::new(())).collect());

        let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..3usize)
            .map(|worker| {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                let (mem_a, mem_b) = (Arc::clone(&mem_a), Arc::clone(&mem_b));
                let pair_locks = Arc::clone(&pair_locks);
                Box::new(move || {
                    let ta = MteThread::with_seed("diff", seed ^ worker as u64);
                    let tb = MteThread::with_seed("diff", seed ^ worker as u64);
                    for round in 0..4 {
                        let obj = (worker + round) % OBJECTS;
                        let addr = BASE + 0x100 * obj as u64;
                        let begin = TaggedPtr::from_addr(addr);
                        let end = addr + 64;
                        {
                            let _g = pair_locks[obj].lock();
                            let ba = a.acquire(&mem_a, &ta, begin, end).unwrap();
                            let bb = b.acquire(&mem_b, &tb, begin, end).unwrap();
                            assert_eq!(ba, bb, "seed {seed}: tag or shared flag diverged");
                        }
                        yield_point("diff-holding");
                        let _g = pair_locks[obj].lock();
                        let ra = a.release(&mem_a, begin, end).unwrap();
                        let rb = b.release(&mem_b, begin, end).unwrap();
                        assert_eq!(ra, rb, "seed {seed}: releases diverged");
                        assert_ne!(
                            ra,
                            ReleaseOutcome::NotTracked,
                            "seed {seed}: live borrow untracked"
                        );
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();

        let report = sched::run(seed, 20_000, bodies);
        assert!(
            report.clean() && report.panics.is_empty(),
            "seed {seed}: {:?}",
            report.panics
        );
        assert_eq!(a.tracked_objects(), 0, "seed {seed}");
        assert_eq!(b.tracked_objects(), 0, "seed {seed}");
        for obj in 0..OBJECTS as u64 {
            let addr = BASE + 0x100 * obj;
            assert_eq!(
                mem_a.raw_tag_at(addr).unwrap(),
                mem_b.raw_tag_at(addr).unwrap(),
                "seed {seed}: final tag at {addr:#x} diverged"
            );
        }
    }
}

#[test]
fn scheduler_flags_lock_order_inversion_as_deadlock() {
    let a = Arc::new(mte_sim::sync::Mutex::new(0u32));
    let b = Arc::new(mte_sim::sync::Mutex::new(0u32));
    // Search a few seeds: the inversion only deadlocks when the token
    // interleaves the two threads between their first and second locks.
    let hit = (0..64u64).any(|seed| {
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let report = sched::run(
            seed,
            10_000,
            vec![
                Box::new(move || {
                    let _ga = a1.lock();
                    mte_sim::sync::yield_point("inversion");
                    let _gb = b1.lock();
                }),
                Box::new(move || {
                    let _gb = b2.lock();
                    mte_sim::sync::yield_point("inversion");
                    let _ga = a2.lock();
                }),
            ],
        );
        report.abort == Some(Abort::Deadlock)
    });
    assert!(hit, "no seed in 0..64 exposed the AB/BA deadlock");
}

#[test]
fn scheduler_aborts_runaway_schedules_on_budget() {
    let m = Arc::new(mte_sim::sync::Mutex::new(0u64));
    let m2 = Arc::clone(&m);
    let report = sched::run(
        3,
        50,
        vec![Box::new(move || loop {
            *m2.lock() += 1;
        })],
    );
    assert_eq!(report.abort, Some(Abort::BudgetExhausted));
    assert!(report.steps >= 50);
}

mod mutation {
    use super::*;

    /// The self-check budget: both seeded bugs must fall within this
    /// many schedules (in practice they fall in the first few).
    const BUDGET: u64 = 64;

    fn caught_within(kind: SchemeKind, budget: u64) -> Option<u64> {
        let cfg = StressConfig::default();
        (0..budget).find(|&seed| !run_schedule(kind, seed, &cfg).violations.is_empty())
    }

    #[test]
    fn broken_lock_free_is_caught_within_budget() {
        let at = caught_within(SchemeKind::BrokenLockFree, BUDGET);
        assert!(at.is_some(), "lost-update bug survived {BUDGET} schedules");
    }

    #[test]
    fn broken_two_tier_is_caught_within_budget() {
        let at = caught_within(SchemeKind::BrokenTwoTier, BUDGET);
        assert!(at.is_some(), "lost-update bug survived {BUDGET} schedules");
    }

    #[test]
    fn broken_global_is_caught_within_budget() {
        let at = caught_within(SchemeKind::BrokenGlobal, BUDGET);
        assert!(at.is_some(), "lost-update bug survived {BUDGET} schedules");
    }

    #[test]
    fn the_catch_is_itself_deterministic() {
        let cfg = StressConfig::default();
        let seed = (0..BUDGET)
            .find(|&s| !run_schedule(SchemeKind::BrokenTwoTier, s, &cfg).violations.is_empty())
            .expect("bug must be catchable");
        let a = run_schedule(SchemeKind::BrokenTwoTier, seed, &cfg);
        let b = run_schedule(SchemeKind::BrokenTwoTier, seed, &cfg);
        assert_eq!(a.violations, b.violations);
        assert_eq!(render(&a), render(&b));
    }
}
