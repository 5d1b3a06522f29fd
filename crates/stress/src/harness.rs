//! Workloads + invariant oracle: one seeded schedule per call.
//!
//! Each schedule builds a fresh simulated memory (and, in guarded mode,
//! a fresh VM), runs N worker bodies under the deterministic scheduler,
//! and checks the scheme's invariants two ways:
//!
//! * **online probes** — immediately after an acquire and again after a
//!   yield while the borrow is held, the worker `ldg`s the object's
//!   first granule and panics (`VIOLATION: …`) unless it matches the
//!   acquired tag: a borrowed object's tags must never change underneath
//!   its holder. Release outcomes are checked inline the same way
//!   (`NotTracked` for a live borrow, impossible remaining counts).
//! * **quiescence oracle** — after a clean schedule, every entry must be
//!   gone, every object's tags re-zeroed, and the number of `Freed`
//!   outcomes must equal the number of fresh (non-shared) acquires:
//!   tags are released exactly when the last borrower leaves.
//!
//! Fault injection (when the `fault_plan` has any nonzero rate) makes
//! the error paths part of
//! the explored state space: workers tolerate `MemError::Injected` /
//! allocation failures and retry releases, so any imbalance that
//! survives to the oracle is the scheme's fault, not the injector's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use art_heap::{HeapConfig, PrimitiveType};
use guarded_copy::GuardedCopy;
use jni_rt::{
    ContainmentConfig, FaultPolicy, JniError, NativeArray, NativeKind, Protection, ReleaseMode, Vm,
};
use mte4jni::{
    AtomicEntryTable, GlobalLockTable, Mte4Jni, ReleaseOutcome, TableBackend, TableConfig,
    TagTable, TwoTierTable,
};
use mte_sim::inject::{self, FaultPlan, InjectCounters};
use mte_sim::sync::yield_point;
use mte_sim::{MemError, MemoryConfig, MteThread, Tag, TaggedMemory, TaggedPtr, TcfMode};

use crate::sched::{self, RunReport};

use crate::broken::{BrokenGlobal, BrokenLockFree, BrokenTwoTier};

/// Base address of the per-schedule simulated memory.
const BASE: u64 = 0x7a00_0000_0000;
/// Per-schedule memory size: small, so hundreds of schedules stay cheap.
const MEM_SIZE: usize = 1 << 20;
/// Release retries under injection before a worker gives up.
const RELEASE_RETRIES: usize = 64;

/// Which scheme a schedule exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeKind {
    /// The lock-free packed-word table (production default).
    LockFree,
    /// The paper's two-tier locking table (§3.1.2).
    TwoTier,
    /// The global-lock ablation table.
    Global,
    /// The guarded-copy shadow ledger.
    Guarded,
    /// Deliberately broken lock-free variant (mutation self-check).
    BrokenLockFree,
    /// Deliberately broken two-tier variant (mutation self-check).
    BrokenTwoTier,
    /// Deliberately broken global variant (mutation self-check).
    BrokenGlobal,
}

impl SchemeKind {
    /// Display/report label.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::LockFree => "lock-free",
            SchemeKind::TwoTier => "two-tier",
            SchemeKind::Global => "global",
            SchemeKind::Guarded => "guarded",
            SchemeKind::BrokenLockFree => "broken-lock-free",
            SchemeKind::BrokenTwoTier => "broken-two-tier",
            SchemeKind::BrokenGlobal => "broken-global",
        }
    }

    /// The real (non-mutated) schemes, in report order.
    pub const REAL: [SchemeKind; 4] = [
        SchemeKind::LockFree,
        SchemeKind::TwoTier,
        SchemeKind::Global,
        SchemeKind::Guarded,
    ];
}

/// Knobs for one schedule.
#[derive(Clone, Copy, Debug)]
pub struct StressConfig {
    /// Worker threads per schedule. Small counts explore deeper: the
    /// interleaving space grows exponentially in thread count.
    pub threads: usize,
    /// Distinct objects; fewer objects means more contention.
    pub objects: usize,
    /// Acquire/release rounds per worker.
    pub rounds: usize,
    /// Schedule-point budget before the scheduler aborts the run.
    pub max_steps: u64,
    /// Per-point fault-injection rates (parts per million); an all-zero
    /// plan disables injection. [`FaultPlan::uniform`] reproduces the
    /// old single-rate knob.
    pub fault_plan: FaultPlan,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            threads: 3,
            objects: 2,
            rounds: 3,
            max_steps: 20_000,
            fault_plan: FaultPlan::default(),
        }
    }
}

/// Everything observed in one schedule.
#[derive(Clone, Debug)]
pub struct ScheduleResult {
    /// The schedule trace and abort/panic state.
    pub report: RunReport,
    /// Invariant violations: worker panics plus quiescence-oracle
    /// failures. Empty for a correct scheme.
    pub violations: Vec<String>,
    /// Fresh (non-shared) acquires across all workers.
    pub fresh_acquires: u64,
    /// `Freed` release outcomes across all workers.
    pub freed: u64,
    /// Faults the injector forced during the schedule.
    pub injected: u64,
    /// Tag-check faults contained at the trampoline boundary (containment
    /// workload; zero elsewhere).
    pub contained: u64,
    /// Acquires degraded to guarded copy because the method was
    /// quarantined (containment workload; zero elsewhere).
    pub degraded_quarantine: u64,
    /// Acquires degraded to guarded copy on `irg` tag-pool exhaustion
    /// (containment workload; zero elsewhere).
    pub degraded_exhaust: u64,
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Table backend a VM-mounted schedule uses for `kind`. The broken
/// mutants cannot be mounted behind a VM (the scheme builds its own
/// table), so they map to their real counterparts; `Guarded` never
/// reaches this.
fn vm_backend(kind: SchemeKind) -> TableBackend {
    match kind {
        SchemeKind::TwoTier => TableBackend::TwoTier,
        SchemeKind::BrokenTwoTier => TableBackend::TwoTier,
        SchemeKind::Global => TableBackend::Global,
        SchemeKind::BrokenGlobal => TableBackend::Global,
        _ => TableBackend::LockFree,
    }
}

/// Runs one seeded schedule of `kind` and returns what happened. Same
/// `(kind, seed, cfg)` ⇒ identical trace, violations and counts.
pub fn run_schedule(kind: SchemeKind, seed: u64, cfg: &StressConfig) -> ScheduleResult {
    match kind {
        SchemeKind::LockFree => {
            run_table_schedule(Arc::new(AtomicEntryTable::new()), seed, cfg)
        }
        SchemeKind::TwoTier => {
            run_table_schedule(Arc::new(TwoTierTable::new(16)), seed, cfg)
        }
        SchemeKind::Global => run_table_schedule(Arc::new(GlobalLockTable::new()), seed, cfg),
        SchemeKind::Guarded => run_guarded_schedule(seed, cfg),
        SchemeKind::BrokenLockFree => {
            run_table_schedule(Arc::new(BrokenLockFree::new()), seed, cfg)
        }
        SchemeKind::BrokenTwoTier => {
            run_table_schedule(Arc::new(BrokenTwoTier::new(16)), seed, cfg)
        }
        SchemeKind::BrokenGlobal => run_table_schedule(Arc::new(BrokenGlobal::new()), seed, cfg),
    }
}

fn probe(mem: &TaggedMemory, begin: TaggedPtr, tag: Tag, when: &str) {
    match mem.ldg(begin) {
        Ok(seen) if seen == tag => {}
        Ok(seen) => panic!(
            "VIOLATION: {when}: memory tag {seen:?} does not match acquired tag {tag:?}"
        ),
        // An injected ldg failure makes this probe inconclusive.
        Err(_) => {}
    }
}

/// Shared tallies the oracle balances after the schedule.
#[derive(Default)]
struct Tallies {
    fresh: AtomicU64,
    freed: AtomicU64,
    injected: Arc<InjectCounters>,
}

fn table_worker(
    table: &dyn TagTable,
    mem: &TaggedMemory,
    objects: &[u64],
    worker: usize,
    seed: u64,
    cfg: &StressConfig,
    tallies: &Tallies,
) {
    if cfg.fault_plan.is_active() {
        inject::install(
            cfg.fault_plan,
            mix(seed, worker as u64 + 1),
            Arc::clone(&tallies.injected),
        );
    }
    let t = MteThread::with_seed("stress", mix(seed, 0x7487) ^ worker as u64);
    for round in 0..cfg.rounds {
        let addr = objects[(worker + round) % objects.len()];
        let begin = TaggedPtr::from_addr(addr);
        let end = addr + 64;
        let (tag, shared) = match table.acquire(mem, &t, begin, end) {
            Ok(acquired) => acquired,
            // Injected failures (including forced irg exhaustion) are
            // tolerated; the rollback contract says they must leave the
            // table unchanged, which the oracle checks.
            Err(MemError::Injected { .. })
            | Err(MemError::OutOfNativeMemory { .. })
            | Err(MemError::TagExhausted { .. }) => continue,
            Err(e) => panic!("VIOLATION: acquire failed unexpectedly: {e}"),
        };
        if !shared {
            tallies.fresh.fetch_add(1, Ordering::Relaxed);
        }
        probe(mem, begin, tag, "just after acquire");
        yield_point("holding");
        probe(mem, begin, tag, "after yield while held");
        let mut released = false;
        for _ in 0..RELEASE_RETRIES {
            match table.release(mem, begin, end) {
                Ok(ReleaseOutcome::Freed) => {
                    tallies.freed.fetch_add(1, Ordering::Relaxed);
                    released = true;
                    break;
                }
                Ok(ReleaseOutcome::Decremented { remaining }) => {
                    if remaining as usize >= cfg.threads {
                        panic!(
                            "VIOLATION: {remaining} borrowers remain after release \
                             with only {} threads",
                            cfg.threads
                        );
                    }
                    released = true;
                    break;
                }
                Ok(ReleaseOutcome::NotTracked) => {
                    panic!("VIOLATION: release of a live borrow reported NotTracked")
                }
                // A failed release must leave the count intact, so the
                // same release is retried.
                Err(MemError::Injected { .. }) => {}
                Err(e) => panic!("VIOLATION: release failed unexpectedly: {e}"),
            }
        }
        assert!(
            released,
            "VIOLATION: release kept failing after {RELEASE_RETRIES} retries"
        );
    }
    inject::clear();
}

fn run_table_schedule(
    table: Arc<dyn TagTable>,
    seed: u64,
    cfg: &StressConfig,
) -> ScheduleResult {
    let mem = Arc::new(TaggedMemory::new(MemoryConfig {
        base: BASE,
        size: MEM_SIZE,
    }));
    mem.mprotect_mte(BASE, MEM_SIZE, true)
        .expect("arena must map PROT_MTE");
    let objects: Arc<Vec<u64>> =
        Arc::new((0..cfg.objects).map(|i| BASE + 0x100 * i as u64).collect());
    let tallies = Arc::new(Tallies::default());

    let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..cfg.threads)
        .map(|worker| {
            let table = Arc::clone(&table);
            let mem = Arc::clone(&mem);
            let objects = Arc::clone(&objects);
            let tallies = Arc::clone(&tallies);
            let cfg = *cfg;
            Box::new(move || {
                table_worker(&*table, &mem, &objects, worker, seed, &cfg, &tallies);
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();

    let report = sched::run(seed, cfg.max_steps, bodies);
    let mut violations: Vec<String> = report
        .panics
        .iter()
        .map(|(t, msg)| format!("t{t}: {msg}"))
        .collect();
    if report.clean() {
        // Quiescence oracle: every borrow was returned, so no entry, no
        // lingering tag, and one Freed per fresh acquire.
        let tracked = table.tracked_objects();
        if tracked != 0 {
            violations.push(format!("oracle: {tracked} entries leaked after quiescence"));
        }
        for &addr in objects.iter() {
            match mem.ldg(TaggedPtr::from_addr(addr)) {
                Ok(tag) if tag.is_untagged() => {}
                Ok(tag) => violations.push(format!(
                    "oracle: object {addr:#x} still tagged {tag:?} after quiescence"
                )),
                Err(e) => violations.push(format!("oracle: ldg({addr:#x}) failed: {e}")),
            }
        }
        let fresh_n = tallies.fresh.load(Ordering::Relaxed);
        let freed_n = tallies.freed.load(Ordering::Relaxed);
        // Conservation law: every rc 0->1 transition is a fresh
        // acquire, and every rc 1->0 is a typed `Freed` release.
        if fresh_n != freed_n {
            violations.push(format!(
                "oracle: {fresh_n} fresh acquires but {freed_n} Freed releases"
            ));
        }
    }
    ScheduleResult {
        report,
        violations,
        fresh_acquires: tallies.fresh.load(Ordering::Relaxed),
        freed: tallies.freed.load(Ordering::Relaxed),
        injected: tallies.injected.total(),
        contained: 0,
        degraded_quarantine: 0,
        degraded_exhaust: 0,
    }
}

/// [`server::funnel_conservation_violation`] as an oracle message.
fn funnel_conservation_violation(scheme: &Mte4Jni) -> Option<String> {
    server::funnel_conservation_violation(scheme).map(|m| format!("oracle: {m}"))
}

/// Runs one seeded **object-lifecycle** schedule: each worker repeatedly
/// allocates an array, acquires it through the scheme, drops the last
/// Java handle, runs a sweep (which must spare the dead-but-borrowed
/// object), then releases through a handle resurrected from the pin
/// ledger and sweeps again. The quiescence oracle asserts that no table
/// entry or shadow copy leaked, that every pin was returned, and that no
/// stale tag aliases a recycled address.
///
/// The broken-table mutants cannot be mounted behind a VM (the scheme
/// builds its own table), so they map to their real counterparts here;
/// the mutation self-check exercises them through [`run_schedule`].
pub fn run_lifecycle_schedule(kind: SchemeKind, seed: u64, cfg: &StressConfig) -> ScheduleResult {
    let memory = MemoryConfig {
        base: BASE,
        size: MEM_SIZE,
    };
    type LifecycleVm = (Vm, Box<dyn Fn() -> usize>, Option<Arc<Mte4Jni>>);
    let (vm, tracked, mte): LifecycleVm = match kind {
        SchemeKind::Guarded => {
            let p = Arc::new(GuardedCopy::new());
            let vm = Vm::builder()
                .heap_config(HeapConfig {
                    memory,
                    ..HeapConfig::stock_art()
                })
                .protection(Arc::clone(&p) as Arc<dyn Protection>)
                .build();
            (vm, Box::new(move || p.tracked_shadows()), None)
        }
        _ => {
            let p = Arc::new(Mte4Jni::with_config(TableConfig {
                backend: vm_backend(kind),
                ..TableConfig::default()
            }));
            let vm = Vm::builder()
                .heap_config(HeapConfig {
                    memory,
                    ..HeapConfig::mte4jni()
                })
                .check_mode(TcfMode::Sync)
                .protection(Arc::clone(&p) as Arc<dyn Protection>)
                .build();
            let probe = Arc::clone(&p);
            (vm, Box::new(move || probe.table().tracked_objects()), Some(p))
        }
    };
    let tallies = Arc::new(Tallies::default());

    let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..cfg.threads)
        .map(|worker| {
            let vm = &vm;
            let tallies = Arc::clone(&tallies);
            let cfg = *cfg;
            Box::new(move || lifecycle_worker(vm, worker, seed, &cfg, &tallies))
                as Box<dyn FnOnce() + Send + '_>
        })
        .collect();

    let report = sched::run(seed, cfg.max_steps, bodies);
    let mut violations: Vec<String> = report
        .panics
        .iter()
        .map(|(t, msg)| format!("t{t}: {msg}"))
        .collect();
    if report.clean() {
        // Run a GC safepoint first: the sweep purges any entry a
        // worker abandoned after persistent release faults, so the
        // quiescence checks below see the post-safepoint state the
        // "tracked ⇒ pinned" invariant is defined at.
        let _ = vm.heap().sweep();
        let left = tracked();
        if left != 0 {
            violations.push(format!("oracle: {left} scheme entries leaked after quiescence"));
        }
        let hs = vm.heap().stats();
        if hs.pinned_objects != 0 {
            violations.push(format!(
                "oracle: {} objects still pinned after quiescence",
                hs.pinned_objects
            ));
        }
        if hs.pins_total != hs.unpins_total {
            violations.push(format!(
                "oracle: {} pins but {} unpins after quiescence",
                hs.pins_total, hs.unpins_total
            ));
        }
        // Funnel-level conservation law: every fresh acquire's entry is
        // eventually freed by a release or a GC-safepoint purge.
        // Shared acquires reuse an entry and free nothing.
        if let Some(scheme) = &mte {
            if let Some(v) = funnel_conservation_violation(scheme) {
                violations.push(v);
            }
        }
        // No tag aliasing on recycled addresses: blocks reclaimed during
        // the schedule must come back untagged, or a fresh object at the
        // same address would appear borrowed (and fault checking threads)
        // through no act of its own.
        let oracle = vm.attach_thread("lifecycle-oracle");
        for _ in 0..cfg.objects.max(4) {
            match vm.env(&oracle).new_int_array(16) {
                Ok(a) => match vm.heap().memory().raw_tag_at(a.data_addr()) {
                    Ok(tag) if tag.is_untagged() => {}
                    Ok(tag) => violations.push(format!(
                        "oracle: recycled address {:#x} still tagged {tag:?}",
                        a.data_addr()
                    )),
                    Err(e) => violations.push(format!("oracle: tag read failed: {e}")),
                },
                Err(e) => violations.push(format!("oracle: post-quiescence alloc failed: {e}")),
            }
        }
    }
    ScheduleResult {
        report,
        violations,
        fresh_acquires: tallies.fresh.load(Ordering::Relaxed),
        freed: tallies.freed.load(Ordering::Relaxed),
        injected: tallies.injected.total(),
        contained: 0,
        degraded_quarantine: 0,
        degraded_exhaust: 0,
    }
}

fn lifecycle_worker(vm: &Vm, worker: usize, seed: u64, cfg: &StressConfig, tallies: &Tallies) {
    if cfg.fault_plan.is_active() {
        inject::install(
            cfg.fault_plan,
            mix(seed, worker as u64 + 1),
            Arc::clone(&tallies.injected),
        );
    }
    // Sweeps run disarmed: the collector is a runtime-internal path (ART's
    // HeapTaskDaemon), while injection models faults on the native-facing
    // acquire/release paths. The heap treats its own tag stores as
    // infallible, so an injected `stg` inside a sweep would only panic
    // the simulation, not explore a reachable state. Re-arming derives a
    // fresh per-site seed, keeping the schedule deterministic.
    let sweep_disarmed = |salt: u64| {
        if cfg.fault_plan.is_active() {
            inject::clear();
        }
        let stats = vm.heap().sweep();
        if cfg.fault_plan.is_active() {
            inject::install(
                cfg.fault_plan,
                mix(seed, salt),
                Arc::clone(&tallies.injected),
            );
        }
        stats
    };
    let thread = vm.attach_thread("lifecycle");
    let env = vm.env(&thread);
    for round in 0..cfg.rounds {
        let marker = (worker * cfg.rounds + round) as i32 + 1;
        let (elems, obj_addr) = {
            // Allocate and immediately borrow; the only Java handle drops
            // at the end of this block, mid-borrow.
            let Ok(a) = env.new_int_array_from(&[marker; 16]) else {
                continue; // injected allocation failure: setup, not oracle
            };
            match env.get_int_array_elements(&a) {
                Ok(e) => (e, a.addr()),
                // Injected scheme failures (tag store, shadow alloc/read)
                // are tolerated; the quiescence oracle still balances.
                Err(JniError::Mem(
                    MemError::Injected { .. }
                    | MemError::OutOfNativeMemory { .. }
                    | MemError::TagExhausted { .. },
                ))
                | Err(JniError::Heap(_)) => continue,
                Err(e) => panic!("VIOLATION: lifecycle acquire failed: {e}"),
            }
        };
        tallies.fresh.fetch_add(1, Ordering::Relaxed);
        yield_point("lifecycle-borrowed");
        // The headline bug: a sweep here used to reclaim the object (its
        // last Java handle is gone) while native code still held `elems`.
        let _ = sweep_disarmed(mix(0x5EED_0001, (worker * cfg.rounds + round) as u64));
        let Some(resurrected) = vm.heap().pinned_handle(obj_addr) else {
            panic!("VIOLATION: sweep reclaimed a natively borrowed object at {obj_addr:#x}")
        };
        let array = resurrected.as_array().expect("lifecycle objects are arrays");
        match vm.heap().int_at(&thread, &array, 0) {
            Ok(v) if v == marker => {}
            Ok(v) => panic!(
                "VIOLATION: borrowed payload changed underneath the sweep: {v} != {marker}"
            ),
            Err(_) => {} // injected read failure: inconclusive
        }
        yield_point("lifecycle-swept");
        // The release must still verify and free against the surviving
        // object; a failed (injected) release keeps the pin, so retry.
        let ptr = elems.ptr();
        let is_copy = elems.is_copy();
        let mut pending = Some(elems);
        let mut released = false;
        for _ in 0..RELEASE_RETRIES {
            let e = pending
                .take()
                .unwrap_or_else(|| NativeArray::new(ptr, 16, PrimitiveType::Int, is_copy));
            match env.release_int_array_elements(&array, e, ReleaseMode::Abort) {
                Ok(()) => {
                    released = true;
                    break;
                }
                Err(JniError::Mem(MemError::Injected { .. })) => continue,
                Err(e) => panic!("VIOLATION: lifecycle release failed: {e}"),
            }
        }
        assert!(
            released,
            "VIOLATION: release kept failing after {RELEASE_RETRIES} retries"
        );
        tallies.freed.fetch_add(1, Ordering::Relaxed);
        drop(array);
        drop(resurrected);
        // Borrow over, handles gone: this sweep may reclaim the object.
        let _ = sweep_disarmed(mix(0x5EED_0002, (worker * cfg.rounds + round) as u64));
    }
    inject::clear();
}

/// Runs one seeded **containment** schedule: an MTE4JNI VM (two-tier or
/// global locking per `kind`) under [`FaultPolicy::Contain`] with a
/// guarded-copy fallback, a low quarantine threshold, and workers that
/// deliberately go out of bounds on some rounds. The containment oracle
/// asserts the VM survives every schedule — contained faults, quarantine
/// degradations, and injected failures included — with zero stale table
/// entries, zero leaked shadows or native bytes, balanced pins, and no
/// residual tags.
pub fn run_containment_schedule(kind: SchemeKind, seed: u64, cfg: &StressConfig) -> ScheduleResult {
    let memory = MemoryConfig {
        base: BASE,
        size: MEM_SIZE,
    };
    let scheme = Arc::new(Mte4Jni::with_config(TableConfig {
        backend: vm_backend(kind),
        ..TableConfig::default()
    }));
    let fallback = Arc::new(GuardedCopy::new());
    let vm = Vm::builder()
        .heap_config(HeapConfig {
            memory,
            ..HeapConfig::mte4jni()
        })
        .check_mode(TcfMode::Sync)
        .protection(Arc::clone(&scheme) as Arc<dyn Protection>)
        .fallback_protection(Arc::clone(&fallback) as Arc<dyn Protection>)
        .fault_policy(FaultPolicy::Contain)
        .containment_config(ContainmentConfig {
            // Low threshold so quarantine transitions happen within one
            // schedule's handful of rounds.
            quarantine_threshold: 2,
            transient_retries: 4,
            ..ContainmentConfig::default()
        })
        .build();
    let tallies = Arc::new(Tallies::default());

    let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..cfg.threads)
        .map(|worker| {
            let vm = &vm;
            let tallies = Arc::clone(&tallies);
            let cfg = *cfg;
            Box::new(move || containment_worker(vm, worker, seed, &cfg, &tallies))
                as Box<dyn FnOnce() + Send + '_>
        })
        .collect();

    let report = sched::run(seed, cfg.max_steps, bodies);
    let mut violations: Vec<String> = report
        .panics
        .iter()
        .map(|(t, msg)| format!("t{t}: {msg}"))
        .collect();
    if report.clean() {
        // Containment oracle: the VM survived the schedule, and every
        // contained fault left it balanced. The sweep safepoint runs
        // first, so its purge retires any entry a release abandoned
        // after persistent faults.
        let _ = vm.heap().sweep();
        let tracked = scheme.table().tracked_objects();
        if tracked != 0 {
            violations.push(format!(
                "oracle: {tracked} table entries stale after contained faults"
            ));
        }
        if let Some(v) = funnel_conservation_violation(&scheme) {
            violations.push(v);
        }
        let shadows = fallback.tracked_shadows();
        if shadows != 0 {
            violations.push(format!("oracle: {shadows} fallback shadows leaked"));
        }
        let in_use = vm.heap().native_alloc().stats().bytes_in_use;
        if in_use != 0 {
            violations.push(format!("oracle: {in_use} native bytes leaked"));
        }
        let hs = vm.heap().stats();
        if hs.pinned_objects != 0 {
            violations.push(format!(
                "oracle: {} objects still pinned after contained faults",
                hs.pinned_objects
            ));
        }
        if hs.pins_total != hs.unpins_total {
            violations.push(format!(
                "oracle: {} pins but {} unpins after contained faults",
                hs.pins_total, hs.unpins_total
            ));
        }
        // Every force-released borrow must have zeroed its tags: fresh
        // allocations on recycled addresses (reclaimed by the safepoint
        // sweep above) come back untagged.
        let oracle = vm.attach_thread("containment-oracle");
        for _ in 0..cfg.objects.max(4) {
            match vm.env(&oracle).new_int_array(16) {
                Ok(a) => match vm.heap().memory().raw_tag_at(a.data_addr()) {
                    Ok(tag) if tag.is_untagged() => {}
                    Ok(tag) => violations.push(format!(
                        "oracle: recycled address {:#x} still tagged {tag:?}",
                        a.data_addr()
                    )),
                    Err(e) => violations.push(format!("oracle: tag read failed: {e}")),
                },
                Err(e) => violations.push(format!("oracle: post-quiescence alloc failed: {e}")),
            }
        }
    }
    let cs = vm.containment_stats();
    ScheduleResult {
        report,
        violations,
        fresh_acquires: tallies.fresh.load(Ordering::Relaxed),
        freed: tallies.freed.load(Ordering::Relaxed),
        injected: tallies.injected.total(),
        contained: cs.contained_faults,
        degraded_quarantine: cs.degraded_quarantine,
        degraded_exhaust: cs.degraded_tag_exhaustion,
    }
}

fn containment_worker(vm: &Vm, worker: usize, seed: u64, cfg: &StressConfig, tallies: &Tallies) {
    if cfg.fault_plan.is_active() {
        inject::install(
            cfg.fault_plan,
            mix(seed, worker as u64 + 1),
            Arc::clone(&tallies.injected),
        );
    }
    const METHODS: [&str; 2] = ["native_churn", "native_scan"];
    let thread = vm.attach_thread("containment");
    let env = vm.env(&thread);
    for round in 0..cfg.rounds {
        let step = (worker * cfg.rounds + round) as u64;
        let method = METHODS[(worker + round) % METHODS.len()];
        // Roughly a third of the rounds go out of bounds, attributed to
        // whichever method this round lands on — enough repeats on one
        // name to cross the quarantine threshold within a schedule.
        let do_oob = mix(seed, 0x0B_AD ^ step).is_multiple_of(3);
        let Ok(a) = env.new_int_array_from(&[7; 16]) else {
            continue; // injected allocation failure: setup, not oracle
        };
        let result = env.call_native(method, NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&a)?;
            let mem = env.native_mem();
            let mut s = 0;
            for i in 0..16 {
                match elems.read_i32(&mem, i) {
                    Ok(v) => s += v,
                    // A tag-check fault kills native execution on the
                    // spot — no cleanup runs, the borrow leaks, and
                    // containment must reclaim it.
                    Err(e @ MemError::TagCheck(_)) => return Err(e.into()),
                    // Injected transient read failures: well-behaved
                    // native code shrugs and still releases below.
                    Err(_) => {}
                }
            }
            yield_point("containment-borrowed");
            if do_oob {
                // 16-int array: index 40 is 96 bytes past the payload —
                // a tag mismatch under MTE4JNI (sync fault, the borrow
                // leaks past the skipped release) or red-zone corruption
                // under a quarantined guarded copy (caught at release).
                elems.write_i32(&mem, 40, 0x0BAD)?;
            }
            env.release_primitive_array_critical(&a, elems, ReleaseMode::Abort)?;
            Ok(s)
        });
        match result {
            Ok(_) => {
                tallies.fresh.fetch_add(1, Ordering::Relaxed);
                tallies.freed.fetch_add(1, Ordering::Relaxed);
            }
            Err(JniError::ContainedFault { .. }) => {
                // With 4-bit tags an out-of-bounds write may also alias a
                // live neighbor and go undetected — so `do_oob` does not
                // *guarantee* a contained fault, but a contained fault
                // must have a cause.
                if !do_oob && cfg.fault_plan.spurious_check_ppm == 0 {
                    panic!(
                        "VIOLATION: in-bounds call contained a fault \
                         with no spurious injection armed"
                    );
                }
            }
            // A quarantined method's guarded copy catches the same
            // out-of-bounds write at release time: graceful degradation.
            Err(JniError::CheckJniAbort(_)) => {}
            // Injected transient failures that out-lived the retry budget.
            Err(e) if e.is_transient() => {}
            // Heap-side injected failures during array setup inside the
            // native frame.
            Err(JniError::Heap(_)) => {}
            Err(e) => panic!("VIOLATION: containment call failed: {e}"),
        }
        yield_point("containment-round");
    }
    inject::clear();
}

fn run_guarded_schedule(seed: u64, cfg: &StressConfig) -> ScheduleResult {
    let protection = Arc::new(GuardedCopy::new());
    let vm = Vm::builder()
        .heap_config(HeapConfig {
            memory: MemoryConfig {
                base: BASE,
                size: MEM_SIZE,
            },
            ..HeapConfig::stock_art()
        })
        .protection(Arc::clone(&protection) as Arc<dyn Protection>)
        .build();
    let setup = vm.attach_thread("stress-setup");
    let arrays: Vec<_> = (0..cfg.objects)
        .map(|i| {
            let data: Vec<i32> = (0..16).map(|j| (i * 16 + j) as i32).collect();
            vm.env(&setup)
                .new_int_array_from(&data)
                .expect("setup allocation must succeed")
        })
        .collect();
    let counters = Arc::new(InjectCounters::default());
    let acquired = Arc::new(AtomicU64::new(0));

    let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..cfg.threads)
        .map(|worker| {
            let vm = &vm;
            let arrays = &arrays;
            let counters = Arc::clone(&counters);
            let acquired = Arc::clone(&acquired);
            let cfg = *cfg;
            Box::new(move || {
                if cfg.fault_plan.is_active() {
                    inject::install(
                        cfg.fault_plan,
                        mix(seed, worker as u64 + 1),
                        Arc::clone(&counters),
                    );
                }
                let thread = vm.attach_thread("stress-guarded");
                let env = vm.env(&thread);
                for round in 0..cfg.rounds {
                    let array = &arrays[(worker + round) % arrays.len()];
                    match env.get_primitive_array_critical(array) {
                        Ok(elems) => {
                            acquired.fetch_add(1, Ordering::Relaxed);
                            yield_point("guarded-holding");
                            if let Err(e) = env.release_primitive_array_critical(
                                array,
                                elems,
                                ReleaseMode::Abort,
                            ) {
                                panic!("VIOLATION: guarded release failed: {e}");
                            }
                        }
                        // Injected shadow-allocation failure: tolerated.
                        Err(JniError::Mem(
                            MemError::OutOfNativeMemory { .. } | MemError::Injected { .. },
                        )) => {}
                        Err(e) => panic!("VIOLATION: guarded acquire failed: {e}"),
                    }
                }
                inject::clear();
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();

    let report = sched::run(seed, cfg.max_steps, bodies);
    let mut violations: Vec<String> = report
        .panics
        .iter()
        .map(|(t, msg)| format!("t{t}: {msg}"))
        .collect();
    if report.clean() {
        let shadows = protection.tracked_shadows();
        if shadows != 0 {
            violations.push(format!("oracle: {shadows} shadow copies leaked"));
        }
        let in_use = vm.heap().native_alloc().stats().bytes_in_use;
        if in_use != 0 {
            violations.push(format!("oracle: {in_use} native bytes leaked"));
        }
        let stats = protection.stats();
        if stats.corruptions_detected != 0 {
            violations.push(format!(
                "oracle: {} spurious corruption reports",
                stats.corruptions_detected
            ));
        }
        let acq = acquired.load(Ordering::Relaxed);
        if stats.releases != acq {
            violations.push(format!(
                "oracle: {acq} acquires but {} releases",
                stats.releases
            ));
        }
    }
    ScheduleResult {
        report,
        violations,
        fresh_acquires: acquired.load(Ordering::Relaxed),
        freed: protection.stats().releases,
        injected: counters.total(),
        contained: 0,
        degraded_quarantine: 0,
        degraded_exhaust: 0,
    }
}

// ----------------------------------------------------------------------
// Serving workload (multi-tenant isolation)
// ----------------------------------------------------------------------

/// How many tenants a serving schedule hosts (tenant 0 is the noisy
/// neighbor; the rest must come out clean).
pub const SERVING_TENANTS: u32 = 3;

/// Serving workload: a [`SERVING_TENANTS`]-tenant fleet of `kind` VMs
/// under one deterministic schedule — one scheduled worker per tenant
/// drives that tenant's seeded request stream through the full serving
/// funnel (admission, bounded retry, health latch). Tenant 0 runs with
/// the configured fault plan armed *and* out-of-bounds traffic mixed
/// in; the oracle checks the isolation invariant: every other tenant
/// finishes everything it admitted with zero contained faults, balanced
/// pin books, and zero stale table entries, no matter what tenant 0
/// does. Same `(kind, seed, cfg)` ⇒ identical trace and counts.
pub fn run_serving_schedule(kind: SchemeKind, seed: u64, cfg: &StressConfig) -> ScheduleResult {
    use server::{Tenant, TenantConfig, TenantScheme, TrafficConfig};

    let scheme = match kind {
        SchemeKind::TwoTier => TenantScheme::TwoTier,
        SchemeKind::BrokenTwoTier => TenantScheme::TwoTier,
        SchemeKind::Global => TenantScheme::Global,
        SchemeKind::BrokenGlobal => TenantScheme::Global,
        SchemeKind::Guarded => TenantScheme::Guarded,
        _ => TenantScheme::LockFree,
    };
    // Enough traffic per tenant for containment, quarantine and
    // shedding to all happen inside one schedule, scaled by the same
    // knob as the other workloads.
    let per_tenant = (cfg.rounds as u64) * 8;
    let tenants: Vec<Tenant> = (0..SERVING_TENANTS)
        .map(|id| {
            let mut tc = TenantConfig::new(id);
            tc.scheme = scheme;
            if id == 0 && cfg.fault_plan.is_active() {
                tc.fault_plan = Some(cfg.fault_plan);
            }
            Tenant::new(tc)
        })
        .collect();
    let traffic = TrafficConfig {
        seed,
        per_tenant,
        // Micro requests only: kernels and trace replays are serving
        // features, not schedule-exploration features, and keeping the
        // unit of work small keeps hundreds of schedules cheap.
        kernel_ppm: 0,
        replay_ppm: 0,
        noisy_tenant: Some(0),
        noisy_oob_ppm: 250_000,
    };

    let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = tenants
        .iter()
        .map(|tenant| {
            Box::new(move || {
                let id = tenant.config().id;
                for i in 0..per_tenant {
                    let req = traffic.request(id, i);
                    // Shed requests are part of the workload: the
                    // worker moves on, exactly like the shared pool.
                    let _ = tenant.serve(&req);
                    yield_point("serve-next");
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();

    let report = sched::run(seed, cfg.max_steps, bodies);
    let mut violations: Vec<String> = report
        .panics
        .iter()
        .map(|(t, msg)| format!("t{t}: {msg}"))
        .collect();
    if report.clean() {
        // The isolation invariant: whatever happened to tenant 0, the
        // neighbors served everything they admitted, fault-free.
        for tenant in &tenants[1..] {
            let id = tenant.config().id;
            let s = tenant.stats();
            if s.contained_faults != 0 {
                violations.push(format!(
                    "isolation: tenant {id} took {} contained faults from a neighbor's traffic",
                    s.contained_faults
                ));
            }
            if s.completed != s.admitted {
                violations.push(format!(
                    "isolation: tenant {id} completed {} of {} admitted requests",
                    s.completed, s.admitted
                ));
            }
            if tenant.failed() != 0 {
                violations.push(format!(
                    "isolation: tenant {id} failed {} requests",
                    tenant.failed()
                ));
            }
            if s.shed_quarantined != 0 {
                violations.push(format!(
                    "isolation: healthy tenant {id} shed {} requests as quarantined",
                    s.shed_quarantined
                ));
            }
        }
        // Per-tenant quiescence: stale entries, funnel conservation,
        // leaked shadows/bytes, pin balance — for every tenant,
        // including the noisy one (containment must leave even the
        // faulted VM balanced).
        for tenant in &tenants {
            violations.extend(tenant.quiesce());
        }
    }

    let noisy = &tenants[0];
    let cs = noisy.containment_stats();
    let (fresh, freed) = tenants
        .iter()
        .filter_map(|t| t.scheme().map(|s| s.stats()))
        .fold((0, 0), |(a, f), s| {
            (a + s.acquires - s.shared_acquires, f + s.tag_frees)
        });
    ScheduleResult {
        report,
        violations,
        fresh_acquires: fresh,
        freed,
        injected: noisy.injected_faults(),
        contained: cs.contained_faults,
        degraded_quarantine: cs.degraded_quarantine,
        degraded_exhaust: cs.degraded_tag_exhaustion,
    }
}
