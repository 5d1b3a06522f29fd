//! Seeded fault injection for the simulator.
//!
//! The stress harness (`crates/stress`) installs a per-thread
//! [`FaultPlan`] + seed before running a workload; the simulator then
//! consults `should_fail` (crate-internal) at five points — `irg`
//! tag-pool exhaustion, `ldg`/`stg` faults, native-allocation failure,
//! and spurious tag-check faults — and forces the corresponding error
//! path. Decisions come from a thread-local xorshift64* stream seeded
//! from `(schedule seed, participant index)`, so the fault pattern a
//! thread sees is deterministic regardless of how the scheduler
//! interleaves it with other threads. Every injected fault bumps a
//! shared [`InjectCounters`] slot and counts a
//! [`telemetry::Event::InjectedFault`] so snapshots can attribute the
//! failure to the injector rather than the scheme under test.
//!
//! The hooks are compiled into every binary, figure benches included,
//! so the disarmed case must cost nothing measurable: a process-wide
//! count of armed threads is read with one relaxed load, and only when
//! it is nonzero does `should_fail` touch the thread-local. An armed
//! thread always sees its own increment, so its decision stream is
//! exactly the one it would draw alone.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A fault-injection site inside the simulator: which operation an
/// injected fault hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InjectPoint {
    /// `irg` returned the excluded zero tag (tag-pool exhaustion).
    Irg,
    /// An `ldg` tag load failed.
    Ldg,
    /// An `stg`/`st2g`/tag-range store failed.
    Stg,
    /// The simulated native allocator reported arena exhaustion.
    Alloc,
    /// A spurious tag-check fault fired on a valid access.
    Check,
}

impl InjectPoint {
    /// Every injection point, in [`InjectCounters`] slot order.
    pub const ALL: [InjectPoint; 5] = [
        InjectPoint::Irg,
        InjectPoint::Ldg,
        InjectPoint::Stg,
        InjectPoint::Alloc,
        InjectPoint::Check,
    ];
}

/// Per-point injection rates in parts-per-million of eligible
/// operations. Zero (the default) disables the point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `irg` returns the excluded zero tag.
    pub irg_exhaust_ppm: u32,
    /// `ldg` fails with [`MemError::Injected`](crate::MemError::Injected).
    pub ldg_fail_ppm: u32,
    /// `stg`/`st2g`/`set_tag_range` fail.
    pub stg_fail_ppm: u32,
    /// `NativeAllocator::alloc` reports arena exhaustion.
    pub alloc_fail_ppm: u32,
    /// A checked access faults despite matching tags, raised as a
    /// genuine tag-check fault through the thread's TCF mode (sync
    /// error or async latch) — indistinguishable downstream from a
    /// real mismatch except that the reported tags are equal.
    pub spurious_check_ppm: u32,
}

impl FaultPlan {
    /// The same rate at every injection point.
    pub fn uniform(ppm: u32) -> FaultPlan {
        FaultPlan {
            irg_exhaust_ppm: ppm,
            ldg_fail_ppm: ppm,
            stg_fail_ppm: ppm,
            alloc_fail_ppm: ppm,
            spurious_check_ppm: ppm,
        }
    }

    /// True when at least one injection point has a nonzero rate.
    pub fn is_active(&self) -> bool {
        *self != FaultPlan::default()
    }

    fn rate(&self, point: InjectPoint) -> u32 {
        match point {
            InjectPoint::Irg => self.irg_exhaust_ppm,
            InjectPoint::Ldg => self.ldg_fail_ppm,
            InjectPoint::Stg => self.stg_fail_ppm,
            InjectPoint::Alloc => self.alloc_fail_ppm,
            InjectPoint::Check => self.spurious_check_ppm,
        }
    }
}

/// Shared tally of injected faults, one slot per [`InjectPoint`].
#[derive(Debug, Default)]
pub struct InjectCounters {
    counts: [AtomicU64; InjectPoint::ALL.len()],
}

impl InjectCounters {
    /// Faults injected at `point` so far.
    pub fn get(&self, point: InjectPoint) -> u64 {
        self.counts[point as usize].load(Ordering::Relaxed)
    }

    /// Faults injected across all points.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    fn bump(&self, point: InjectPoint) {
        self.counts[point as usize].fetch_add(1, Ordering::Relaxed);
    }
}

/// Threads whose [`INJECTOR`] slot holds an injector. Raised when an
/// [`Injector`] is built and lowered when it drops, so replacing one,
/// clearing an empty slot and thread exit all keep the count exact.
/// `Relaxed` suffices: the count publishes no data (each thread reads
/// only its own injector), and a thread always observes its own
/// increment.
static ARMED_THREADS: AtomicUsize = AtomicUsize::new(0);

struct Injector {
    plan: FaultPlan,
    rng: u64,
    counters: Arc<InjectCounters>,
}

impl Injector {
    fn new(plan: FaultPlan, rng: u64, counters: Arc<InjectCounters>) -> Injector {
        ARMED_THREADS.fetch_add(1, Ordering::Relaxed);
        Injector {
            plan,
            rng,
            counters,
        }
    }
}

impl Drop for Injector {
    fn drop(&mut self) {
        ARMED_THREADS.fetch_sub(1, Ordering::Relaxed);
    }
}

thread_local! {
    static INJECTOR: RefCell<Option<Injector>> = const { RefCell::new(None) };
}

/// Arms fault injection on the calling thread. `seed` is mixed through
/// splitmix64 so correlated seeds (e.g. `base + thread index`) still
/// yield independent streams.
pub fn install(plan: FaultPlan, seed: u64, counters: Arc<InjectCounters>) {
    let rng = splitmix64(seed) | 1; // xorshift state must be nonzero
    let injector = Injector::new(plan, rng, counters);
    INJECTOR.with(|i| *i.borrow_mut() = Some(injector));
}

/// Disarms fault injection on the calling thread.
pub fn clear() {
    INJECTOR.with(|i| *i.borrow_mut() = None);
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// One injection decision at `point`; bumps the counters and emits the
/// telemetry event when it fires. `false` whenever no injector is
/// installed on this thread, and without a thread-local lookup when no
/// thread in the process is armed.
#[inline]
pub(crate) fn should_fail(point: InjectPoint) -> bool {
    if ARMED_THREADS.load(Ordering::Relaxed) == 0 {
        return false;
    }
    should_fail_armed(point)
}

#[inline(never)]
fn should_fail_armed(point: InjectPoint) -> bool {
    // `try_with`: tag ops can run from thread-local destructors after
    // the injector slot is gone; those late ops simply see no injector.
    INJECTOR.try_with(|i| {
        let mut slot = i.borrow_mut();
        let Some(inj) = slot.as_mut() else {
            return false;
        };
        let rate = inj.plan.rate(point);
        if rate == 0 {
            return false;
        }
        let draw = xorshift64star(&mut inj.rng) % 1_000_000;
        if draw < u64::from(rate) {
            inj.counters.bump(point);
            telemetry::record(telemetry::Event::InjectedFault);
            true
        } else {
            false
        }
    })
    .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, Mutex, MutexGuard};

    /// Serializes every test that arms a thread: the armed count is
    /// process-wide, so the exact-count assertions need the other tests
    /// in this binary to be disarmed while they run.
    static ARMING: Mutex<()> = Mutex::new(());

    fn arming() -> MutexGuard<'static, ()> {
        ARMING.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn armed() -> usize {
        ARMED_THREADS.load(Ordering::Relaxed)
    }

    fn counters() -> Arc<InjectCounters> {
        Arc::new(InjectCounters::default())
    }

    #[test]
    fn disarmed_thread_never_fails() {
        clear();
        for _ in 0..100 {
            assert!(!should_fail(InjectPoint::Ldg));
        }
    }

    #[test]
    fn install_over_install_counts_the_thread_once() {
        let _g = arming();
        assert_eq!(armed(), 0);
        install(FaultPlan::uniform(1), 1, counters());
        assert_eq!(armed(), 1);
        install(FaultPlan::uniform(2), 2, counters());
        assert_eq!(armed(), 1, "the replaced injector's drop disarms it");
        clear();
        assert_eq!(armed(), 0);
    }

    #[test]
    fn clear_without_install_leaves_the_count_alone() {
        let _g = arming();
        clear();
        clear();
        assert_eq!(armed(), 0);
        install(FaultPlan::uniform(1), 1, counters());
        clear();
        clear();
        assert_eq!(armed(), 0);
    }

    #[test]
    fn thread_exit_disarms_the_thread() {
        let _g = arming();
        std::thread::spawn(|| {
            install(FaultPlan::uniform(1), 1, counters());
            assert_eq!(armed(), 1);
            // No clear(): the thread-local destructor must disarm.
        })
        .join()
        .unwrap();
        assert_eq!(armed(), 0);
    }

    #[test]
    fn armed_stream_ignores_other_threads_arming_and_disarming() {
        let _g = arming();
        let plan = FaultPlan::uniform(300_000);
        const DRAWS: usize = 4000;
        install(plan, 42, counters());
        let solo: Vec<bool> = (0..DRAWS)
            .map(|_| should_fail(InjectPoint::Check))
            .collect();
        clear();

        let start = Arc::new(Barrier::new(2));
        let other = {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for seed in 0..500 {
                    install(plan, seed, counters());
                    let _ = should_fail(InjectPoint::Check);
                    clear();
                }
            })
        };
        install(plan, 42, counters());
        start.wait();
        let mut raced = Vec::with_capacity(DRAWS);
        for _ in 0..DRAWS {
            raced.push(should_fail(InjectPoint::Check));
            std::hint::spin_loop();
        }
        clear();
        other.join().unwrap();
        assert_eq!(solo, raced);
        assert_eq!(armed(), 0);

        // The converse: a disarmed thread never fires while another
        // thread holds the count above zero.
        let hold = Arc::new(Barrier::new(2));
        let done = Arc::new(Barrier::new(2));
        let holder = {
            let (hold, done) = (Arc::clone(&hold), Arc::clone(&done));
            std::thread::spawn(move || {
                install(FaultPlan::uniform(1_000_000), 7, counters());
                hold.wait();
                done.wait();
            })
        };
        hold.wait();
        assert_eq!(armed(), 1);
        assert!((0..100).all(|_| !should_fail(InjectPoint::Check)));
        done.wait();
        holder.join().unwrap();
        assert_eq!(armed(), 0);
    }

    #[test]
    fn rates_are_deterministic_and_roughly_proportional() {
        let _g = arming();
        let counters = Arc::new(InjectCounters::default());
        install(FaultPlan::uniform(200_000), 42, counters.clone());
        let hits: Vec<bool> = (0..1000).map(|_| should_fail(InjectPoint::Stg)).collect();
        clear();
        let n = hits.iter().filter(|&&h| h).count() as u64;
        assert_eq!(counters.get(InjectPoint::Stg), n);
        assert_eq!(counters.total(), n);
        // ~20% rate over 1000 draws: allow a generous band.
        assert!((100..350).contains(&(n as usize)), "hit count {n}");

        // Same seed, same plan => identical decision stream.
        install(
            FaultPlan::uniform(200_000),
            42,
            Arc::new(InjectCounters::default()),
        );
        let replay: Vec<bool> = (0..1000).map(|_| should_fail(InjectPoint::Stg)).collect();
        clear();
        assert_eq!(hits, replay);
    }

    #[test]
    fn zero_rate_point_never_fires() {
        let _g = arming();
        let plan = FaultPlan {
            ldg_fail_ppm: 500_000,
            ..FaultPlan::default()
        };
        install(plan, 7, Arc::new(InjectCounters::default()));
        let any_irg = (0..500).any(|_| should_fail(InjectPoint::Irg));
        clear();
        assert!(!any_irg);
    }
}
