//! `copy-small` and `copy-large`: the paper's Figure 5 native method on
//! the default scheme (MTE4JNI+Sync, lock-free table, borrow stash),
//! driven by one closed-loop client.
//!
//! An op is `call_native` → 2x `GetPrimitiveArrayCritical` → element
//! copy through checked `read_i32`/`write_i32` → 2x
//! `ReleasePrimitiveArrayCritical`, between the same two arrays every
//! time. Before each op one source element gets a fresh seeded value;
//! after it the destination is read back and compared with the source.
//! Both happen outside the timed region.

use std::time::{Duration, Instant};

use art_heap::ArrayRef;
use jni_rt::{JniEnv, NativeKind, ReleaseMode};
use workloads::Scheme;

use crate::calib::{summarize, Calibration, Clock, Reference, SplitMix};
use crate::counts::Counts;
use crate::report::{Report, SetupTimer, SETUP_REPS};
use crate::spans::{NoTrace, Recorder, Tracer};
use crate::RunCfg;

/// `copy-small`: one granule per array, so the fixed per-call path
/// dominates the op.
pub const SMALL_LEN: usize = 4;
/// `copy-large`: Figure 5's largest point, dominated by checked accesses.
pub const LARGE_LEN: usize = 4096;

/// Ops per count phase: a multiple of the borrow stash's 4096-park
/// self-flush period (two parks per op), so per-op counts are exact.
const COUNT_OPS: u64 = 8192;
/// Spans kept in the written log of a traced run.
const LOG_SPANS: usize = 60_000;

/// Calibration weights fitted to the host's slow phases: the small copy
/// slows like a mix of the two reference kernels (its fixed JNI path is
/// branchy, call-heavy code), the large copy a little more than the
/// throughput kernel.
fn calibration(len: usize) -> &'static [Calibration] {
    if len == SMALL_LEN {
        &[Calibration { weight: 0.6 }]
    } else {
        &[Calibration { weight: 1.2 }]
    }
}

/// Set-up warm-up: a fixed op count of roughly 5 ms at either size.
fn warmup_ops(len: usize) -> u64 {
    (8192 / len as u64).max(32)
}

/// One copy op through the JNI layer, with a span around each layer
/// call. Returns the trampoline's result.
pub fn copy_once(
    env: &JniEnv<'_>,
    src: &ArrayRef,
    dst: &ArrayRef,
    t: &mut impl Tracer,
) -> jni_rt::Result<()> {
    let len = src.len() as isize;
    let root = t.begin("jni.call_native");
    let result = env.call_native("array_copy", NativeKind::Normal, |env| {
        let span = t.begin("jni.acquire");
        let s = env.get_primitive_array_critical(src);
        t.end(span);
        let s = s?;
        let span = t.begin("jni.acquire");
        let d = env.get_primitive_array_critical(dst);
        t.end(span);
        let d = d?;
        let mem = env.native_mem();
        let span = t.begin("mte-sim.access");
        let copied = (0..len).try_for_each(|i| d.write_i32(&mem, i, s.read_i32(&mem, i)?));
        t.end(span);
        copied?;
        let span = t.begin("jni.release");
        let released = env.release_primitive_array_critical(dst, d, ReleaseMode::CopyBack);
        t.end(span);
        released?;
        let span = t.begin("jni.release");
        let released = env.release_primitive_array_critical(src, s, ReleaseMode::Abort);
        t.end(span);
        released
    });
    t.end(root);
    result
}

/// A VM with the two arrays, the host-side copy of the source, and the
/// op tally.
pub struct Fixture<'e, 'a> {
    env: &'e JniEnv<'a>,
    pub src: ArrayRef,
    dst: ArrayRef,
    expected: Vec<i32>,
    got: Vec<i32>,
    rng: SplitMix,
    next: usize,
    pub report: Report,
}

impl<'e, 'a> Fixture<'e, 'a> {
    fn new(env: &'e JniEnv<'a>, len: usize, seed: u64) -> Fixture<'e, 'a> {
        let mut rng = SplitMix(seed);
        let expected: Vec<i32> = (0..len).map(|_| rng.next_u64() as i32).collect();
        let src = env
            .new_int_array_from(&expected)
            .expect("two small arrays fit the default 64 MiB heap");
        let dst = env
            .new_int_array(len)
            .expect("two small arrays fit the default 64 MiB heap");
        Fixture {
            env,
            src,
            dst,
            got: vec![0; len],
            expected,
            rng,
            next: 0,
            report: Report::default(),
        }
    }

    /// One checked op; returns its raw time and when it ended. A failed
    /// copy or a wrong destination counts as a failed op.
    pub fn op(&mut self, t: &mut impl Tracer) -> (u64, Instant) {
        let idx = self.next % self.expected.len();
        self.next += 1;
        let v = self.rng.next_u64() as i32;
        let prepared = self.env.set_int_array_region(&self.src, idx, &[v]).is_ok();
        self.expected[idx] = v;
        let t0 = Instant::now();
        let copied = copy_once(self.env, &self.src, &self.dst, t).is_ok();
        let t1 = Instant::now();
        let ok = prepared
            && copied
            && self
                .env
                .get_int_array_region(&self.dst, 0, &mut self.got)
                .is_ok()
            && self.got == self.expected;
        self.report.op(ok);
        (nanos(t1 - t0), t1)
    }

    /// Runs ops until `seconds` have passed.
    fn measure(&mut self, seconds: f64, seed: u64, t: &mut impl Tracer) -> Clock {
        let mut clock = Clock::new(calibration(self.expected.len()), seed);
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        loop {
            let (ns, end) = self.op(t);
            clock.record(ns, 0, end, t);
            if end >= deadline {
                break;
            }
        }
        clock.close_window(t);
        clock
    }

    /// Folds this fixture's tally and end-of-run checks into `into`.
    fn finish(self, into: &mut Report) {
        let c = Counts::of(self.env.vm());
        into.attempted += self.report.attempted;
        into.failed += self.report.failed;
        into.check(c.tag_faults == 0, || {
            format!("{} tag-check faults", c.tag_faults)
        });
        into.check(c.contained_faults == 0, || {
            format!("{} contained faults", c.contained_faults)
        });
    }
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Builds a fresh fixture, warms it up with a fixed op count, and hands
/// it to `body`.
pub fn with_fixture<R>(len: usize, seed: u64, body: impl FnOnce(Fixture<'_, '_>) -> R) -> R {
    let vm = Scheme::Mte4JniSync.build_vm();
    let thread = vm.attach_thread("copy-client");
    let env = vm.env(&thread);
    let mut fx = Fixture::new(&env, len, seed);
    for _ in 0..warmup_ops(len) {
        fx.op(&mut NoTrace);
    }
    body(fx)
}

/// Per-op counts over [`COUNT_OPS`] ops of a fresh fixture, on a fresh
/// thread so no other VM's thread-local state is around.
pub fn count(len: usize, seed: u64, ops: u64) -> (Counts, Report) {
    std::thread::scope(|s| {
        s.spawn(|| {
            with_fixture(len, seed, |mut fx| {
                let before = Counts::of(fx.env.vm());
                fx.report = Report::default();
                for _ in 0..ops {
                    fx.op(&mut NoTrace);
                }
                let counts = Counts::of(fx.env.vm()).since(before);
                let mut report = Report::default();
                fx.finish(&mut report);
                (counts, report)
            })
        })
        .join()
        .expect("count thread does not panic")
    })
}

pub fn run(len: usize, cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    let mut reference = Reference::new(cfg.seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let timer = SetupTimer::start(&mut reference);
        with_fixture(len, cfg.seed, |mut fx| {
            setups.push(timer.stop(&mut reference, calibration(len)[0]));
            if rep + 1 == SETUP_REPS {
                measure_phases(len, cfg, &mut fx, &mut report, &setups);
            }
            fx.finish(&mut report);
        });
    }
    if cfg.trace {
        let (counts, tally) = count(len, cfg.seed, COUNT_OPS);
        report.attempted += tally.attempted;
        report.failed += tally.failed;
        report.problems.extend(tally.problems);
        counts.report(COUNT_OPS, &mut report);
    }
    report
}

fn measure_phases(
    len: usize,
    cfg: &RunCfg,
    fx: &mut Fixture<'_, '_>,
    report: &mut Report,
    setups: &[(f64, f64)],
) {
    if !cfg.trace {
        let clock = fx.measure(cfg.seconds, cfg.seed, &mut NoTrace);
        report.end_to_end(&summarize(&[clock]), setups);
        return;
    }
    let untraced = summarize(&[fx.measure(cfg.seconds / 2.0, cfg.seed, &mut NoTrace)]);
    report.end_to_end(&untraced, setups);
    let mut rec = Recorder::new(LOG_SPANS, |_| 0);
    let clock = fx.measure(cfg.seconds / 2.0, cfg.seed, &mut rec);
    let traced = summarize(std::slice::from_ref(&clock));
    let totals = rec.totals();
    let agg = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    let root = agg("jni.call_native");
    let acquire = agg("jni.acquire");
    let release = agg("jni.release");
    let access = agg("mte-sim.access");
    report.set("jni.call_native_self_ns", per(root.self_ns, root.count));
    report.set("jni.acquire_ns", per(acquire.total_ns, acquire.count));
    report.set("jni.release_ns", per(release.total_ns, release.count));
    // One read and one write per element copied.
    report.set(
        "mte-sim.access_ns",
        per(access.total_ns, access.count * 2 * len as u64),
    );
    report.set("bench.traced_op_ns", per(root.total_ns, root.count));
    report.set(
        "bench.unattributed_share",
        1.0 - root.total_ns / clock.cal_ns,
    );
    report.set(
        "bench.trace_overhead",
        untraced.ops_per_s / traced.ops_per_s,
    );
    crate::write_spans(cfg, &[&rec]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_repeat_exactly_across_runs_and_seeds() {
        for len in [SMALL_LEN, LARGE_LEN] {
            // Large copies are slow: one stash self-flush period only.
            let ops = if len == SMALL_LEN { COUNT_OPS } else { 2048 };
            let (a, ra) = count(len, 1, ops);
            let (b, rb) = count(len, 1, ops);
            let (c, rc) = count(len, 0xDEAD_BEEF, ops);
            assert_eq!(a, b, "len {len}: two runs of one seed");
            assert_eq!(a, c, "len {len}: two seeds");
            for r in [ra, rb, rc] {
                assert!(r.correct(), "len {len}: {:?}", r.problems);
                assert_eq!(r.attempted, ops);
            }
            assert_eq!(a.acquires, 2 * ops, "len {len}");
            assert_eq!(a.pins, 2 * ops, "len {len}");
            assert_eq!(a.tag_faults, 0);
            // Re-borrowing the same two arrays is the stash's best case.
            let hit_ratio = a.stash_hits as f64 / a.acquires as f64;
            assert!(hit_ratio > 0.99, "len {len}: stash hit ratio {hit_ratio}");
            assert!(a.irg * 100 < ops, "len {len}: irg {}", a.irg);
        }
    }

    #[test]
    fn a_corrupted_result_is_a_failed_op_not_a_panic() {
        with_fixture(SMALL_LEN, 5, |mut fx| {
            let warm = fx.report.attempted;
            assert_eq!(fx.report.failed, 0);
            // Corrupt the source behind the host-side copy: the next op
            // copies the corrupted array faithfully, so the destination
            // no longer matches what the source should hold.
            let env = fx.env;
            let src = fx.src.clone();
            let mut first = [0i32; 1];
            env.get_int_array_region(&src, 1, &mut first).unwrap();
            env.set_int_array_region(&src, 1, &[first[0] ^ 1]).unwrap();
            fx.op(&mut NoTrace);
            assert_eq!((fx.report.attempted, fx.report.failed), (warm + 1, 1));
            let mut report = Report::default();
            fx.finish(&mut report);
            assert!(!report.correct());
        });
    }

    #[test]
    fn traced_op_is_the_untraced_op_with_six_spans() {
        with_fixture(LARGE_LEN, 2, |mut fx| {
            let mut rec = Recorder::new(100, |_| 0);
            fx.op(&mut rec);
            rec.window_closed(&[1.0]);
            let t = rec.totals();
            assert_eq!(t["jni.call_native"].count, 1);
            assert_eq!(t["jni.acquire"].count, 2);
            assert_eq!(t["jni.release"].count, 2);
            assert_eq!(t["mte-sim.access"].count, 1);
            let self_sum: f64 = t.values().map(|a| a.self_ns).sum();
            assert!((self_sum - t["jni.call_native"].total_ns).abs() < 1e-6);
            assert!(fx.report.correct());
        });
    }
}
