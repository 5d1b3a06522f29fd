//! Host calibration.
//!
//! The host this benchmark is tuned on runs throughput-bound code up to
//! 2x slower for seconds at a time, so raw timings of identical code
//! drift far beyond any useful regression bound. Every thread that does
//! measured work therefore runs a short *reference slice* after each
//! window of a few milliseconds, and every op timed in the window is
//! scaled by how much slower than nominal the reference ran around it:
//! the median over the slices of the last [`SMOOTH_SLICES`] windows, so
//! a burst shorter than a few windows, which the slice may or may not
//! catch, does not rescale a whole window, while the seconds-long slow
//! phases are tracked.
//!
//! The reference is this file's own code and calls no crate of the
//! program, so no change to the program can speed it up. It has two
//! kernels: a throughput-bound one like the simulator's checked accesses
//! — independent loads, nibble extracts, compares and stores over a few
//! KiB — and a dependent multiply chain. In the host's slow phases the
//! first slows by ~1.65x and the second barely, while a workload slows
//! by its own mix of the two; each op class (a workload, or a serving
//! request kind) weights the kernels by the exponent
//! [`Calibration::weight`] fitted to those phases.
//!
//! Throughput and latency quantiles are taken over every calibrated op
//! of the run. Raw (unscaled) figures are kept beside them.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::hist::{median, Hist};
use crate::spans::Tracer;

/// Nominal times of one throughput and one latency reference sub-slice,
/// in ns: their typical durations on the 2-vCPU x86-64 host the
/// benchmark was tuned on, outside its slow phases. Calibrated times are
/// in these "nominal host" units.
pub const NOMINAL_THROUGHPUT_NS: f64 = 8_000.0;
pub const NOMINAL_LATENCY_NS: f64 = 1_200.0;

/// Length of one calibration window.
pub const WINDOW: Duration = Duration::from_millis(2);

/// Reference slices whose median scales a window.
const SMOOTH_SLICES: usize = 9;

const REF_WORDS: usize = 1024;
const REF_STEPS: usize = 4096;
const CHAIN_STEPS: u64 = 6000;
/// Sub-slices per reference slice; their median resists a preemption
/// landing inside one of them.
const REF_SUB_SLICES: usize = 5;

/// The reference kernels: a simulated "checked load/store" loop over an
/// 8 KiB data array and its nibble-packed tags, and a multiply chain.
pub struct Reference {
    data: Vec<u64>,
    tags: Vec<u64>,
    out: Vec<u64>,
    sink: u64,
}

impl Reference {
    pub fn new(seed: u64) -> Reference {
        let mut rng = SplitMix(seed ^ 0x5EF5_11CE);
        Reference {
            data: (0..REF_WORDS).map(|_| rng.next_u64()).collect(),
            tags: (0..REF_WORDS / 16).map(|_| rng.next_u64()).collect(),
            out: vec![0; REF_WORDS],
            sink: 0,
        }
    }

    fn sub_slice(&mut self) -> u64 {
        let data = black_box(&self.data[..]);
        let tags = black_box(&self.tags[..]);
        let mut mismatches = 0u64;
        for i in 0..REF_STEPS {
            // An odd stride visits every word once per REF_WORDS steps;
            // iterations are independent, so the loop is bound by load
            // and store throughput, not latency.
            let idx = (i * 389) & (REF_WORDS - 1);
            let nibble = (tags[idx >> 4] >> ((idx & 15) * 4)) & 0xF;
            let word = data[idx];
            mismatches += u64::from((word >> 56) & 0xF != nibble);
            self.out[idx] = word.wrapping_add(nibble);
        }
        black_box(&mut self.out);
        mismatches
    }

    fn chain(&mut self) -> u64 {
        let mut x = black_box(self.sink | 1);
        for i in 0..CHAIN_STEPS {
            x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i);
        }
        x
    }

    /// Times one reference slice: the median of each kernel's
    /// sub-slices, in ns.
    pub fn measure(&mut self) -> Refs {
        let mut throughput = [0.0f64; REF_SUB_SLICES];
        let mut latency = [0.0f64; REF_SUB_SLICES];
        for (t, l) in throughput.iter_mut().zip(&mut latency) {
            let t0 = Instant::now();
            let m = self.sub_slice();
            let t1 = Instant::now();
            let c = self.chain();
            *t = (t1 - t0).as_nanos() as f64;
            *l = t1.elapsed().as_nanos() as f64;
            self.sink = self.sink.wrapping_add(m ^ c);
        }
        black_box(self.sink);
        Refs {
            throughput: median(&throughput),
            latency: median(&latency),
        }
    }
}

/// One reference slice's kernel times, in ns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Refs {
    pub throughput: f64,
    pub latency: f64,
}

#[cfg(test)]
impl Refs {
    pub const NOMINAL: Refs = Refs {
        throughput: NOMINAL_THROUGHPUT_NS,
        latency: NOMINAL_LATENCY_NS,
    };

    /// Both kernels `k` times slower than nominal.
    pub fn slowed(k: f64) -> Refs {
        Refs {
            throughput: NOMINAL_THROUGHPUT_NS * k,
            latency: NOMINAL_LATENCY_NS * k,
        }
    }
}

/// How one op class is scaled by the reference.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Exponent of the throughput kernel's slowdown; the latency kernel
    /// gets `1 - weight`. Fitted per class as `ln(op slowdown / latency
    /// slowdown) / ln(throughput slowdown / latency slowdown)` over the
    /// windows of the host's slow phases (see `README.md`).
    pub weight: f64,
}

impl Calibration {
    /// Scale factor for work timed among the reference `slices`: their
    /// median slowdown, weighted between the kernels.
    pub fn factor(self, slices: &[Refs]) -> f64 {
        let t = median(&slices.iter().map(|r| r.throughput).collect::<Vec<f64>>());
        let l = median(&slices.iter().map(|r| r.latency).collect::<Vec<f64>>());
        (NOMINAL_THROUGHPUT_NS / t).powf(self.weight)
            * (NOMINAL_LATENCY_NS / l).powf(1.0 - self.weight)
    }
}

/// Per-thread calibrated op clock: collects raw op times in windows and
/// scales each closed window.
pub struct Clock {
    /// One per op class.
    calibrations: &'static [Calibration],
    /// The open window's factor per class, once it closes.
    factors: Vec<f64>,
    reference: Reference,
    /// The last [`SMOOTH_SLICES`] reference slices, oldest first.
    recent: Vec<Refs>,
    window: Vec<(u64, usize)>,
    window_end: Instant,
    /// Calibrated latency per op class (serving: request kind).
    pub classes: Vec<Hist>,
    raw: Hist,
    ops: u64,
    pub raw_ns: f64,
    pub cal_ns: f64,
    /// Throughput-kernel times of every slice.
    refs: Vec<f64>,
}

impl Clock {
    pub fn new(calibrations: &'static [Calibration], seed: u64) -> Clock {
        let mut reference = Reference::new(seed);
        let first = reference.measure();
        let classes = calibrations.len();
        Clock {
            calibrations,
            factors: vec![1.0; classes],
            reference,
            recent: vec![first],
            window: Vec::with_capacity(4096),
            window_end: Instant::now() + WINDOW,
            classes: vec![Hist::default(); classes],
            raw: Hist::default(),
            ops: 0,
            raw_ns: 0.0,
            cal_ns: 0.0,
            refs: vec![first.throughput],
        }
    }

    /// Records one op of class `class` that took `raw_ns` and ended at
    /// `end`; closes the window (running a reference slice) when due.
    pub fn record(&mut self, raw_ns: u64, class: usize, end: Instant, t: &mut impl Tracer) {
        self.window.push((raw_ns, class));
        if end >= self.window_end {
            self.close_window(t);
        }
    }

    /// Runs a reference slice and folds the open window.
    pub fn close_window(&mut self, t: &mut impl Tracer) {
        let span = t.begin("host.ref");
        let r = self.reference.measure();
        t.end(span);
        self.fold_window(r);
        t.window_closed(&self.factors);
        self.window_end = Instant::now() + WINDOW;
    }

    /// Scales the open window's ops by their class's factor for the
    /// recent reference slices, `ref_after` the newest, and returns the
    /// factors.
    pub fn fold_window(&mut self, ref_after: Refs) -> &[f64] {
        if self.recent.len() == SMOOTH_SLICES {
            self.recent.remove(0);
        }
        self.recent.push(ref_after);
        for (f, c) in self.factors.iter_mut().zip(self.calibrations) {
            *f = c.factor(&self.recent);
        }
        for &(ns, class) in &self.window {
            let raw = ns as f64;
            let f = self.factors[class];
            self.raw.add(raw);
            self.classes[class].add(raw * f);
            self.raw_ns += raw;
            self.cal_ns += raw * f;
        }
        self.ops += self.window.len() as u64;
        self.window.clear();
        self.refs.push(ref_after.throughput);
        &self.factors
    }

    #[cfg(test)]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Median throughput-kernel sub-slice time over the clock's life, in ns.
    pub fn ref_ns(&self) -> f64 {
        median(&self.refs)
    }
}

/// End-to-end figures of one measured phase, merged over its clocks
/// (one per client thread).
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub ops: u64,
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub raw_ops_per_s: f64,
    pub raw_p50_us: f64,
    pub raw_p99_us: f64,
    pub ref_us: f64,
}

/// Throughput is summed over clients, each client's ops per busy second:
/// every thread is calibrated against its own reference. Latency
/// quantiles are over all clients' ops.
pub fn summarize(clocks: &[Clock]) -> Summary {
    let rate = |ops: u64, ns: f64| if ns > 0.0 { ops as f64 / ns * 1e9 } else { 0.0 };
    let mut s = Summary::default();
    let (mut raw, mut cal) = (Hist::default(), Hist::default());
    for c in clocks {
        s.ops += c.ops;
        s.ops_per_s += rate(c.ops, c.cal_ns);
        s.raw_ops_per_s += rate(c.ops, c.raw_ns);
        raw.merge(&c.raw);
        for h in &c.classes {
            cal.merge(h);
        }
    }
    s.p50_us = cal.quantile(0.5) / 1e3;
    s.p99_us = cal.quantile(0.99) / 1e3;
    s.raw_p50_us = raw.quantile(0.5) / 1e3;
    s.raw_p99_us = raw.quantile(0.99) / 1e3;
    let refs: Vec<f64> = clocks.iter().map(Clock::ref_ns).collect();
    s.ref_us = median(&refs) / 1e3;
    s
}

/// Splitmix64: the benchmark's seeded input generator.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::NoTrace;

    const CAL: &[Calibration] = &[Calibration { weight: 0.6 }];

    /// A clock whose recent reference slices all ran at `r`.
    fn clock_after(r: Refs) -> Clock {
        let mut c = Clock::new(CAL, 1);
        c.recent = vec![r; SMOOTH_SLICES];
        c
    }

    /// Feeds one window of `ops` after which the reference ran at `r`.
    fn window(c: &mut Clock, ops: &[u64], r: Refs) -> f64 {
        c.window.extend(ops.iter().map(|&ns| (ns, 0)));
        c.fold_window(r)[0]
    }

    fn close(a: f64, b: f64) -> bool {
        (a / b - 1.0).abs() < 1e-9
    }

    /// 100 ops: 98 of 1 µs, then 2 and 9 µs, so p50 is 1 µs and p99 2 µs.
    fn fast_ops() -> Vec<u64> {
        let mut ops = vec![1_000; 98];
        ops.extend([2_000, 9_000]);
        ops
    }

    #[test]
    fn nominal_reference_leaves_raw_equal_to_calibrated() {
        let mut c = clock_after(Refs::NOMINAL);
        assert_eq!(window(&mut c, &fast_ops(), Refs::NOMINAL), 1.0);
        assert_eq!(c.raw_ns, c.cal_ns);
        let s = summarize(&[c]);
        assert_eq!(s.raw_ops_per_s, s.ops_per_s);
        assert_eq!((s.raw_p50_us, s.raw_p99_us), (s.p50_us, s.p99_us));
        // Histogram buckets resolve a quantile to within 0.1%.
        assert!(
            (s.p50_us - 1.0).abs() < 1e-3 && (s.p99_us - 2.0).abs() < 2e-3,
            "{s:?}"
        );
    }

    #[test]
    fn a_window_twice_as_slow_with_its_reference_calibrates_to_the_same_values() {
        let fast = fast_ops();
        let slow: Vec<u64> = fast.iter().map(|ns| ns * 2).collect();
        let mut a = clock_after(Refs::NOMINAL);
        window(&mut a, &fast, Refs::NOMINAL);
        let mut b = clock_after(Refs::slowed(2.0));
        assert!(close(window(&mut b, &slow, Refs::slowed(2.0)), 0.5));
        assert!(close(a.cal_ns, b.cal_ns));
        assert_eq!(b.raw_ns, 2.0 * a.raw_ns);
        let (sa, sb) = (summarize(&[a]), summarize(&[b]));
        assert!(close(sa.ops_per_s, sb.ops_per_s));
        // Same bucket, so the quantiles read identically.
        assert_eq!((sa.p50_us, sa.p99_us), (sb.p50_us, sb.p99_us));
        assert!(close(sa.raw_ops_per_s, 2.0 * sb.raw_ops_per_s));
        assert!(sb.raw_p50_us > 1.99 * sa.p50_us);
    }

    #[test]
    fn the_weight_splits_the_slowdown_between_the_kernels() {
        let only_throughput = Refs {
            throughput: 2.0 * NOMINAL_THROUGHPUT_NS,
            latency: NOMINAL_LATENCY_NS,
        };
        for weight in [0.0, 0.6, 1.0, 1.2] {
            let f = Calibration { weight }.factor(&[only_throughput]);
            assert!(
                (f - 0.5f64.powf(weight)).abs() < 1e-12,
                "weight {weight}: {f}"
            );
        }
    }

    #[test]
    fn a_burst_caught_by_one_slice_does_not_rescale_its_window() {
        let mut c = clock_after(Refs::NOMINAL);
        assert_eq!(window(&mut c, &fast_ops(), Refs::slowed(2.0)), 1.0);
        // A phase that lasts rescales once it fills most of the slices.
        let mut f = 1.0;
        for _ in 0..SMOOTH_SLICES / 2 + 1 {
            f = window(&mut c, &fast_ops(), Refs::slowed(2.0));
        }
        assert!(close(f, 0.5), "{f}");
    }

    #[test]
    fn throughput_sums_the_clients_rates() {
        let mut a = clock_after(Refs::NOMINAL);
        let mut b = clock_after(Refs::NOMINAL);
        window(&mut a, &[1_000; 10], Refs::NOMINAL);
        window(&mut b, &[2_000; 10], Refs::NOMINAL);
        let s = summarize(&[a, b]);
        assert_eq!(s.ops, 20);
        assert!(close(s.ops_per_s, 1e6 + 5e5));
    }

    #[test]
    fn each_class_is_scaled_by_its_own_weight() {
        const TWO: &[Calibration] = &[Calibration { weight: 0.0 }, Calibration { weight: 1.0 }];
        let mut c = Clock::new(TWO, 1);
        c.recent = vec![Refs::NOMINAL; SMOOTH_SLICES];
        let only_throughput = Refs {
            throughput: 2.0 * NOMINAL_THROUGHPUT_NS,
            latency: NOMINAL_LATENCY_NS,
        };
        for _ in 0..SMOOTH_SLICES {
            c.window.extend([(1_000, 0), (1_000, 1)]);
            c.fold_window(only_throughput);
        }
        assert_eq!(c.factors, [1.0, 0.5]);
    }

    #[test]
    fn windows_close_on_schedule_and_keep_every_op() {
        const TWO: &[Calibration] = &[CAL[0], CAL[0]];
        let mut c = Clock::new(TWO, 7);
        let mut t = NoTrace;
        for i in 0..10 {
            c.record(100, i % 2, Instant::now(), &mut t);
        }
        c.close_window(&mut t);
        assert_eq!(c.ops(), 10);
        assert_eq!(c.classes[0].len() + c.classes[1].len(), 10);
        assert!(c.ref_ns() > 0.0);
        assert_eq!(summarize(&[c]).ops, 10);
    }
}
