//! `serving`: four lock-free tenants behind two closed-loop clients
//! (as many as the host has vCPUs) calling `Tenant::serve` on the seeded
//! default traffic mix — micro churn on a fresh 16-int array, 4% kernels,
//! 0.2% trace replays, no noisy tenant.
//!
//! The loop is closed: a client sends its next request only when the
//! previous one returned, so a host whose speed halves for seconds gets
//! less load instead of a growing queue the benchmark would then measure.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use server::{Request, RequestKind, RequestOutcome, Server, ServerConfig, TrafficConfig};

use crate::calib::{summarize, Calibration, Clock, Reference, SplitMix};
use crate::copy::nanos;
use crate::counts::Counts;
use crate::hist::Hist;
use crate::report::{Report, SetupTimer, SETUP_REPS};
use crate::spans::{NoTrace, Recorder, Tracer};
use crate::RunCfg;

const TENANTS: u32 = 4;
const CLIENTS: usize = 2;
/// Requests generated per tenant; clients cycle through the stream.
const PER_TENANT: u64 = 65_536;
/// Set-up warm-up requests per tenant, served by one thread.
const WARMUP_PER_TENANT: u64 = 500;
/// Requests in the count phase of a traced run.
const COUNT_REQS: usize = 20_000;
/// Spans kept in the written log of each client of a traced run.
const LOG_SPANS: usize = 60_000;

/// Op classes: request kinds, for per-kind latency and calibration.
const MICRO: usize = 0;
const KERNEL: usize = 1;
const REPLAY: usize = 2;

/// Calibration weights per kind, fitted to the host's slow phases:
/// kernels, which fill most of the clients' busy time, slow nearly like
/// the throughput reference kernel, micro requests like a mix of the two.
/// Replays (~4% of busy time) get a weight between.
const CALIBRATIONS: &[Calibration] = &[
    Calibration { weight: 0.65 },
    Calibration { weight: 0.9 },
    Calibration { weight: 0.8 },
];

/// The class of a span: its request kind.
fn span_class(name: &str) -> usize {
    match name {
        "server.serve.kernel" => KERNEL,
        "server.serve.replay" => REPLAY,
        _ => MICRO,
    }
}

fn class(req: &Request) -> (usize, &'static str) {
    match req.kind {
        RequestKind::Micro { .. } => (MICRO, "server.serve.micro"),
        RequestKind::Kernel { .. } => (KERNEL, "server.serve.kernel"),
        RequestKind::Replay { .. } => (REPLAY, "server.serve.replay"),
    }
}

/// The fleet, its warm-up traffic and its seeded request stream.
pub struct Fleet {
    server: Server,
    warmup: Vec<Request>,
    stream: Vec<Request>,
}

impl Fleet {
    fn build(seed: u64) -> Fleet {
        let traffic = |seed, per_tenant| {
            TrafficConfig {
                seed,
                per_tenant,
                ..TrafficConfig::default()
            }
            .generate(TENANTS)
        };
        Fleet {
            server: Server::new(ServerConfig::with_tenants(TENANTS, CLIENTS)),
            // The default traffic seed, whatever the run's: set-up does
            // the same work on every seed.
            warmup: traffic(TrafficConfig::default().seed, WARMUP_PER_TENANT),
            stream: traffic(SplitMix(seed).next_u64(), PER_TENANT),
        }
    }

    /// Serves one request; only a completed, admitted request is correct.
    fn serve(&self, req: &Request, t: &mut impl Tracer) -> bool {
        let span = t.begin(class(req).1);
        let outcome = self.server.tenants()[req.tenant as usize].serve(req);
        t.end(span);
        matches!(outcome, Ok(RequestOutcome::Completed))
    }

    fn counts(&self) -> Counts {
        Counts::of_all(self.server.tenants().iter().map(|t| t.vm()))
    }

    fn retries(&self) -> u64 {
        self.server
            .tenants()
            .iter()
            .map(|t| t.stats().retries)
            .sum()
    }

    fn shed(&self) -> u64 {
        self.server
            .tenants()
            .iter()
            .map(|t| {
                let s = t.stats();
                s.shed_queue_full + s.shed_budget + s.shed_quarantined
            })
            .sum()
    }

    /// The end-of-run checks: nothing shed, no failed or contained
    /// request, no replay conservation violation, a quiescent fleet.
    fn finish(&self, report: &mut Report) {
        let shed = self.shed();
        report.check(shed == 0, || format!("{shed} requests shed"));
        let failed: u64 = self.server.tenants().iter().map(|t| t.failed()).sum();
        report.check(failed == 0, || format!("{failed} requests Failed"));
        let contained = self.counts().contained_faults;
        report.check(contained == 0, || format!("{contained} contained faults"));
        let violations: u64 = self
            .server
            .tenants()
            .iter()
            .map(|t| t.replay_violations())
            .sum();
        report.check(violations == 0, || {
            format!("{violations} replay conservation violations")
        });
        for v in self.server.quiesce_all() {
            report.problems.push(v);
        }
    }
}

/// Builds a fleet and serves its warm-up traffic.
fn setup(seed: u64, report: &mut Report) -> Fleet {
    let fleet = Fleet::build(seed);
    for req in &fleet.warmup {
        report.op(fleet.serve(req, &mut NoTrace));
    }
    fleet
}

/// When a client stops.
#[derive(Clone, Copy)]
enum Stop {
    At(Instant),
    /// Once the shared cursor reaches this stream index.
    Index(usize),
}

struct ClientOut {
    clock: Clock,
    attempted: u64,
    failed: u64,
}

fn client(
    fleet: &Fleet,
    cursor: &AtomicUsize,
    stop: Stop,
    seed: u64,
    t: &mut impl Tracer,
) -> ClientOut {
    let mut out = ClientOut {
        clock: Clock::new(CALIBRATIONS, seed),
        attempted: 0,
        failed: 0,
    };
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if matches!(stop, Stop::Index(end) if i >= end) {
            break;
        }
        let req = &fleet.stream[i % fleet.stream.len()];
        let t0 = Instant::now();
        let ok = fleet.serve(req, t);
        let t1 = Instant::now();
        out.attempted += 1;
        out.failed += u64::from(!ok);
        out.clock.record(nanos(t1 - t0), class(req).0, t1, t);
        if matches!(stop, Stop::At(deadline) if t1 >= deadline) {
            break;
        }
    }
    out.clock.close_window(t);
    out
}

/// Runs [`CLIENTS`] closed-loop clients from the stream's start; with
/// `trace`, each records spans. Returns the clocks and the recorders.
fn drive(
    fleet: &Fleet,
    stop: Stop,
    cfg: &RunCfg,
    trace: bool,
    report: &mut Report,
) -> (Vec<Clock>, Vec<Recorder>) {
    let cursor = AtomicUsize::new(0);
    let outs: Vec<(ClientOut, Option<Recorder>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let cursor = &cursor;
                let seed = cfg.seed ^ (c as u64 + 1);
                s.spawn(move || {
                    if trace {
                        let mut rec = Recorder::new(LOG_SPANS, span_class);
                        let out = client(fleet, cursor, stop, seed, &mut rec);
                        (out, Some(rec))
                    } else {
                        (client(fleet, cursor, stop, seed, &mut NoTrace), None)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serving client does not panic"))
            .collect()
    });
    let mut clocks = Vec::with_capacity(CLIENTS);
    let mut recorders = Vec::new();
    for (out, rec) in outs {
        report.attempted += out.attempted;
        report.failed += out.failed;
        clocks.push(out.clock);
        recorders.extend(rec);
    }
    (clocks, recorders)
}

pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    let mut reference = Reference::new(cfg.seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let timer = SetupTimer::start(&mut reference);
        let fleet = setup(cfg.seed, &mut report);
        // Kernels fill most of the warm-up's time too.
        setups.push(timer.stop(&mut reference, CALIBRATIONS[KERNEL]));
        if rep + 1 == SETUP_REPS {
            measure_phases(&fleet, cfg, &mut report, &setups);
        }
        fleet.finish(&mut report);
    }
    if cfg.trace {
        count_phase(cfg, &mut report);
    }
    report
}

fn seconds_from_now(s: f64) -> Stop {
    Stop::At(Instant::now() + Duration::from_secs_f64(s))
}

fn measure_phases(fleet: &Fleet, cfg: &RunCfg, report: &mut Report, setups: &[(f64, f64)]) {
    if !cfg.trace {
        let (clocks, _) = drive(fleet, seconds_from_now(cfg.seconds), cfg, false, report);
        report.end_to_end(&summarize(&clocks), setups);
        return;
    }
    let half = cfg.seconds / 2.0;
    let (clocks, _) = drive(fleet, seconds_from_now(half), cfg, false, report);
    let untraced = summarize(&clocks);
    report.end_to_end(&untraced, setups);
    let kind = |k: usize, q: f64| {
        let mut h = Hist::default();
        for c in &clocks {
            h.merge(&c.classes[k]);
        }
        h.quantile(q) / 1e3
    };
    report.set("server.micro_p50_us", kind(MICRO, 0.5));
    report.set("server.micro_p99_us", kind(MICRO, 0.99));
    report.set("server.kernel_p50_us", kind(KERNEL, 0.5));
    report.set("server.kernel_p99_us", kind(KERNEL, 0.99));
    report.set("server.replay_p50_us", kind(REPLAY, 0.5));

    let (clocks, recorders) = drive(fleet, seconds_from_now(half), cfg, true, report);
    let traced = summarize(&clocks);
    let mut totals = Recorder::new(0, span_class);
    for r in &recorders {
        totals.merge_totals(r);
    }
    let (root_ns, root_count) = totals
        .totals()
        .iter()
        .filter(|(name, _)| name.starts_with("server.serve."))
        .fold((0.0, 0), |(ns, n), (_, a)| (ns + a.total_ns, n + a.count));
    let busy_ns: f64 = clocks.iter().map(|c| c.cal_ns).sum();
    report.set("bench.traced_op_ns", root_ns / root_count.max(1) as f64);
    report.set("bench.unattributed_share", 1.0 - root_ns / busy_ns);
    report.set(
        "bench.trace_overhead",
        untraced.ops_per_s / traced.ops_per_s,
    );
    let refs: Vec<&Recorder> = recorders.iter().collect();
    crate::write_spans(cfg, &refs);
}

/// Per-request counts over [`COUNT_REQS`] requests of a fresh fleet.
/// Two clients share one table and heap, so unlike the copy workloads
/// these counts vary slightly with the interleaving.
fn count_phase(cfg: &RunCfg, report: &mut Report) {
    let fleet = setup(cfg.seed, report);
    let before = fleet.counts();
    let (retries, shed) = (fleet.retries(), fleet.shed());
    drive(&fleet, Stop::Index(COUNT_REQS), cfg, false, report);
    let c = fleet.counts().since(before);
    let reqs = COUNT_REQS as u64;
    c.report(reqs, report);
    report.set(
        "server.retries_per_kreq",
        1000.0 * (fleet.retries() - retries) as f64 / reqs as f64,
    );
    report.set(
        "server.shed_ratio",
        (fleet.shed() - shed) as f64 / reqs as f64,
    );
    fleet.finish(report);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_fixed_count_run_serves_everything_and_quiesces() {
        let cfg = RunCfg {
            name: "serving",
            seed: 3,
            seconds: 0.0,
            trace: false,
        };
        let mut report = Report::default();
        let fleet = setup(cfg.seed, &mut report);
        let (clocks, _) = drive(&fleet, Stop::Index(2_000), &cfg, false, &mut report);
        assert_eq!(clocks.iter().map(Clock::ops).sum::<u64>(), 2_000);
        fleet.finish(&mut report);
        assert!(report.correct(), "{:?}", report.problems);
        assert_eq!(
            report.attempted,
            u64::from(TENANTS) * WARMUP_PER_TENANT + 2_000
        );
    }

    #[test]
    fn the_default_mix_has_every_kind() {
        let fleet = Fleet::build(1);
        let mut seen = [0usize; 3];
        for r in &fleet.stream {
            seen[class(r).0] += 1;
        }
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
        assert!(seen[KERNEL] > seen[REPLAY] && seen[MICRO] > 10 * seen[KERNEL]);
    }
}
