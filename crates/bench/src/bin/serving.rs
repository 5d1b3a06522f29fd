//! Multi-tenant serving throughput and tail latency (DESIGN.md §16).
//!
//! Drives the `crates/server` fleet — N tenant VMs behind a shared
//! worker pool, open-loop seeded traffic — and reports fleet requests/s
//! plus exact p50/p99 request latency per scheme at 1, 4, and 16
//! tenants, then repeats the 4-tenant point with tenant 0 running the
//! containment stress fault plan (the "noisy neighbor" row). The
//! headline figures are the noisy-neighbor p99 ratios: the neighbors'
//! tail latency with a faulting tenant in the fleet over the same
//! tenants' tail on the same arrival seed without it.
//!
//! The binary also asserts the isolation invariant on every noisy run
//! (neighbors complete everything they admit with zero contained
//! faults) and runs the fleet quiescence oracle after every
//! measurement, so a perf run doubles as a soundness check.
//!
//! Emits `BENCH_serving.json`. CI gates the quick rows against
//! `crates/bench/baselines/BENCH_serving.baseline.json` (≤ 20% req/s
//! regression) and bounds the lock-free noisy p99 ratio.

use std::cell::RefCell;
use std::time::Duration;

use bench::{json_output, print_environment, spread, Args, BenchReport, Rounds};
use mte_sim::inject::FaultPlan;
use server::{Server, ServerConfig};
use server::traffic::TrafficConfig;
use telemetry::json::JsonValue;
use telemetry::Snapshot;
use workloads::Backend;

/// Tenant count for the noisy-neighbor comparison rows.
const NOISY_TENANTS: u32 = 4;
/// Mixed per-point injection rate for the noisy tenant, matching the
/// containment stress gate (≥ 2000 ppm on every fault point).
const NOISY_PPM: u32 = 2_000;

/// One pass of a fleet configuration on a fresh fleet.
struct Pass {
    /// The fleet's wall time for the whole stream.
    elapsed: Duration,
    /// Fleet requests/s over the whole stream.
    req_s: f64,
    /// Exact whole-fleet latency quantiles, ns.
    p50_ns: u64,
    p99_ns: u64,
    /// p99 over the non-noisy tenants only (tenants 1.., or tenant 0
    /// in the single-tenant fleet) — the noisy-ratio numerator.
    neighbor_p99_ns: u64,
    served: u64,
    shed: u64,
    /// Contained faults on tenant 0 (the noisy tenant when armed).
    contained: u64,
    /// Tenant 0's health label after the run.
    health: String,
}

/// Exact quantile over a sorted sample (nearest-rank).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One row: each pass builds a fresh fleet and its arrival stream
/// (untimed), serves the stream (timed by the fleet itself), checks the
/// fleet afterwards, and merges every tenant's snapshot into `measured`.
fn fleet_row<'m>(
    scheme: Backend,
    tenants: u32,
    noisy: bool,
    per_tenant: u64,
    measured: &'m RefCell<Snapshot>,
) -> impl FnMut() -> Pass + 'm {
    move || {
        let workers = (tenants as usize).min(8);
        let mut cfg = ServerConfig::with_tenants(tenants, workers);
        for t in &mut cfg.tenants {
            t.scheme = scheme;
        }
        if noisy {
            cfg.tenants[0].fault_plan = Some(FaultPlan::uniform(NOISY_PPM));
        }
        let traffic = TrafficConfig {
            per_tenant,
            noisy_tenant: noisy.then_some(0),
            ..TrafficConfig::default()
        };
        let requests = traffic.generate(tenants);
        let server = Server::new(cfg);
        let (summary, lats) = server.run_timed(&requests);

        // Perf runs double as soundness checks: the fleet must be
        // quiescent and, under a noisy neighbor, isolation must hold.
        let violations = server.quiesce_all();
        assert!(violations.is_empty(), "fleet not quiescent: {violations:?}");
        for t in server.tenants() {
            measured.borrow_mut().merge(t.snapshot());
        }
        if noisy {
            for t in server.tenants().iter().filter(|t| t.config().id != 0) {
                let s = t.stats();
                assert_eq!(s.contained_faults, 0, "tenant {} contained a fault", s.tenant);
                assert_eq!(s.completed, s.admitted, "tenant {} dropped work", s.tenant);
            }
        }

        let mut all: Vec<u64> = lats.iter().flatten().copied().collect();
        all.sort_unstable();
        let mut neighbor: Vec<u64> = if tenants > 1 {
            lats.iter().skip(1).flatten().copied().collect()
        } else {
            all.clone()
        };
        neighbor.sort_unstable();
        let t0 = server.tenant(0).stats();
        Pass {
            elapsed: summary.elapsed,
            req_s: summary.served as f64 / summary.elapsed.as_secs_f64().max(1e-12),
            p50_ns: quantile(&all, 0.50),
            p99_ns: quantile(&all, 0.99),
            neighbor_p99_ns: quantile(&neighbor, 0.99),
            served: summary.served,
            shed: summary.shed,
            contained: t0.contained_faults,
            health: t0.health,
        }
    }
}

fn scheme_key(scheme: Backend) -> String {
    scheme.label().replace('-', "_")
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("--quick");
    let repeats: u32 = args.value("--repeats", 3);
    let per_tenant: u64 = args.value("--per-tenant", if quick { 500 } else { 1500 });
    let json_path = json_output(&args);

    let mut report = BenchReport::new("serving");
    report
        .param("quick", quick)
        .param("repeats", repeats)
        .param("per_tenant", per_tenant)
        .param("noisy_ppm", NOISY_PPM);

    print_environment("Multi-tenant serving — throughput and noisy-neighbor tail latency");
    println!(
        "{:>10}  {:>7}  {:>5}  {:>12}  {:>10}  {:>10}  {:>6}  {:>11}",
        "scheme", "tenants", "noisy", "req/s", "p50", "p99", "shed", "t0 health"
    );

    // Fleet-peak req/s across every row: the regression-gate figure.
    // Per-row req/s on a loaded single-core host swings ±25% run to
    // run, but the run's peak is stable within ~10%.
    let mut peak_req_s = 0f64;
    let rounds = Rounds::new(repeats);
    let measured = RefCell::new(Snapshot::default());
    for tenants in [1u32, NOISY_TENANTS, 16] {
        let noisy_runs: &[bool] = if tenants == NOISY_TENANTS { &[false, true] } else { &[false] };
        let rows: Vec<(Backend, bool)> = Backend::ALL
            .into_iter()
            .flat_map(|scheme| noisy_runs.iter().map(move |&noisy| (scheme, noisy)))
            .collect();
        let series = rounds.run(rows.iter().copied(), |(scheme, noisy)| {
            fleet_row(scheme, tenants, noisy, per_tenant, &measured)
        });
        let baseline = series[0].map(|p| p.elapsed);
        let mut quiet_neighbor_p99 = 0u64;
        for (&(scheme, noisy), s) in rows.iter().zip(&series) {
            // Best of the rounds per metric: max throughput, min tails —
            // both directions reject scheduler noise, never hide a real
            // regression present in every round. The counts and health
            // are the last round's.
            let last = s.samples().last().expect("at least one round");
            let req_s = s.map(|p| p.req_s).max();
            let p50_ns = s.map(|p| p.p50_ns).min();
            let p99_ns = s.map(|p| p.p99_ns).min();
            let neighbor_p99_ns = s.map(|p| p.neighbor_p99_ns).min();
            peak_req_s = peak_req_s.max(req_s);
            println!(
                "{:>10}  {:>7}  {:>5}  {:>10.0}/s  {:>8.1}us  {:>8.1}us  {:>6}  {:>11}",
                scheme.label(),
                tenants,
                if noisy { "on" } else { "off" },
                req_s,
                p50_ns as f64 / 1e3,
                p99_ns as f64 / 1e3,
                last.shed,
                last.health,
            );
            let mut fields = vec![
                ("scheme", JsonValue::from(scheme.label())),
                ("tenants", JsonValue::from(tenants)),
                ("noisy", JsonValue::from(noisy)),
                ("req_per_s", JsonValue::from(req_s)),
                ("p50_ns", JsonValue::from(p50_ns)),
                ("p99_ns", JsonValue::from(p99_ns)),
                ("neighbor_p99_ns", JsonValue::from(neighbor_p99_ns)),
                ("served", JsonValue::from(last.served)),
                ("shed", JsonValue::from(last.shed)),
                ("contained_faults_t0", JsonValue::from(last.contained)),
                ("t0_health", JsonValue::from(last.health.as_str())),
            ];
            fields.extend(spread(&baseline, &[(scheme.label(), &s.map(|p| p.elapsed))]));
            report.row(fields);
            if tenants == NOISY_TENANTS {
                if noisy {
                    // The acceptance figure: neighbors' p99 with a
                    // faulting tenant over the same tenants' p99 on the
                    // same arrival seed without one.
                    let ratio = neighbor_p99_ns as f64 / (quiet_neighbor_p99 as f64).max(1.0);
                    println!(
                        "{:>10}  noisy-neighbor p99 ratio: {ratio:.2}x \
                         (t0 {} with {} contained faults)",
                        "", last.health, last.contained
                    );
                    report.summary(&format!("noisy_p99_ratio_{}", scheme_key(scheme)), ratio);
                } else {
                    quiet_neighbor_p99 = neighbor_p99_ns;
                }
            }
            if tenants == 16 {
                report.summary(&format!("req_s_16_{}", scheme_key(scheme)), req_s);
            }
        }
    }

    report.summary("peak_req_s", peak_req_s);
    report.merge([measured.into_inner()]);
    println!("\nfleet peak: {peak_req_s:.0} req/s");

    if let Some(dir) = json_path {
        bench::write_report(&report, &dir);
    }
}
