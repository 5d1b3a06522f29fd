//! Seeded schedule sweeps over the tag tables and guarded-copy ledger.
//!
//! ```text
//! stress --seed 7 --schedules 200 --fault-ppm 2000 --self-check --json out/
//! ```
//!
//! Runs `--schedules` deterministic interleavings per scheme (each with
//! its own derived seed), checks the concurrency invariants after every
//! schedule, and optionally proves the harness can still detect bugs by
//! running the mutation self-check. Identical invocations produce
//! bit-identical output: traces are seeded, and the JSON carries no
//! timestamps.

use std::process::ExitCode;

use mte_sim::inject::FaultPlan;
use stress::harness::{
    run_containment_schedule, run_lifecycle_schedule, run_schedule, run_serving_schedule,
    ScheduleResult, SchemeKind, StressConfig,
};
use stress::sched::trace_hash;
use telemetry::json::JsonValue;

struct Options {
    seed: u64,
    schedules: u64,
    scheme: Option<SchemeKind>,
    lifecycle: bool,
    containment: bool,
    serving: bool,
    self_check: bool,
    schedule_replay: Option<u64>,
    trace_out: Option<String>,
    json_dir: Option<String>,
    cfg: StressConfig,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 0x00C0_FFEE,
            schedules: 200,
            scheme: None,
            lifecycle: false,
            containment: false,
            serving: false,
            self_check: false,
            schedule_replay: None,
            trace_out: None,
            json_dir: None,
            cfg: StressConfig {
                fault_plan: FaultPlan::uniform(2000),
                ..StressConfig::default()
            },
        }
    }
}

impl Options {
    /// The selected workload: contended acquire/release rounds, the
    /// object-lifecycle (acquire → drop handle → sweep → release)
    /// regression schedule, or the fault-containment schedule.
    fn run(&self, kind: SchemeKind, seed: u64) -> ScheduleResult {
        if self.serving {
            run_serving_schedule(kind, seed, &self.cfg)
        } else if self.containment {
            run_containment_schedule(kind, seed, &self.cfg)
        } else if self.lifecycle {
            run_lifecycle_schedule(kind, seed, &self.cfg)
        } else {
            run_schedule(kind, seed, &self.cfg)
        }
    }

    fn workload(&self) -> &'static str {
        if self.serving {
            "serving"
        } else if self.containment {
            "containment"
        } else if self.lifecycle {
            "lifecycle"
        } else {
            "contention"
        }
    }
}

const USAGE: &str = "\
stress: deterministic concurrency + fault-injection harness

USAGE: stress [OPTIONS]

  --seed N          master seed (default 0xC0FFEE)
  --schedules N     interleavings per scheme (default 200)
  --threads N       workers per schedule (default 3)
  --objects N       contended objects per schedule (default 2)
  --rounds N        acquire/release rounds per worker (default 3)
  --max-steps N     schedule-point budget per schedule (default 20000)
  --fault-ppm N     fault-injection rate at every point, ppm (default 2000)
  --fault-irg-ppm N     irg tag-pool exhaustion rate, ppm
  --fault-ldg-ppm N     ldg failure rate, ppm
  --fault-stg-ppm N     stg / set_tag_range failure rate, ppm
  --fault-alloc-ppm N   native-allocation failure rate, ppm
  --fault-spurious-ppm N  spurious tag-check fault rate, ppm
                    (per-point flags override --fault-ppm field-by-field,
                     in argument order)
  --scheme S        lock-free | two-tier | global | guarded | all (default all)
  --lifecycle       run the object-lifecycle (pin-aware sweep) schedules
  --containment     run the fault-containment (FaultPolicy::Contain)
                    schedules; lock-free, two-tier and global only
  --serving         run the multi-tenant serving schedules: a 3-tenant
                    fleet per schedule, tenant 0 noisy (fault plan +
                    out-of-bounds traffic), oracle checks neighbor
                    isolation and per-tenant quiescence
  --self-check      also verify the harness catches the broken tables
  --schedule-replay N  re-derive and run only schedule index N from the
                    master seed, printing its full step trace
                    (--replay was removed in v8)
  --trace-out FILE  with --schedule-replay and a single --scheme: also
                    capture the runtime's JNI *event* trace to FILE
                    (inspect with `cargo run --example runtime_doctor -- FILE`).
                    Only --lifecycle/--containment schedules go through the
                    traced JNI funnel; the raw table-contention schedule
                    drives the tables directly and records nothing.
  --json DIR        write DIR/STRESS.json
  --help            this text

Two different 'replay' mechanisms meet here: --schedule-replay re-derives
a thread interleaving from its seed (nothing is read from disk), while
the trace crate's `trace replay` re-drives a recorded *event log* file.
See README section 'Record & replay'.
";

fn parse_args() -> Result<Options, String> {
    parse_args_from(std::env::args().skip(1))
}

fn parse_args_from(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut o = Options::default();
    let mut args = args.into_iter();
    fn num(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<u64, String> {
        let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let v = v.trim();
        let parsed = if let Some(hex) = v.strip_prefix("0x") {
            u64::from_str_radix(hex, 16)
        } else {
            v.parse()
        };
        parsed.map_err(|_| format!("{flag}: bad number {v:?}"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => o.seed = num(&mut args, "--seed")?,
            "--schedules" => o.schedules = num(&mut args, "--schedules")?,
            "--threads" => o.cfg.threads = num(&mut args, "--threads")? as usize,
            "--objects" => o.cfg.objects = num(&mut args, "--objects")?.max(1) as usize,
            "--rounds" => o.cfg.rounds = num(&mut args, "--rounds")? as usize,
            "--max-steps" => o.cfg.max_steps = num(&mut args, "--max-steps")?,
            "--fault-ppm" => {
                o.cfg.fault_plan = FaultPlan::uniform(num(&mut args, "--fault-ppm")? as u32)
            }
            "--fault-irg-ppm" => {
                o.cfg.fault_plan.irg_exhaust_ppm = num(&mut args, "--fault-irg-ppm")? as u32
            }
            "--fault-ldg-ppm" => {
                o.cfg.fault_plan.ldg_fail_ppm = num(&mut args, "--fault-ldg-ppm")? as u32
            }
            "--fault-stg-ppm" => {
                o.cfg.fault_plan.stg_fail_ppm = num(&mut args, "--fault-stg-ppm")? as u32
            }
            "--fault-alloc-ppm" => {
                o.cfg.fault_plan.alloc_fail_ppm = num(&mut args, "--fault-alloc-ppm")? as u32
            }
            "--fault-spurious-ppm" => {
                o.cfg.fault_plan.spurious_check_ppm =
                    num(&mut args, "--fault-spurious-ppm")? as u32
            }
            "--scheme" => {
                let v = args.next().ok_or("--scheme needs a value")?;
                o.scheme = match v.as_str() {
                    "lock-free" => Some(SchemeKind::LockFree),
                    "two-tier" => Some(SchemeKind::TwoTier),
                    "global" => Some(SchemeKind::Global),
                    "guarded" => Some(SchemeKind::Guarded),
                    "all" => None,
                    other => return Err(format!("--scheme: unknown scheme {other:?}")),
                };
            }
            "--lifecycle" => o.lifecycle = true,
            "--containment" => o.containment = true,
            "--serving" => o.serving = true,
            "--self-check" => o.self_check = true,
            "--schedule-replay" => {
                o.schedule_replay = Some(num(&mut args, "--schedule-replay")?);
            }
            "--replay" => {
                return Err(
                    "--replay was removed in v8; use --schedule-replay \
                     (the trace crate's `trace replay` re-drives recorded \
                     event-log files)"
                        .to_owned(),
                );
            }
            "--trace-out" => o.trace_out = Some(args.next().ok_or("--trace-out needs a value")?),
            "--json" => o.json_dir = Some(args.next().ok_or("--json needs a value")?),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(o)
}

/// Per-schedule seed: the master seed mixed with the schedule index.
fn schedule_seed(seed: u64, idx: u64) -> u64 {
    let mut x = seed ^ idx.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

struct SchemeOutcome {
    scheme: &'static str,
    schedules_run: u64,
    clean: bool,
    /// FNV-fold of every schedule's trace hash — the reproducibility
    /// fingerprint.
    trace_hash: u64,
    steps_total: u64,
    injected_faults: u64,
    contained_faults: u64,
    degraded_quarantine: u64,
    degraded_exhaust: u64,
    violations: Vec<String>,
    failing_schedule: Option<u64>,
}

fn sweep(kind: SchemeKind, o: &Options) -> SchemeOutcome {
    let mut combined: u64 = 0xcbf2_9ce4_8422_2325;
    let mut steps_total = 0;
    let mut injected = 0;
    let mut contained = 0;
    let mut degraded_quarantine = 0;
    let mut degraded_exhaust = 0;
    let mut run = 0;
    for idx in 0..o.schedules {
        let seed = schedule_seed(o.seed, idx);
        let result = o.run(kind, seed);
        run += 1;
        combined ^= trace_hash(&result.report.trace);
        combined = combined.wrapping_mul(0x1000_0000_01b3);
        steps_total += result.report.steps;
        injected += result.injected;
        contained += result.contained;
        degraded_quarantine += result.degraded_quarantine;
        degraded_exhaust += result.degraded_exhaust;
        if !result.violations.is_empty() {
            eprintln!(
                "[{}] schedule {idx} (seed {seed:#x}) violated invariants:",
                kind.label()
            );
            for v in &result.violations {
                eprintln!("  {v}");
            }
            eprintln!("  trace ({} events):", result.report.trace.len());
            for ev in &result.report.trace {
                eprintln!("    {ev}");
            }
            return SchemeOutcome {
                scheme: kind.label(),
                schedules_run: run,
                clean: false,
                trace_hash: combined,
                steps_total,
                injected_faults: injected,
                contained_faults: contained,
                degraded_quarantine,
                degraded_exhaust,
                violations: result.violations,
                failing_schedule: Some(idx),
            };
        }
    }
    SchemeOutcome {
        scheme: kind.label(),
        schedules_run: run,
        clean: true,
        trace_hash: combined,
        steps_total,
        injected_faults: injected,
        contained_faults: contained,
        degraded_quarantine,
        degraded_exhaust,
        violations: Vec::new(),
        failing_schedule: None,
    }
}

fn schedule_replay(kind: SchemeKind, idx: u64, o: &Options) {
    let seed = schedule_seed(o.seed, idx);
    let session = o.trace_out.as_ref().map(|_| trace::RecordingSession::start());
    let result = o.run(kind, seed);
    if let (Some(session), Some(path)) = (session, o.trace_out.as_ref()) {
        let t = session.finish(trace::TraceHeader {
            label: format!("stress:{}:{idx}", kind.label()),
            scheme: kind.label().to_owned(),
            tcf_mode: 1,
            check_jni: false,
            fault_policy: if o.containment { 1 } else { 0 },
            seed,
            plan: Some(o.cfg.fault_plan),
        });
        match t.save(path) {
            Ok(()) => println!("event trace: {} event(s) -> {path}", t.events.len()),
            Err(e) => eprintln!("--trace-out {path}: {e}"),
        }
    }
    println!(
        "[{}] schedule {idx} seed {seed:#x}: {} events, {} steps, abort={:?}",
        kind.label(),
        result.report.trace.len(),
        result.report.steps,
        result.report.abort,
    );
    for ev in &result.report.trace {
        println!("  {ev}");
    }
    for v in &result.violations {
        println!("  violation: {v}");
    }
    println!(
        "  fresh={} freed={} injected={} trace_hash={:#018x}",
        result.fresh_acquires,
        result.freed,
        result.injected,
        trace_hash(&result.report.trace)
    );
}

struct SelfCheckOutcome {
    scheme: &'static str,
    caught: bool,
    schedules_to_catch: Option<u64>,
    first_violation: Option<String>,
}

/// Runs a broken scheme until the harness flags it; the harness fails
/// its own audit if a seeded bug survives the whole budget.
fn self_check(kind: SchemeKind, o: &Options) -> SelfCheckOutcome {
    // No fault injection here: the self-check isolates pure concurrency
    // detection.
    let cfg = StressConfig {
        fault_plan: FaultPlan::default(),
        ..o.cfg
    };
    for idx in 0..o.schedules {
        let seed = schedule_seed(o.seed, idx);
        let result = run_schedule(kind, seed, &cfg);
        if !result.violations.is_empty() {
            return SelfCheckOutcome {
                scheme: kind.label(),
                caught: true,
                schedules_to_catch: Some(idx + 1),
                first_violation: result.violations.first().cloned(),
            };
        }
    }
    SelfCheckOutcome {
        scheme: kind.label(),
        caught: false,
        schedules_to_catch: None,
        first_violation: None,
    }
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("stress: {e}");
            return ExitCode::from(2);
        }
    };
    // Keep the run single-variable: telemetry events would add cross-test
    // interference without changing what the oracle can see.
    telemetry::set_enabled(false);

    let schemes: Vec<SchemeKind> = match o.scheme {
        Some(SchemeKind::Guarded) if o.containment => {
            eprintln!(
                "stress: --containment runs MTE4JNI with a guarded-copy \
                 fallback; --scheme guarded has nothing to contain"
            );
            return ExitCode::from(2);
        }
        Some(k) => vec![k],
        // Containment is an MTE4JNI-with-fallback workload: guarded copy
        // is the degradation target, not a scheme under test.
        None if o.containment => vec![
            SchemeKind::LockFree,
            SchemeKind::TwoTier,
            SchemeKind::Global,
        ],
        None => SchemeKind::REAL.to_vec(),
    };

    if let Some(idx) = o.schedule_replay {
        if o.trace_out.is_some() && schemes.len() != 1 {
            eprintln!("--trace-out needs a single --scheme (events from multiple schemes would interleave in one file)");
            return ExitCode::FAILURE;
        }
        for &kind in &schemes {
            schedule_replay(kind, idx, &o);
        }
        return ExitCode::SUCCESS;
    }
    if o.trace_out.is_some() {
        eprintln!("--trace-out requires --schedule-replay");
        return ExitCode::FAILURE;
    }

    let mut ok = true;
    let mut outcomes = Vec::new();
    for &kind in &schemes {
        let out = sweep(kind, &o);
        println!(
            "[{}] {} schedules, {} steps, {} injected faults, {} — trace hash {:#018x}",
            out.scheme,
            out.schedules_run,
            out.steps_total,
            out.injected_faults,
            if out.clean { "clean" } else { "VIOLATION" },
            out.trace_hash,
        );
        if o.containment || o.serving {
            println!(
                "[{}] {}: {} contained faults, {} quarantine degradations, \
                 {} tag-exhaustion degradations",
                out.scheme,
                o.workload(),
                out.contained_faults,
                out.degraded_quarantine,
                out.degraded_exhaust,
            );
        }
        ok &= out.clean;
        outcomes.push(out);
    }

    let mut self_checks = Vec::new();
    if o.self_check {
        for kind in [
            SchemeKind::BrokenLockFree,
            SchemeKind::BrokenTwoTier,
            SchemeKind::BrokenGlobal,
        ] {
            let out = self_check(kind, &o);
            match (out.caught, out.schedules_to_catch) {
                (true, Some(n)) => println!(
                    "[self-check] {} caught in {n} schedule(s): {}",
                    out.scheme,
                    out.first_violation.as_deref().unwrap_or("?"),
                ),
                _ => {
                    eprintln!(
                        "[self-check] FAILED: {} survived {} schedules — \
                         the harness is not detecting seeded bugs",
                        out.scheme, o.schedules
                    );
                    ok = false;
                }
            }
            self_checks.push(out);
        }
    }

    if let Some(dir) = &o.json_dir {
        let report = json_report(&o, &outcomes, &self_checks, ok);
        let path = std::path::Path::new(dir).join("STRESS.json");
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, report.to_pretty_string()))
        {
            eprintln!("stress: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn json_report(
    o: &Options,
    outcomes: &[SchemeOutcome],
    self_checks: &[SelfCheckOutcome],
    ok: bool,
) -> JsonValue {
    let mut root = JsonValue::object();
    root.insert("schema_version", 1u64);
    root.insert("tool", "stress");

    let mut params = JsonValue::object();
    params.insert("workload", o.workload());
    params.insert("seed", o.seed);
    params.insert("schedules", o.schedules);
    params.insert("threads", o.cfg.threads as u64);
    params.insert("objects", o.cfg.objects as u64);
    params.insert("rounds", o.cfg.rounds as u64);
    params.insert("max_steps", o.cfg.max_steps);
    let mut plan = JsonValue::object();
    plan.insert("irg_ppm", u64::from(o.cfg.fault_plan.irg_exhaust_ppm));
    plan.insert("ldg_ppm", u64::from(o.cfg.fault_plan.ldg_fail_ppm));
    plan.insert("stg_ppm", u64::from(o.cfg.fault_plan.stg_fail_ppm));
    plan.insert("alloc_ppm", u64::from(o.cfg.fault_plan.alloc_fail_ppm));
    plan.insert("spurious_ppm", u64::from(o.cfg.fault_plan.spurious_check_ppm));
    params.insert("fault_plan", plan);
    root.insert("params", params);

    let schemes: Vec<JsonValue> = outcomes
        .iter()
        .map(|out| {
            let mut s = JsonValue::object();
            s.insert("scheme", out.scheme);
            s.insert("schedules_run", out.schedules_run);
            s.insert("clean", out.clean);
            s.insert("trace_hash", format!("{:#018x}", out.trace_hash));
            s.insert("steps_total", out.steps_total);
            s.insert("injected_faults", out.injected_faults);
            if o.containment || o.serving {
                s.insert("contained_faults", out.contained_faults);
                s.insert("degraded_quarantine", out.degraded_quarantine);
                s.insert("degraded_tag_exhaustion", out.degraded_exhaust);
            }
            s.insert(
                "violations",
                JsonValue::Array(
                    out.violations
                        .iter()
                        .map(|v| JsonValue::Str(v.clone()))
                        .collect(),
                ),
            );
            if let Some(idx) = out.failing_schedule {
                s.insert("failing_schedule", idx);
            }
            s
        })
        .collect();
    root.insert("schemes", JsonValue::Array(schemes));

    if !self_checks.is_empty() {
        let checks: Vec<JsonValue> = self_checks
            .iter()
            .map(|c| {
                let mut s = JsonValue::object();
                s.insert("scheme", c.scheme);
                s.insert("caught", c.caught);
                if let Some(n) = c.schedules_to_catch {
                    s.insert("schedules_to_catch", n);
                }
                if let Some(v) = &c.first_violation {
                    s.insert("first_violation", v.as_str());
                }
                s
            })
            .collect();
        root.insert("self_check", JsonValue::Array(checks));
    }
    root.insert("ok", ok);
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> impl IntoIterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_owned)
    }

    #[test]
    fn schedule_replay_still_parses() {
        let o = parse_args_from(args("--seed 0xBEEF --lifecycle --schedule-replay 7")).unwrap();
        assert_eq!(o.schedule_replay, Some(7));
        assert_eq!(o.seed, 0xBEEF);
        assert!(o.lifecycle);
    }

    #[test]
    fn removed_replay_alias_errors_with_a_pointer_to_the_new_name() {
        for cmdline in ["--replay 7", "--replay", "--seed 0xBEEF --replay 7"] {
            let err = match parse_args_from(args(cmdline)) {
                Err(e) => e,
                Ok(_) => panic!("{cmdline}: removed alias was accepted"),
            };
            assert!(err.contains("--replay was removed"), "{cmdline}: {err}");
            assert!(err.contains("--schedule-replay"), "{cmdline}: {err}");
        }
    }

    #[test]
    fn serving_flag_selects_the_serving_workload() {
        let o = parse_args_from(args("--serving --schedules 5")).unwrap();
        assert!(o.serving);
        assert_eq!(o.workload(), "serving");
        assert_eq!(o.schedules, 5);
    }
}
