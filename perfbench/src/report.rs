//! Metric names, units and the result lines the benchmark prints.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::calib::{Calibration, Reference, Refs, Summary};
use crate::hist::median;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("setup_s", "s"),
    ("mem_mib", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does
/// not reach reports 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("jni.call_native_self_ns", "ns"),
    ("jni.acquire_ns", "ns"),
    ("jni.release_ns", "ns"),
    ("mte-sim.access_ns", "ns"),
    ("bench.traced_op_ns", "ns"),
    ("mte-sim.irg_per_op", "count"),
    ("mte-sim.ldg_per_op", "count"),
    ("mte-sim.stg_granules_per_op", "count"),
    ("mte4jni.acquires_per_op", "count"),
    ("mte4jni.tag_frees_per_op", "count"),
    ("mte4jni.stash_hit_ratio", "ratio"),
    ("mte4jni.cas_retries_per_op", "count"),
    ("heap.pins_per_op", "count"),
    ("server.micro_p50_us", "us"),
    ("server.micro_p99_us", "us"),
    ("server.kernel_p50_us", "us"),
    ("server.kernel_p99_us", "us"),
    ("server.replay_p50_us", "us"),
    ("heap.sweeps_per_kreq", "count"),
    ("heap.allocs_per_req", "count"),
    ("mte4jni.safepoint_purge_frees_per_kreq", "count"),
    ("mte4jni.stash_flush_frees_per_kreq", "count"),
    ("server.retries_per_kreq", "count"),
    ("server.shed_ratio", "ratio"),
    ("jni.contained_faults", "count"),
    ("host.ref_us", "us"),
    ("raw.ops_per_s", "1/s"),
    ("raw.op_p50_us", "us"),
    ("raw.op_p99_us", "us"),
    ("raw.setup_s", "s"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// Times a set-up between two reference slices.
pub struct SetupTimer {
    before: Refs,
    t0: Instant,
}

impl SetupTimer {
    pub fn start(reference: &mut Reference) -> SetupTimer {
        SetupTimer {
            before: reference.measure(),
            t0: Instant::now(),
        }
    }

    /// `(raw seconds, calibrated seconds)`.
    pub fn stop(self, reference: &mut Reference, calibration: Calibration) -> (f64, f64) {
        let raw = self.t0.elapsed().as_secs_f64();
        let after = reference.measure();
        (raw, raw * calibration.factor(&[self.before, after]))
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Violated end-of-run checks; any makes the run incorrect.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one checked op.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// The end-to-end metrics of a measured phase plus its set-ups, and
    /// the diagnostics beside them.
    pub fn end_to_end(&mut self, s: &Summary, setups: &[(f64, f64)]) {
        let raw: Vec<f64> = setups.iter().map(|s| s.0).collect();
        let cal: Vec<f64> = setups.iter().map(|s| s.1).collect();
        self.set("ops_per_s", s.ops_per_s);
        self.set("op_p50_us", s.p50_us);
        self.set("op_p99_us", s.p99_us);
        self.set("setup_s", median(&cal));
        self.set("mem_mib", peak_rss_mib());
        self.set("raw.ops_per_s", s.raw_ops_per_s);
        self.set("raw.op_p50_us", s.raw_p50_us);
        self.set("raw.op_p99_us", s.raw_p99_us);
        self.set("raw.setup_s", median(&raw));
        self.set("host.ref_us", s.ref_us);
        self.set("op_samples", s.ops as f64);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Prints a diagnostics line, then the result line, which is always
    /// last on stdout.
    pub fn print(&self, trace: bool) {
        for p in &self.problems {
            eprintln!("perfbench: check failed: {p}");
        }
        let diag: Vec<String> = [
            "op_samples",
            "raw.ops_per_s",
            "raw.op_p50_us",
            "raw.op_p99_us",
            "raw.setup_s",
            "host.ref_us",
        ]
        .into_iter()
        .filter_map(|k| Some(format!("\"{k}\": {}", number(self.value(k)?))))
        .collect();
        println!("{{\"diagnostics\": {{{}}}}}", diag.join(", "));
        let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.value(name).unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(v)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
            metrics.join(", ")
        );
    }
}

/// A JSON number; non-finite values (a bug upstream) print as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units the binary prints are the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (section, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("list end")];
            let declared = body.matches("\"name\"").count();
            assert_eq!(declared, list.len(), "{section} length");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
        }
    }

    #[test]
    fn failed_ops_and_problems_make_the_run_incorrect() {
        let mut r = Report::default();
        assert!(!r.correct(), "a run that attempted nothing is not correct");
        r.op(true);
        assert!(r.correct());
        r.op(false);
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(!r.correct());
        let mut r = Report::default();
        r.op(true);
        r.check(false, || "quiescence".to_owned());
        assert!(!r.correct());
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mib() > 0.0);
    }
}
