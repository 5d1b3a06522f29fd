//! Shared harness code for the figure-regeneration binaries.
//!
//! Each binary regenerates one table/figure of the paper (see
//! `DESIGN.md`'s experiment index):
//!
//! * `fig5` — single-thread JNI copy overhead across array lengths,
//! * `fig6` — 64-thread contention, same-array vs different-array,
//! * `fig7` / `fig8` — GeekBench-style sub-item ratios, single/multi core,
//! * `effectiveness` — the §5.2 out-of-bounds detection comparison with
//!   Figure 4's three report styles.
//!
//! Every timed figure runs its table rows through [`Rounds`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use art_heap::ArrayRef;
use jni_rt::{JniEnv, NativeKind, ReleaseMode, Vm};
use telemetry::json::JsonValue;
use workloads::{all_workloads, thread_seed, Scheme, WorkloadSpec};

mod rounds;
pub use rounds::{crew, timed, Rounds, Series, Start};

/// Machine-readable result sink for the harness binaries' `--json`
/// option: a named report of parameters, table rows, and summary
/// figures, serialized with the merged [`telemetry::Snapshot`] of the
/// VMs it measured under one [`telemetry::SCHEMA_VERSION`]ed document.
///
/// The printed table and the JSON rows are built from the same values,
/// so the two outputs can never drift apart.
pub struct BenchReport {
    name: String,
    params: JsonValue,
    rows: Vec<JsonValue>,
    summary: JsonValue,
    telemetry: telemetry::Snapshot,
}

impl BenchReport {
    /// Starts a report for the bench called `name` (e.g. `"fig5"`).
    pub fn new(name: &str) -> BenchReport {
        BenchReport {
            name: name.to_owned(),
            params: JsonValue::object(),
            rows: Vec::new(),
            summary: JsonValue::object(),
            telemetry: telemetry::Snapshot::default(),
        }
    }

    /// Records one run parameter (repeats, thread count, …).
    pub fn param(&mut self, key: &str, value: impl Into<JsonValue>) -> &mut Self {
        self.params.insert(key, value);
        self
    }

    /// Appends one table row, built from `(key, value)` pairs.
    pub fn row(&mut self, pairs: Vec<(&str, JsonValue)>) -> &mut Self {
        let mut o = JsonValue::object();
        for (k, v) in pairs {
            o.insert(k, v);
        }
        self.rows.push(o);
        self
    }

    /// Records one summary figure (averages, reduction factors, …).
    pub fn summary(&mut self, key: &str, value: impl Into<JsonValue>) -> &mut Self {
        self.summary.insert(key, value);
        self
    }

    /// Merges the snapshots ([`Vm::snapshot`], `Tenant::snapshot`) of
    /// what the report measured, each taken after its measured section:
    /// the report's counters and histograms cover exactly those owners.
    pub fn merge(&mut self, snapshots: impl IntoIterator<Item = telemetry::Snapshot>) {
        snapshots.into_iter().for_each(|s| self.telemetry.merge(s));
    }

    /// Assembles the schema-versioned document.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.insert("schema_version", telemetry::SCHEMA_VERSION)
            .insert("bench", self.name.as_str())
            .insert("params", self.params.clone())
            .insert("rows", JsonValue::Array(self.rows.clone()))
            .insert("summary", self.summary.clone())
            .insert("telemetry", self.telemetry.to_json());
        o
    }

    /// Writes the document to `path`; a directory path resolves to
    /// `<dir>/BENCH_<name>.json`. Returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-write error.
    pub fn write(&self, path: &Path) -> std::io::Result<PathBuf> {
        let target = if path.is_dir() {
            path.join(format!("BENCH_{}.json", self.name))
        } else {
            path.to_owned()
        };
        std::fs::write(&target, self.to_json().to_pretty_string())?;
        Ok(target)
    }
}

/// Handles the shared `--json <path>` option: when it is present, turns
/// telemetry recording on (so the report captures latency histograms)
/// and returns the output path. Benches call this before their measured
/// section.
pub fn json_output(args: &Args) -> Option<PathBuf> {
    let path: String = args.value("--json", String::new());
    if path.is_empty() {
        return None;
    }
    let path = PathBuf::from(path);
    // Fail fast on an unwritable target: at real scales the bench runs
    // for minutes before the report would be written.
    let dir = if path.is_dir() {
        path.as_path()
    } else {
        match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        }
    };
    if !dir.exists() {
        eprintln!("error: --json target directory {} does not exist", dir.display());
        std::process::exit(2);
    }
    telemetry::set_enabled(true);
    Some(path)
}

/// Writes `report` to `path` and prints where it went; exits with an
/// error message on an I/O failure.
pub fn write_report(report: &BenchReport, path: &Path) {
    match report.write(path) {
        Ok(target) => {
            println!();
            println!("JSON report written to {}", target.display());
        }
        Err(e) => {
            eprintln!("error: writing the --json report to {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// The paper's Figure 5 native method: obtain raw pointers to two int
/// arrays via `GetPrimitiveArrayCritical`, copy one into the other
/// element-wise, release both.
pub fn copy_kernel(env: &JniEnv<'_>, src: &ArrayRef, dst: &ArrayRef) {
    let len = src.len() as isize;
    env.call_native("array_copy", NativeKind::Normal, |env| {
        let s = env.get_primitive_array_critical(src)?;
        let d = env.get_primitive_array_critical(dst)?;
        let mem = env.native_mem();
        for i in 0..len {
            d.write_i32(&mem, i, s.read_i32(&mem, i)?)?;
        }
        env.release_primitive_array_critical(dst, d, ReleaseMode::CopyBack)?;
        env.release_primitive_array_critical(src, s, ReleaseMode::Abort)?;
        Ok(())
    })
    .expect("in-bounds copy never faults");
}

/// One Figure 5 row on `vm`: allocates a `len`-int source and
/// destination, then times `iters` copies per pass.
pub fn copy_row(vm: &Vm, len: usize, iters: u32) -> impl FnMut() -> Duration + '_ {
    let thread = vm.attach_thread("fig5");
    let env = vm.env(&thread);
    let data: Vec<i32> = (0..len as i32).collect();
    let src = env.new_int_array_from(&data).expect("alloc src");
    let dst = env.new_int_array(len).expect("alloc dst");
    drop(env);
    move || {
        let env = vm.env(&thread);
        timed(|| {
            for _ in 0..iters {
                copy_kernel(&env, &src, &dst);
            }
        })
    }
}

/// The quarantine degradation path as a VM: MTE4JNI+Sync whose
/// `array_copy` method is quarantined, so every acquire of the copy
/// kernel routes through the guarded-copy fallback. Its [`copy_row`]
/// against a healthy MTE4JNI+Sync row is the cost of degrading one
/// method; its counters carry the fallback's under its own name.
pub fn degraded_vm() -> Vm {
    let vm = mte4jni::mte4jni_vm(mte_sim::TcfMode::Sync, mte4jni::TableConfig::default());
    vm.quarantine_method("array_copy");
    vm
}

/// The paper's Figure 6 native method: `reads` iterations of
/// acquire → sum the whole array → release, on this thread's array.
pub fn read_loop_kernel(env: &JniEnv<'_>, array: &ArrayRef, reads: u32) -> i64 {
    let len = array.len() as isize;
    env.call_native("array_read_loop", NativeKind::Normal, |env| {
        let mem = env.native_mem();
        let mut total = 0i64;
        for _ in 0..reads {
            let a = env.get_primitive_array_critical(array)?;
            for i in 0..len {
                total += i64::from(a.read_i32(&mem, i)?);
            }
            env.release_primitive_array_critical(array, a, ReleaseMode::Abort)?;
        }
        Ok(total)
    })
    .expect("in-bounds reads never fault")
}

/// Shape of the Figure 6 experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharingMode {
    /// Every thread hammers the same array (object-lock contention).
    SameArray,
    /// Each thread owns a private array (table-lock contention only).
    DifferentArrays,
}

/// One Figure 6 row on `vm`: allocates the arrays, then times one
/// [`crew`] of `threads` workers per pass, each running
/// [`read_loop_kernel`] on its array.
pub fn read_row(
    vm: &Vm,
    sharing: SharingMode,
    threads: usize,
    reads: u32,
    array_len: usize,
) -> impl FnMut() -> Duration + '_ {
    let setup = vm.attach_thread("fig6-setup");
    let env = vm.env(&setup);
    let data: Vec<i32> = (0..array_len as i32).collect();
    let arrays: Vec<ArrayRef> = match sharing {
        SharingMode::SameArray => {
            let one = env.new_int_array_from(&data).expect("alloc");
            vec![one; threads]
        }
        SharingMode::DifferentArrays => (0..threads)
            .map(|_| env.new_int_array_from(&data).expect("alloc"))
            .collect(),
    };
    move || {
        crew(threads, |i, start| {
            let thread = vm.attach_thread(format!("fig6-{i}"));
            let env = vm.env(&thread);
            start.wait();
            read_loop_kernel(&env, &arrays[i], reads);
        })
    }
}

/// One Figure 7 or 8 pass: its time and the workload's checksum.
pub type WorkloadPass<'v> = Box<dyn FnMut() -> (Duration, u64) + 'v>;

/// One Figure 7 row on `vm`: attaches a thread, then times one run of
/// `spec` on `seed` per pass. The heap is swept after each pass, outside
/// the clock, so garbage from earlier passes does not skew allocation.
pub fn single_core_row<'v>(vm: &'v Vm, spec: &'static WorkloadSpec, seed: u64, scale: u32) -> WorkloadPass<'v> {
    let thread = vm.attach_thread(format!("bench-{}", spec.name));
    Box::new(move || {
        let env = vm.env(&thread);
        let mut checksum = 0;
        let time = timed(|| checksum = (spec.run)(&env, seed, scale).expect("workload run"));
        vm.heap().sweep();
        (time, checksum)
    })
}

/// One Figure 8 row on `vm`: times one [`crew`] of `threads` workers per
/// pass, worker `i` running `spec` on [`thread_seed`]`(seed, i)`; the
/// pass's checksum is the XOR of the workers'. The heap is swept after
/// each pass, outside the clock.
pub fn multi_core_row<'v>(
    vm: &'v Vm,
    spec: &'static WorkloadSpec,
    threads: usize,
    seed: u64,
    scale: u32,
) -> WorkloadPass<'v> {
    Box::new(move || {
        let checksum = AtomicU64::new(0);
        let time = crew(threads, |i, start| {
            let thread = vm.attach_thread(format!("mc-{}-{i}", spec.name));
            let env = vm.env(&thread);
            start.wait();
            let sum = (spec.run)(&env, thread_seed(seed, i), scale).expect("workload run");
            checksum.fetch_xor(sum, Ordering::Relaxed);
        });
        vm.heap().sweep();
        (time, checksum.into_inner())
    })
}

/// Runs Figure 7 or 8. Each sub-item is one table row of no protection
/// and the three schemes, on fresh VMs, whose passes `row` builds.
/// Asserts that every pass of every scheme computes the baseline's
/// checksum, and prints and reports each scheme's score: the baseline's
/// fastest pass over the scheme's, in percent (higher is better).
pub fn workload_figure(
    report: &mut BenchReport,
    rounds: Rounds,
    paper: &str,
    row: impl for<'v> Fn(&'v Vm, &'static WorkloadSpec) -> WorkloadPass<'v>,
) {
    let schemes = [Scheme::GuardedCopy, Scheme::Mte4JniSync, Scheme::Mte4JniAsync];
    println!(
        "{:<24} {:>14} {:>14} {:>14}",
        "workload",
        schemes[0].label(),
        schemes[1].label(),
        schemes[2].label()
    );
    let mut sums = [0.0f64; 3];
    for spec in all_workloads() {
        let vms: Vec<Vm> = std::iter::once(Scheme::NoProtection)
            .chain(schemes)
            .map(Scheme::build_vm)
            .collect();
        let series = rounds.run(&vms, |vm| row(vm, spec));
        report.merge(vms.iter().map(Vm::snapshot));
        let checksums = series[0].map(|&(_, sum)| sum);
        let times: Vec<Series<Duration>> = series.iter().map(|s| s.map(|&(t, _)| t)).collect();
        let mut pct = [0.0f64; 3];
        for (i, scheme) in schemes.iter().enumerate() {
            assert_eq!(
                series[i + 1].map(|&(_, sum)| sum).samples(),
                checksums.samples(),
                "{} must compute identical results under {}",
                spec.name,
                scheme.label()
            );
            pct[i] = 100.0 / ratio(times[i + 1].min(), times[0].min());
            sums[i] += pct[i];
        }
        let marker = if spec.intensive { " *" } else { "" };
        println!(
            "{:<24} {:>13.1}% {:>13.1}% {:>13.1}%{marker}",
            spec.name, pct[0], pct[1], pct[2]
        );
        let mut fields = vec![
            ("workload", JsonValue::from(spec.name)),
            ("intensive", JsonValue::from(spec.intensive)),
            ("guarded_copy_pct", JsonValue::from(pct[0])),
            ("mte_sync_pct", JsonValue::from(pct[1])),
            ("mte_async_pct", JsonValue::from(pct[2])),
        ];
        let labels = ["no_protection", "guarded_copy", "mte_sync", "mte_async"];
        let columns: Vec<_> = labels.into_iter().zip(&times).collect();
        fields.extend(spread(&times[0], &columns));
        report.row(fields);
    }
    let avg = sums.map(|s| s / all_workloads().len() as f64);
    println!();
    println!(
        "{:<24} {:>13.1}% {:>13.1}% {:>13.1}%   (paper: {paper})",
        "average", avg[0], avg[1], avg[2]
    );
    println!("(* = intensive in-place workloads, the paper's MTE+Sync exception group)");
    report
        .summary("avg_guarded_copy_pct", avg[0])
        .summary("avg_mte_sync_pct", avg[1])
        .summary("avg_mte_async_pct", avg[2]);
}

/// A table row's `median`, `min` and `max` fields, in nanoseconds per
/// timed pass, and its `median_ratio` field against `baseline`, each an
/// object keyed by the labels of the row's `columns` (one entry where a
/// row reports one series), so every bench writes them in one shape.
pub fn spread(baseline: &Series<Duration>, columns: &[(&str, &Series<Duration>)]) -> Vec<(&'static str, JsonValue)> {
    let field = |stat: &dyn Fn(&Series<Duration>) -> JsonValue| {
        let mut o = JsonValue::object();
        for (label, series) in columns {
            o.insert(label, stat(series));
        }
        o
    };
    vec![
        ("median", field(&|s| ns(s.median()))),
        ("min", field(&|s| ns(s.min()))),
        ("max", field(&|s| ns(s.max()))),
        ("median_ratio", field(&|s| JsonValue::from(s.median_ratio(baseline)))),
    ]
}

/// A duration as whole nanoseconds, the unit of the reports' times.
pub fn ns(d: Duration) -> JsonValue {
    JsonValue::from(d.as_nanos() as u64)
}

/// Relative slowdown of `value` against `baseline`.
pub fn ratio(value: Duration, baseline: Duration) -> f64 {
    value.as_secs_f64() / baseline.as_secs_f64().max(f64::EPSILON)
}

/// Renders grouped horizontal bars on a log10 scale — the harnesses'
/// stand-in for the paper's log-scale figures.
///
/// `rows` pairs a label with one value per series; values below 1.0 are
/// clamped to 1.0 (a zero-length bar).
pub fn log_bar_chart(series: &[&str], rows: &[(String, Vec<f64>)]) -> String {
    const WIDTH: f64 = 48.0;
    const FILLS: [char; 4] = ['█', '▒', '░', '·'];
    let max = rows
        .iter()
        .flat_map(|(_, vs)| vs.iter().copied())
        .fold(1.0f64, f64::max);
    let scale = WIDTH / max.log10().max(1e-9);
    let mut out = String::new();
    for (i, name) in series.iter().enumerate() {
        out.push_str(&format!(
            "  {} {}\n",
            FILLS.get(i).copied().unwrap_or('#'),
            name
        ));
    }
    for (label, values) in rows {
        for (i, v) in values.iter().enumerate() {
            let bar_len = (v.max(1.0).log10() * scale).round() as usize;
            let fill = FILLS.get(i).copied().unwrap_or('#');
            let bar: String = std::iter::repeat_n(fill, bar_len.max(1)).collect();
            let head = if i == 0 { label.as_str() } else { "" };
            out.push_str(&format!("{head:>10} |{bar} {v:.2}x\n"));
        }
    }
    out.push_str(&format!("{:>10} +{}\n", "", "-".repeat(WIDTH as usize)));
    out.push_str(&format!("{:>12}log scale, 1x .. {max:.0}x\n", ""));
    out
}

/// Prints the Table 2 analogue: what this reproduction runs on.
pub fn print_environment(experiment: &str) {
    println!("=== MTE4JNI reproduction: {experiment} ===");
    println!("Substrate        : mte-sim software MTE + art-heap simulated runtime");
    println!("Paper environment: OPPO Find N2 Flip, Dimensity 9000+, ColorOS 14 (Android 14)");
    println!("Hash tables (k)  : 16 (paper section 5.1)");
    println!(
        "Host parallelism : {} cores",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    println!();
}

/// Simple `--key value` / `--flag` argument extraction for the harness
/// binaries.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn parse() -> Args {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Whether `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    /// The value following `--name`, parsed, or `default`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message if the value cannot be parsed.
    pub fn value<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        match self.raw.iter().position(|a| a == name) {
            Some(i) => match self.raw.get(i + 1) {
                Some(v) => v
                    .parse()
                    .unwrap_or_else(|e| panic!("invalid value for {name}: {e:?}")),
                None => {
                    eprintln!("error: {name} requires a value");
                    std::process::exit(2);
                }
            },
            None => default,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_kernel_copies() {
        let vm = Scheme::NoProtection.build_vm();
        let t = vm.attach_thread("t");
        let env = vm.env(&t);
        let src = env.new_int_array_from(&[9, 8, 7]).unwrap();
        let dst = env.new_int_array(3).unwrap();
        copy_kernel(&env, &src, &dst);
        assert_eq!(vm.heap().int_array_as_vec(&t, &dst).unwrap(), vec![9, 8, 7]);
    }

    #[test]
    fn read_loop_sums() {
        let vm = Scheme::Mte4JniSync.build_vm();
        let t = vm.attach_thread("t");
        let env = vm.env(&t);
        let a = env.new_int_array_from(&[1, 2, 3]).unwrap();
        assert_eq!(read_loop_kernel(&env, &a, 5), 5 * 6);
    }

    #[test]
    fn multithread_read_runs_all_schemes_and_modes() {
        for scheme in [Scheme::NoProtection, Scheme::Mte4JniSync, Scheme::Mte4JniSyncGlobalLock] {
            for sharing in [SharingMode::SameArray, SharingMode::DifferentArrays] {
                let vm = scheme.build_vm();
                let d = Rounds::new(1).run([&vm], |vm| read_row(vm, sharing, 4, 20, 64));
                assert!(d[0].min() > Duration::ZERO, "{scheme} {sharing:?}");
                let pins: u64 = vm
                    .snapshot()
                    .counters
                    .iter()
                    .filter(|(key, _)| key.ends_with(".heap.pins_total"))
                    .map(|(_, n)| n)
                    .sum();
                assert_eq!(pins, 4 * 20 * 2, "four workers, one warm-up and one round");
            }
        }
    }

    #[test]
    fn workload_rows_compute_the_runner_checksums() {
        let vm = Scheme::Mte4JniAsync.build_vm();
        let spec = workloads::find_workload("Photo Filter").unwrap();
        let single = Rounds::new(2).run([&vm], |vm| single_core_row(vm, spec, 7, 1));
        let expected = workloads::run_single_core(&vm, spec, 7, 1).unwrap();
        assert!(single[0].samples().iter().all(|&(_, sum)| sum == expected));
        let multi = Rounds::new(2).run([&vm], |vm| multi_core_row(vm, spec, 4, 7, 1));
        let xor = (0..4)
            .map(|i| workloads::run_single_core(&vm, spec, thread_seed(7, i), 1).unwrap())
            .fold(0, |a, b| a ^ b);
        assert!(
            multi[0].samples().iter().all(|&(_, sum)| sum == xor),
            "worker i runs on thread_seed(seed, i) and the pass XORs their checksums"
        );
    }

    #[test]
    fn report_sums_the_counters_of_every_vm_it_measured() {
        // Each measured pass (one warm-up plus `repeats`) runs `iters`
        // copies, and each copy acquires and releases two arrays.
        let acquires = |iters: u64, repeats: u64| 2 * iters * (1 + repeats);
        let mut report = BenchReport::new("sums");
        for (vm, iters, repeats) in [
            (Scheme::Mte4JniSync.build_vm(), 3, 1),
            (Scheme::Mte4JniSync.build_vm(), 5, 2),
            (degraded_vm(), 7, 1),
        ] {
            Rounds::new(repeats).run([&vm], |vm| copy_row(vm, 4, iters));
            report.merge([vm.snapshot()]);
        }
        let json = report.to_json();
        let counter = |key: &str| {
            json.get("telemetry")
                .and_then(|t| t.get("counters"))
                .and_then(|c| c.get(key))
                .and_then(JsonValue::as_u64)
        };
        let healthy = acquires(3, 1) + acquires(5, 2);
        let degraded = acquires(7, 1);
        assert_eq!(counter("scheme.mte4jni.acquires"), Some(healthy), "both healthy VMs, summed");
        assert_eq!(counter("scheme.mte4jni.releases"), Some(healthy));
        // The quarantined VM's acquires all went to its fallback, whose
        // counters carry the fallback's own name.
        assert_eq!(counter("scheme.guarded-copy.acquires"), Some(degraded));
        assert_eq!(counter("scheme.guarded-copy.releases"), Some(degraded));
        assert_eq!(counter("scheme.mte4jni.containment.degraded_quarantine"), Some(degraded));
        // Every VM pins once per acquire, whichever scheme served it.
        assert_eq!(counter("scheme.mte4jni.heap.pins_total"), Some(healthy + degraded));
    }

    #[test]
    fn ratio_is_relative() {
        assert!((ratio(Duration::from_millis(30), Duration::from_millis(10)) - 3.0).abs() < 1e-9);
    }
}
