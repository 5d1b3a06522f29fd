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

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use art_heap::ArrayRef;
use jni_rt::{JniEnv, NativeKind, ReleaseMode, Vm};
use telemetry::json::JsonValue;
use workloads::Scheme;

/// Machine-readable result sink for the harness binaries' `--json`
/// option: a named report of parameters, table rows, and summary
/// figures, serialized alongside the full [`telemetry::Snapshot`] under
/// one [`telemetry::SCHEMA_VERSION`]ed document.
///
/// The printed table and the JSON rows are built from the same values,
/// so the two outputs can never drift apart.
pub struct BenchReport {
    name: String,
    params: JsonValue,
    rows: Vec<JsonValue>,
    summary: JsonValue,
}

impl BenchReport {
    /// Starts a report for the bench called `name` (e.g. `"fig5"`).
    pub fn new(name: &str) -> BenchReport {
        BenchReport {
            name: name.to_owned(),
            params: JsonValue::object(),
            rows: Vec::new(),
            summary: JsonValue::object(),
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

    /// Assembles the schema-versioned document, collecting the telemetry
    /// snapshot.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.insert("schema_version", telemetry::SCHEMA_VERSION)
            .insert("bench", self.name.as_str())
            .insert("params", self.params.clone())
            .insert("rows", JsonValue::Array(self.rows.clone()))
            .insert("summary", self.summary.clone())
            .insert("telemetry", telemetry::Snapshot::collect().to_json());
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
/// telemetry recording on (so the report captures histograms, event
/// counts, and counters) and returns the output path. Benches call this
/// before their measured section.
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

/// Publishes `vm`'s counters into the telemetry registry if recording is
/// on — helpers that build VMs internally call this before dropping them
/// so `--json` reports include per-scheme counters.
fn publish_if_recording(vm: &Vm) {
    if telemetry::enabled() {
        vm.publish_counters();
    }
}

/// Runs `f` once for warm-up, then `repeats` times, returning the
/// smallest observed duration (robust to scheduler noise).
pub fn measure(repeats: u32, mut f: impl FnMut()) -> Duration {
    f();
    let mut best = Duration::MAX;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed());
    }
    best
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

/// Times `iters` invocations of the Figure 5 copy for `len`-int arrays on
/// a fresh VM of the given scheme.
pub fn time_copy(scheme: Scheme, len: usize, iters: u32, repeats: u32) -> Duration {
    let vm = scheme.build_vm();
    let thread = vm.attach_thread("fig5");
    let env = vm.env(&thread);
    let data: Vec<i32> = (0..len as i32).collect();
    let src = env.new_int_array_from(&data).expect("alloc src");
    let dst = env.new_int_array(len).expect("alloc dst");
    let best = measure(repeats, || {
        for _ in 0..iters {
            copy_kernel(&env, &src, &dst);
        }
    });
    publish_if_recording(&vm);
    best
}

/// Times the copy kernel through the quarantine degradation path: an
/// MTE4JNI VM whose `array_copy` method has been quarantined, so every
/// acquire routes through the guarded-copy fallback. The ratio against
/// [`time_copy`]'s healthy MTE4JNI run is the throughput cost of
/// degrading a single method to guarded copy.
pub fn time_copy_degraded(len: usize, iters: u32, repeats: u32) -> Duration {
    let vm = mte4jni::mte4jni_vm(
        mte_sim::TcfMode::Sync,
        mte4jni::TableConfig::default(),
    );
    vm.quarantine_method("array_copy");
    let thread = vm.attach_thread("fig5-degraded");
    let env = vm.env(&thread);
    let data: Vec<i32> = (0..len as i32).collect();
    let src = env.new_int_array_from(&data).expect("alloc src");
    let dst = env.new_int_array(len).expect("alloc dst");
    let best = measure(repeats, || {
        for _ in 0..iters {
            copy_kernel(&env, &src, &dst);
        }
    });
    publish_if_recording(&vm);
    best
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

/// Runs the Figure 6 multi-thread read test and returns the wall-clock
/// duration for all threads to finish.
pub fn time_multithread_read(
    scheme: Scheme,
    sharing: SharingMode,
    threads: usize,
    reads: u32,
    array_len: usize,
) -> Duration {
    let vm = scheme.build_vm();
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
    let start = Instant::now();
    std::thread::scope(|s| {
        for (i, array) in arrays.iter().enumerate() {
            let vm = &vm;
            s.spawn(move || {
                let thread = vm.attach_thread(format!("fig6-{i}"));
                let env = vm.env(&thread);
                read_loop_kernel(&env, array, reads);
            });
        }
    });
    let elapsed = start.elapsed();
    publish_if_recording(&vm);
    elapsed
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
                let d = time_multithread_read(scheme, sharing, 4, 20, 64);
                assert!(d > Duration::ZERO, "{scheme} {sharing:?}");
            }
        }
    }

    #[test]
    fn measure_returns_min_of_repeats() {
        let d = measure(3, || std::thread::sleep(Duration::from_micros(200)));
        assert!(d >= Duration::from_micros(150));
    }

    #[test]
    fn ratio_is_relative() {
        assert!((ratio(Duration::from_millis(30), Duration::from_millis(10)) - 3.0).abs() < 1e-9);
    }
}
