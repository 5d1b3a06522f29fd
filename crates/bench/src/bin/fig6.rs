//! Regenerates **Figure 6**: execution time of 64 threads concurrently
//! reading a 1024-int array 10000 times, for the same-array and
//! different-array cases, normalized to no protection.
//!
//! Paper headlines (§5.3.2):
//! * same array:      two-tier 1.21×, global lock 1.39×, guarded copy 32.9×
//! * different array: two-tier 1.21×, global lock 2.20×, guarded copy 34.0×
//!
//! Defaults are scaled down (64 threads, 2000 reads) for a quick run;
//! pass `--paper` for the paper's full 10000 reads. `--sweep-tables`
//! additionally runs the hash-table-count ablation (k ∈ 1..64).
//!
//! The headline MTE4JNI rows run the library-default lock-free table;
//! the `two-tier` rows keep the paper's §4.3 hash tables as the
//! paper-faithful ablation.
//!
//! Each sharing mode is one table row: every scheme's VM, arrays and
//! worker threads are set up outside the clock, and the schemes are
//! timed round by round. A row reports its median time and the median
//! of its per-round ratios to no protection.

use bench::{json_output, ns, print_environment, read_row, spread, Args, BenchReport, Rounds, SharingMode};
use jni_rt::Vm;
use std::time::Duration;
use telemetry::json::JsonValue;
use workloads::Scheme;

/// Timed rounds per table row (after one warm-up).
const ROUNDS: u32 = 5;

fn main() {
    let args = Args::parse();
    let threads: usize = args.value("--threads", 64);
    let reads: u32 = if args.flag("--paper") { 10_000 } else { args.value("--reads", 2000) };
    let array_len: usize = args.value("--array-len", 1024);
    let json_path = json_output(&args);
    let mut report = BenchReport::new("fig6");
    report
        .param("threads", threads)
        .param("reads", reads)
        .param("array_len", array_len);

    print_environment("Figure 6 — multi-thread JNI read contention");
    println!("threads = {threads}, reads/thread = {reads}, array = {array_len} ints");
    if std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) < 2 {
        println!();
        println!("WARNING: this host exposes a single CPU to the process. The paper's");
        println!("two-tier-vs-global-lock gap comes from threads contending in parallel;");
        println!("on one core all schemes serialize and the gap collapses. The");
        println!("guarded-copy-vs-MTE gap (copy work vs tag work) is still meaningful.");
    }
    println!();

    // Times one table row, whose first row is the baseline, round by
    // round; prints and reports each row's median time, its range and
    // its median per-round ratio to the baseline.
    let rounds = Rounds::new(ROUNDS);
    let table = |report: &mut BenchReport, sharing: SharingMode, label: &str, rows: Vec<(String, Vm)>| {
        let series = rounds.run(&rows, |(_, vm)| read_row(vm, sharing, threads, reads, array_len));
        report.merge(rows.iter().map(|(_, vm)| vm.snapshot()));
        println!("{:>26}  {:>10}  {:>8}  {:>21}", "scheme", "time", "ratio", "range");
        for ((name, _), s) in rows.iter().zip(&series) {
            let ratio = s.median_ratio(&series[0]);
            let range = format!("{}-{}", format_duration(s.min()), format_duration(s.max()));
            println!("{name:>26}  {:>10}  {ratio:>7.2}x  {range:>21}", format_duration(s.median()));
            let mut fields = vec![
                ("sharing", JsonValue::from(label)),
                ("scheme", JsonValue::from(name.as_str())),
                ("time_ns", ns(s.median())),
                ("ratio", JsonValue::from(ratio)),
            ];
            fields.extend(spread(&series[0], &[(name, s)]));
            report.row(fields);
        }
    };

    let schemes = [
        (Scheme::NoProtection, "no_protection"),
        (Scheme::Mte4JniSync, "lock-free sync"),
        (Scheme::Mte4JniAsync, "lock-free async"),
        (Scheme::Mte4JniSyncTwoTier, "two-tier sync"),
        (Scheme::Mte4JniAsyncTwoTier, "two-tier async"),
        (Scheme::Mte4JniSyncGlobalLock, "global-lock sync"),
        (Scheme::Mte4JniAsyncGlobalLock, "global-lock async"),
        (Scheme::GuardedCopy, "guarded copy"),
    ];
    for (sharing, label, title, paper) in [
        (SharingMode::SameArray, "same_array", "Same Array", "1.21x / 1.39x / 32.9x"),
        (SharingMode::DifferentArrays, "different_arrays", "Different Array", "1.21x / 2.20x / 34.0x"),
    ] {
        println!("--- {title} (paper two-tier/global/guarded: {paper}) ---");
        let rows = schemes.map(|(scheme, name)| (name.to_owned(), scheme.build_vm()));
        table(&mut report, sharing, label, rows.into());
        println!();
    }

    if args.flag("--sweep-tables") {
        println!("--- Ablation: hash-table count k (two-tier sync, different arrays) ---");
        let rows = std::iter::once(("no_protection".to_owned(), Scheme::NoProtection.build_vm()))
            .chain([1usize, 2, 4, 8, 16, 32, 64].map(|k| {
                (format!("two_tier_k{k}"), Scheme::Mte4JniSyncTwoTier.build_vm_with_tables(k))
            }))
            .collect();
        table(&mut report, SharingMode::DifferentArrays, "table_sweep", rows);
    }

    if let Some(path) = json_path {
        bench::write_report(&report, &path);
    }
}

fn format_duration(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.2}s", d.as_secs_f64())
    } else {
        format!("{:.1}ms", d.as_secs_f64() * 1e3)
    }
}
