//! Regenerates **Figure 8**: relative multi-core performance of the
//! sixteen GeekBench-style sub-items under each protection scheme, as a
//! percentage of the no-protection score.
//!
//! Paper averages (§5.4): guarded copy −13.50%, MTE+Sync −5.12%,
//! MTE+Async −1.55%; MTE4JNI+Async beats guarded copy by ~14% overall in
//! the multi-core setting.

use bench::{json_output, print_environment, Args, BenchReport};
use telemetry::json::JsonValue;
use workloads::{all_workloads, run_multi_core, Scheme};

fn main() {
    let args = Args::parse();
    let scale: u32 = args.value("--scale", 2);
    let seed: u64 = args.value("--seed", 2025);
    let default_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let threads: usize = args.value("--threads", default_threads);
    let repeats: u32 = args.value("--repeats", 3);
    let json_path = json_output(&args);
    let mut report = BenchReport::new("fig8");
    report
        .param("scale", scale)
        .param("seed", seed)
        .param("threads", threads)
        .param("repeats", repeats);

    print_environment("Figure 8 — multi-core sub-item performance ratios");
    println!("scale = {scale}, threads = {threads}, repeats = {repeats}");
    println!();

    let schemes = [Scheme::GuardedCopy, Scheme::Mte4JniSync, Scheme::Mte4JniAsync];
    let vms: Vec<_> = schemes.iter().map(|s| s.build_vm()).collect();
    let base_vm = Scheme::NoProtection.build_vm();

    let best_of = |vm: &jni_rt::Vm, spec| {
        let mut best = std::time::Duration::MAX;
        let mut checksum = 0;
        for _ in 0..repeats {
            let r = run_multi_core(vm, spec, threads, seed, scale).expect("run");
            best = best.min(r.duration);
            checksum = r.checksum;
        }
        (best, checksum)
    };

    println!(
        "{:<24} {:>14} {:>14} {:>14}",
        "workload",
        schemes[0].label(),
        schemes[1].label(),
        schemes[2].label()
    );
    let mut sums = [0.0f64; 3];
    for spec in all_workloads() {
        let (base, base_sum) = best_of(&base_vm, spec);
        let mut row = [0.0f64; 3];
        for (i, vm) in vms.iter().enumerate() {
            let (t, sum) = best_of(vm, spec);
            assert_eq!(sum, base_sum, "{} checksum under {}", spec.name, schemes[i].label());
            row[i] = 100.0 * base.as_secs_f64() / t.as_secs_f64();
            sums[i] += row[i];
        }
        let marker = if spec.intensive { " *" } else { "" };
        println!(
            "{:<24} {:>13.1}% {:>13.1}% {:>13.1}%{marker}",
            spec.name, row[0], row[1], row[2]
        );
        report.row(vec![
            ("workload", JsonValue::from(spec.name)),
            ("intensive", JsonValue::from(spec.intensive)),
            ("guarded_copy_pct", JsonValue::from(row[0])),
            ("mte_sync_pct", JsonValue::from(row[1])),
            ("mte_async_pct", JsonValue::from(row[2])),
        ]);
    }
    let n = all_workloads().len() as f64;
    println!();
    println!(
        "{:<24} {:>13.1}% {:>13.1}% {:>13.1}%   (paper: 86.5% / 94.9% / 98.5%)",
        "average",
        sums[0] / n,
        sums[1] / n,
        sums[2] / n
    );
    println!("(* = intensive in-place workloads, the paper's MTE+Sync exception group)");

    report
        .summary("avg_guarded_copy_pct", sums[0] / n)
        .summary("avg_mte_sync_pct", sums[1] / n)
        .summary("avg_mte_async_pct", sums[2] / n);
    if let Some(path) = json_path {
        for vm in vms.iter().chain(std::iter::once(&base_vm)) {
            report.count_vm(vm);
        }
        bench::write_report(&report, &path);
    }
}
