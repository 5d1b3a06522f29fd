//! Regenerates **Figure 7**: relative single-core performance of the
//! sixteen GeekBench-style sub-items under each protection scheme,
//! as a percentage of the no-protection score (higher is better).
//!
//! Paper averages (§5.4): guarded copy −5.90%, MTE+Sync −5.33%,
//! MTE+Async −1.13%; Clang, Text Processing and PDF Renderer are the
//! exceptions where MTE+Sync scores *below* guarded copy.

use bench::{json_output, print_environment, Args, BenchReport};
use telemetry::json::JsonValue;
use workloads::{all_workloads, run_single_core, Scheme};

fn main() {
    let args = Args::parse();
    let scale: u32 = args.value("--scale", 2);
    let iters: u32 = args.value("--iters", 3);
    let seed: u64 = args.value("--seed", 2025);
    let json_path = json_output(&args);
    let mut report = BenchReport::new("fig7");
    report.param("scale", scale).param("iters", iters).param("seed", seed);

    print_environment("Figure 7 — single-core sub-item performance ratios");
    println!("scale = {scale}, iterations per point = {iters}");
    println!();

    let schemes = [Scheme::GuardedCopy, Scheme::Mte4JniSync, Scheme::Mte4JniAsync];
    let vms: Vec<_> = schemes.iter().map(|s| s.build_vm()).collect();
    let base_vm = Scheme::NoProtection.build_vm();

    println!(
        "{:<24} {:>14} {:>14} {:>14}",
        "workload",
        schemes[0].label(),
        schemes[1].label(),
        schemes[2].label()
    );
    let mut sums = [0.0f64; 3];
    for spec in all_workloads() {
        let base = run_single_core(&base_vm, spec, seed, scale, iters).expect("baseline run");
        let mut row = [0.0f64; 3];
        for (i, vm) in vms.iter().enumerate() {
            let r = run_single_core(vm, spec, seed, scale, iters).expect("scheme run");
            assert_eq!(
                r.checksum, base.checksum,
                "{} must compute identical results under {}",
                spec.name,
                schemes[i].label()
            );
            // Score ratio = inverse time ratio, in percent.
            row[i] = 100.0 * base.duration.as_secs_f64() / r.duration.as_secs_f64();
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
        "{:<24} {:>13.1}% {:>13.1}% {:>13.1}%   (paper: 94.1% / 94.7% / 98.9%)",
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
