//! Regenerates **Figure 7**: relative single-core performance of the
//! sixteen GeekBench-style sub-items under each protection scheme,
//! as a percentage of the no-protection score (higher is better).
//!
//! Paper averages (§5.4): guarded copy −5.90%, MTE+Sync −5.33%,
//! MTE+Async −1.13%; Clang, Text Processing and PDF Renderer are the
//! exceptions where MTE+Sync scores *below* guarded copy.

use bench::{json_output, print_environment, single_core_row, workload_figure, Args, BenchReport, Rounds};

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

    workload_figure(&mut report, Rounds::new(iters), "94.1% / 94.7% / 98.9%", |vm, spec| {
        single_core_row(vm, spec, seed, scale)
    });

    if let Some(path) = json_path {
        bench::write_report(&report, &path);
    }
}
