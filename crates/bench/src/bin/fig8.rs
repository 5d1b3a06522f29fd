//! Regenerates **Figure 8**: relative multi-core performance of the
//! sixteen GeekBench-style sub-items under each protection scheme, as a
//! percentage of the no-protection score.
//!
//! Paper averages (§5.4): guarded copy −13.50%, MTE+Sync −5.12%,
//! MTE+Async −1.55%; MTE4JNI+Async beats guarded copy by ~14% overall in
//! the multi-core setting.

use bench::{json_output, multi_core_row, print_environment, workload_figure, Args, BenchReport, Rounds};

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

    workload_figure(&mut report, Rounds::new(repeats), "86.5% / 94.9% / 98.5%", |vm, spec| {
        multi_core_row(vm, spec, threads, seed, scale)
    });

    if let Some(path) = json_path {
        bench::write_report(&report, &path);
    }
}
