//! Regenerates **Figure 5**: single-thread execution time of the
//! array-copy native method across array lengths 2^1..2^12, under every
//! scheme, normalized to the no-protection scheme.
//!
//! Also prints the §5.3.1 headline averages (paper: guarded copy 26.58×,
//! MTE4JNI+Sync 2.36×, MTE4JNI+Async 2.24×) and the abstract's
//! single-thread overhead-reduction factor (paper: ~11×), and a
//! report-only row with the cost of telemetry recording itself: the
//! 2-int no-protection copy timed with recording off and on.

use bench::{
    json_output, log_bar_chart, print_environment, ratio, time_copy, time_copy_degraded, Args,
    BenchReport,
};
use std::time::Duration;
use telemetry::json::JsonValue;
use workloads::Scheme;

fn main() {
    let args = Args::parse();
    let repeats: u32 = args.value("--repeats", 3);
    let max_pow: u32 = args.value("--max-pow", 12);
    let degraded = args.flag("--degraded");
    let json_path = json_output(&args);
    let mut report = BenchReport::new("fig5");
    report
        .param("repeats", repeats)
        .param("max_pow", max_pow)
        .param("degraded", degraded);

    print_environment("Figure 5 — single-thread JNI copy overhead");

    // Runs first: the reset then leaves the report's histograms to the
    // figure's own runs, and the row's VMs never reach its counter sums.
    let recording = telemetry::enabled();
    let [telemetry_off, telemetry_on] = telemetry_cost(repeats);
    telemetry::set_enabled(recording);
    telemetry::reset();

    let schemes = [Scheme::GuardedCopy, Scheme::Mte4JniSync, Scheme::Mte4JniAsync];
    if degraded {
        println!(
            "{:>10}  {:>14}  {:>14}  {:>14}  {:>14}",
            "len(ints)",
            schemes[0].label(),
            schemes[1].label(),
            schemes[2].label(),
            "degraded"
        );
    } else {
        println!(
            "{:>10}  {:>14}  {:>14}  {:>14}",
            "len(ints)",
            schemes[0].label(),
            schemes[1].label(),
            schemes[2].label()
        );
    }

    let mut sums = [0.0f64; 3];
    let mut degraded_sum = 0.0f64;
    let mut rows = 0u32;
    let mut chart_rows: Vec<(String, Vec<f64>)> = Vec::new();
    for pow in 1..=max_pow {
        let len = 1usize << pow;
        // Keep per-cell work roughly constant across lengths.
        let iters = (1u32 << 14) / len as u32;
        let iters = iters.clamp(4, 4096);
        let baseline = time_copy(&mut report, Scheme::NoProtection, len, iters, repeats);
        let mut row = [0.0f64; 3];
        for (i, &scheme) in schemes.iter().enumerate() {
            row[i] = ratio(time_copy(&mut report, scheme, len, iters, repeats), baseline);
            sums[i] += row[i];
        }
        rows += 1;
        let mut fields = vec![
            ("len", JsonValue::from(len)),
            ("iters", JsonValue::from(iters)),
            ("baseline_ns", JsonValue::from(baseline.as_nanos() as u64)),
            ("guarded_copy_ratio", JsonValue::from(row[0])),
            ("mte_sync_ratio", JsonValue::from(row[1])),
            ("mte_async_ratio", JsonValue::from(row[2])),
        ];
        if degraded {
            let d = ratio(time_copy_degraded(&mut report, len, iters, repeats), baseline);
            degraded_sum += d;
            fields.push(("degraded_guarded_ratio", JsonValue::from(d)));
            println!(
                "{:>10}  {:>13.2}x  {:>13.2}x  {:>13.2}x  {:>13.2}x",
                len, row[0], row[1], row[2], d
            );
        } else {
            println!(
                "{:>10}  {:>13.2}x  {:>13.2}x  {:>13.2}x",
                len, row[0], row[1], row[2]
            );
        }
        report.row(fields);
        chart_rows.push((len.to_string(), row.to_vec()));
    }

    let avg: Vec<f64> = sums.iter().map(|s| s / f64::from(rows)).collect();
    println!();
    println!(
        "{:>10}  {:>13.2}x  {:>13.2}x  {:>13.2}x   (paper: 26.58x / 2.36x / 2.24x)",
        "average", avg[0], avg[1], avg[2]
    );
    let reduction_sync = avg[0] / avg[1].max(f64::EPSILON);
    let reduction_async = avg[0] / avg[2].max(f64::EPSILON);
    println!(
        "overhead reduction vs guarded copy: sync {reduction_sync:.1}x, async {reduction_async:.1}x \
         (paper abstract: ~11x single-threaded)"
    );
    report
        .summary("avg_guarded_copy_ratio", avg[0])
        .summary("avg_mte_sync_ratio", avg[1])
        .summary("avg_mte_async_ratio", avg[2])
        .summary("reduction_sync", reduction_sync)
        .summary("reduction_async", reduction_async)
        .summary("telemetry_off_copy_ns", telemetry_off)
        .summary("telemetry_on_copy_ns", telemetry_on);
    println!(
        "telemetry recording, 2-int No_Protection copy: off {telemetry_off:.0} ns, \
         on {telemetry_on:.0} ns ({:.2}x; medians of {repeats}, report only)",
        telemetry_on / telemetry_off.max(f64::EPSILON)
    );
    if degraded {
        // The cost of quarantine: the same kernel through the guarded-copy
        // fallback, relative to baseline and to healthy MTE4JNI+Sync.
        let avg_degraded = degraded_sum / f64::from(rows);
        let fallback_ratio = avg_degraded / avg[1].max(f64::EPSILON);
        println!(
            "quarantined (guarded-copy fallback) average: {avg_degraded:.2}x; \
             {fallback_ratio:.2}x the healthy MTE4JNI+Sync cost"
        );
        report
            .summary("avg_degraded_guarded_ratio", avg_degraded)
            .summary("degraded_fallback_ratio", fallback_ratio);
    }
    println!();
    println!("Copy time ratios (cf. the paper's Figure 5, log scale):");
    print!(
        "{}",
        log_bar_chart(
            &[schemes[0].label(), schemes[1].label(), schemes[2].label()],
            &chart_rows
        )
    );

    if let Some(path) = json_path {
        bench::write_report(&report, &path);
    }
}

/// Median time of one 2-int No_Protection copy, in nanoseconds, with
/// telemetry recording off and then on: `rounds` fresh VMs each,
/// alternating the two settings. The VMs' counters go to a report that
/// is never written.
fn telemetry_cost(rounds: u32) -> [f64; 2] {
    const ITERS: u32 = 4096;
    let mut unwritten = BenchReport::new("telemetry_cost");
    let mut samples: [Vec<Duration>; 2] = Default::default();
    for _ in 0..rounds.max(1) {
        for (on, times) in samples.iter_mut().enumerate() {
            telemetry::set_enabled(on == 1);
            times.push(time_copy(&mut unwritten, Scheme::NoProtection, 2, ITERS, 1));
        }
    }
    samples.map(|mut times| {
        times.sort_unstable();
        times[times.len() / 2].as_nanos() as f64 / f64::from(ITERS)
    })
}
