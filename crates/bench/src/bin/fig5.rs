//! Regenerates **Figure 5**: single-thread execution time of the
//! array-copy native method across array lengths 2^1..2^12, under every
//! scheme, normalized to the no-protection scheme.
//!
//! Also prints the §5.3.1 headline averages (paper: guarded copy 26.58×,
//! MTE4JNI+Sync 2.36×, MTE4JNI+Async 2.24×) and the abstract's
//! single-thread overhead-reduction factor (paper: ~11×), and a
//! report-only row with the cost of telemetry recording itself: the
//! 2-int no-protection copy timed with recording off and on. A fourth
//! column, `degraded`, times the same kernel on an MTE4JNI+Sync VM that
//! has quarantined it onto its guarded-copy fallback.
//!
//! Each length is one table row: its schemes' VMs are built, then timed
//! round by round. The ratio columns are each scheme's fastest pass over
//! the baseline's; the JSON rows add every column's median, range and
//! median per-round ratio.

use bench::{
    copy_row, degraded_vm, json_output, log_bar_chart, ns, print_environment, ratio, spread, Args,
    BenchReport, Rounds,
};
use jni_rt::Vm;
use telemetry::json::JsonValue;
use workloads::Scheme;

fn main() {
    let args = Args::parse();
    let repeats: u32 = args.value("--repeats", 3);
    let max_pow: u32 = args.value("--max-pow", 12);
    let json_path = json_output(&args);
    let mut report = BenchReport::new("fig5");
    report
        .param("repeats", repeats)
        .param("max_pow", max_pow);

    print_environment("Figure 5 — single-thread JNI copy overhead");

    let rounds = Rounds::new(repeats);
    // Its VMs are never merged into the report, so the report covers
    // the table's runs only. Each row sets the recording state before
    // its own clock read.
    const TELEMETRY_ITERS: u32 = 4096;
    let recording = telemetry::enabled();
    let vms = [Scheme::NoProtection.build_vm(), Scheme::NoProtection.build_vm()];
    let cost = rounds.run([false, true].iter().zip(&vms), |(&on, vm)| {
        let mut pass = copy_row(vm, 2, TELEMETRY_ITERS);
        move || {
            telemetry::set_enabled(on);
            pass()
        }
    });
    drop(vms);
    let [telemetry_off, telemetry_on] =
        [0, 1].map(|i| cost[i].median().as_nanos() as f64 / f64::from(TELEMETRY_ITERS));
    telemetry::set_enabled(recording);

    // The columns after the no-protection baseline: JSON key, header,
    // and the VM each table row builds for it.
    type Column = (&'static str, &'static str, fn() -> Vm);
    let columns: [Column; 4] = [
        ("guarded_copy", Scheme::GuardedCopy.label(), || Scheme::GuardedCopy.build_vm()),
        ("mte_sync", Scheme::Mte4JniSync.label(), || Scheme::Mte4JniSync.build_vm()),
        ("mte_async", Scheme::Mte4JniAsync.label(), || Scheme::Mte4JniAsync.build_vm()),
        ("degraded_guarded", "degraded", degraded_vm),
    ];
    let ratio_keys: Vec<String> = columns.iter().map(|c| format!("{}_ratio", c.0)).collect();
    let labels: Vec<&str> = std::iter::once("no_protection").chain(columns.iter().map(|c| c.0)).collect();
    print!("{:>10}", "len(ints)");
    for (_, header, _) in &columns {
        print!("  {header:>14}");
    }
    println!();

    let mut sums = vec![0.0f64; columns.len()];
    let mut chart_rows: Vec<(String, Vec<f64>)> = Vec::new();
    for pow in 1..=max_pow {
        let len = 1usize << pow;
        // Keep per-cell work roughly constant across lengths.
        let iters = (1u32 << 14) / len as u32;
        let iters = iters.clamp(4, 4096);
        let vms: Vec<Vm> = std::iter::once(Scheme::NoProtection.build_vm())
            .chain(columns.iter().map(|c| (c.2)()))
            .collect();
        let series = rounds.run(&vms, |vm| copy_row(vm, len, iters));
        report.merge(vms.iter().map(Vm::snapshot));
        let baseline = series[0].min();
        let ratios: Vec<f64> = series[1..].iter().map(|s| ratio(s.min(), baseline)).collect();
        let mut fields = vec![
            ("len", JsonValue::from(len)),
            ("iters", JsonValue::from(iters)),
            ("baseline_ns", ns(baseline)),
        ];
        print!("{len:>10}");
        for ((key, &r), sum) in ratio_keys.iter().zip(&ratios).zip(&mut sums) {
            *sum += r;
            print!("  {r:>13.2}x");
            fields.push((key, JsonValue::from(r)));
        }
        println!();
        let spread_columns: Vec<_> = labels.iter().copied().zip(&series).collect();
        fields.extend(spread(&series[0], &spread_columns));
        report.row(fields);
        chart_rows.push((len.to_string(), ratios[..3].to_vec()));
    }

    let avg: Vec<f64> = sums.iter().map(|s| s / f64::from(max_pow)).collect();
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
    for ((key, _, _), a) in columns.iter().zip(&avg) {
        report.summary(&format!("avg_{key}_ratio"), *a);
    }
    report
        .summary("reduction_sync", reduction_sync)
        .summary("reduction_async", reduction_async)
        .summary("telemetry_off_copy_ns", telemetry_off)
        .summary("telemetry_on_copy_ns", telemetry_on);
    println!(
        "telemetry recording, 2-int No_Protection copy: off {telemetry_off:.0} ns, \
         on {telemetry_on:.0} ns ({:.2}x; medians of {repeats}, report only)",
        telemetry_on / telemetry_off.max(f64::EPSILON)
    );
    // The cost of quarantine: the same kernel through the guarded-copy
    // fallback, relative to baseline and to healthy MTE4JNI+Sync.
    let fallback_ratio = avg[3] / avg[1].max(f64::EPSILON);
    println!(
        "quarantined (guarded-copy fallback) average: {:.2}x; \
         {fallback_ratio:.2}x the healthy MTE4JNI+Sync cost",
        avg[3]
    );
    report.summary("degraded_fallback_ratio", fallback_ratio);
    println!();
    println!("Copy time ratios (cf. the paper's Figure 5, log scale):");
    print!(
        "{}",
        log_bar_chart(&columns[..3].iter().map(|c| c.1).collect::<Vec<_>>(), &chart_rows)
    );

    if let Some(path) = json_path {
        bench::write_report(&report, &path);
    }
}
