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

use bench::{json_output, print_environment, ratio, time_multithread_read, Args, BenchReport, SharingMode};
use std::time::Duration;
use telemetry::json::JsonValue;
use workloads::Scheme;

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

    let schemes = [
        (Scheme::Mte4JniSync, "lock-free sync"),
        (Scheme::Mte4JniAsync, "lock-free async"),
        (Scheme::Mte4JniSyncTwoTier, "two-tier sync"),
        (Scheme::Mte4JniAsyncTwoTier, "two-tier async"),
        (Scheme::Mte4JniSyncGlobalLock, "global-lock sync"),
        (Scheme::Mte4JniAsyncGlobalLock, "global-lock async"),
        (Scheme::GuardedCopy, "guarded copy"),
    ];

    for (sharing, title, paper) in [
        (SharingMode::SameArray, "Same Array", "1.21x / 1.39x / 32.9x"),
        (SharingMode::DifferentArrays, "Different Array", "1.21x / 2.20x / 34.0x"),
    ] {
        let baseline = time_multithread_read(
            &mut report,
            Scheme::NoProtection,
            sharing,
            threads,
            reads,
            array_len,
        );
        println!("--- {title} (paper two-tier/global/guarded: {paper}) ---");
        println!("{:>26}  {:>10}  {:>8}", "scheme", "time", "ratio");
        println!(
            "{:>26}  {:>10}  {:>7.2}x",
            "No_Protection",
            format_duration(baseline),
            1.0
        );
        let sharing_label = match sharing {
            SharingMode::SameArray => "same_array",
            SharingMode::DifferentArrays => "different_arrays",
        };
        report.row(vec![
            ("sharing", JsonValue::from(sharing_label)),
            ("scheme", JsonValue::from("no_protection")),
            ("time_ns", JsonValue::from(baseline.as_nanos() as u64)),
            ("ratio", JsonValue::from(1.0)),
        ]);
        for &(scheme, name) in &schemes {
            let t = time_multithread_read(&mut report, scheme, sharing, threads, reads, array_len);
            println!(
                "{:>26}  {:>10}  {:>7.2}x",
                name,
                format_duration(t),
                ratio(t, baseline)
            );
            report.row(vec![
                ("sharing", JsonValue::from(sharing_label)),
                ("scheme", JsonValue::from(name)),
                ("time_ns", JsonValue::from(t.as_nanos() as u64)),
                ("ratio", JsonValue::from(ratio(t, baseline))),
            ]);
        }
        println!();
    }

    if args.flag("--sweep-tables") {
        println!("--- Ablation: hash-table count k (two-tier sync, different arrays) ---");
        let baseline = time_multithread_read(
            &mut report,
            Scheme::NoProtection,
            SharingMode::DifferentArrays,
            threads,
            reads,
            array_len,
        );
        println!("{:>6}  {:>10}  {:>8}", "k", "time", "ratio");
        for k in [1usize, 2, 4, 8, 16, 32, 64] {
            let vm_time = time_with_tables(&mut report, k, threads, reads, array_len);
            println!(
                "{:>6}  {:>10}  {:>7.2}x",
                k,
                format_duration(vm_time),
                ratio(vm_time, baseline)
            );
            report.row(vec![
                ("sharing", JsonValue::from("table_sweep")),
                ("scheme", JsonValue::from(format!("two_tier_k{k}"))),
                ("time_ns", JsonValue::from(vm_time.as_nanos() as u64)),
                ("ratio", JsonValue::from(ratio(vm_time, baseline))),
            ]);
        }
    }

    if let Some(path) = json_path {
        bench::write_report(&report, &path);
    }
}

fn time_with_tables(
    report: &mut BenchReport,
    k: usize,
    threads: usize,
    reads: u32,
    array_len: usize,
) -> Duration {
    use art_heap::ArrayRef;
    use std::time::Instant;

    let vm = Scheme::Mte4JniSyncTwoTier.build_vm_with_tables(k);
    let setup = vm.attach_thread("sweep-setup");
    let env = vm.env(&setup);
    let data: Vec<i32> = (0..array_len as i32).collect();
    let arrays: Vec<ArrayRef> = (0..threads)
        .map(|_| env.new_int_array_from(&data).expect("alloc"))
        .collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        for (i, array) in arrays.iter().enumerate() {
            let vm = &vm;
            s.spawn(move || {
                let thread = vm.attach_thread(format!("sweep-{i}"));
                let env = vm.env(&thread);
                bench::read_loop_kernel(&env, array, reads);
            });
        }
    });
    let elapsed = start.elapsed();
    report.count_vm(&vm);
    elapsed
}

fn format_duration(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.2}s", d.as_secs_f64())
    } else {
        format!("{:.1}ms", d.as_secs_f64() * 1e3)
    }
}
