//! Thread-scaling of the tag-table acquire/release fast path: ops/s of
//! `AtomicEntryTable` (lock-free, production default) vs `TwoTierTable`
//! (paper §3.1.2) vs `GlobalLockTable` (Figure 6 ablation), from 1 to 64
//! threads, in two sharing shapes:
//!
//! * **contended** — every thread hammers the same object, so each pair
//!   is a refcount handoff (the shared-tag path the lock-free redesign
//!   targets: one CAS, no table lock);
//! * **disjoint** — each thread owns a private object, isolating
//!   per-op overhead with no cross-thread traffic.
//!
//! Emits `BENCH_scaling.json`. CI gates the 1/4/16-thread figures
//! against `crates/bench/baselines/BENCH_scaling.baseline.json` (≤ 20%
//! regression, lock-free ≥ two-tier at every point, and a floor on the
//! lock-free/two-tier ratio at 16 contended threads). `--quick` runs
//! just those thread counts with a smaller op budget for CI.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use bench::{json_output, print_environment, Args, BenchReport};
use mte4jni::{ReleaseOutcome, TableBackend, TableConfig, TagTable};
use mte_sim::{MemoryConfig, MteThread, TaggedMemory, TaggedPtr};
use telemetry::json::JsonValue;

const BASE: u64 = 0x7a00_0000_0000;
const MEM_SIZE: usize = 1 << 20;
/// Disjoint objects sit one page apart so no two share a table bucket.
const OBJ_STRIDE: u64 = 0x1000;
const OBJ_LEN: u64 = 64;

#[derive(Clone, Copy, PartialEq)]
enum Sharing {
    Contended,
    Disjoint,
}

impl Sharing {
    fn label(self) -> &'static str {
        match self {
            Sharing::Contended => "contended",
            Sharing::Disjoint => "disjoint",
        }
    }
}

fn backend_label(backend: TableBackend) -> &'static str {
    match backend {
        TableBackend::LockFree => "lock_free",
        TableBackend::TwoTier => "two_tier_k16",
        TableBackend::Global => "global_lock",
    }
}

/// One measurement: `threads` real OS threads each run `pairs`
/// acquire/release pairs against a fresh table; returns pairs/s across
/// all threads (best of `repeats`).
fn measure_ops(
    backend: TableBackend,
    sharing: Sharing,
    threads: usize,
    pairs: u32,
    repeats: u32,
) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..repeats {
        let mem = TaggedMemory::new(MemoryConfig {
            base: BASE,
            size: MEM_SIZE,
        });
        mem.mprotect_mte(BASE, MEM_SIZE, true).unwrap();
        let table: Arc<dyn TagTable> = Arc::from(
            TableConfig {
                backend,
                ..TableConfig::default()
            }
            .build(),
        );
        let barrier = Arc::new(Barrier::new(threads + 1));
        let failed = Arc::new(AtomicBool::new(false));
        let elapsed = std::thread::scope(|scope| {
            for t in 0..threads {
                let (mem, table) = (Arc::clone(&mem), Arc::clone(&table));
                let (barrier, failed) = (Arc::clone(&barrier), Arc::clone(&failed));
                scope.spawn(move || {
                    let thread = MteThread::with_seed("scaling", 0x5CA1E ^ t as u64);
                    let addr = match sharing {
                        Sharing::Contended => BASE,
                        Sharing::Disjoint => BASE + OBJ_STRIDE * t as u64,
                    };
                    let begin = TaggedPtr::from_addr(addr);
                    let end = addr + OBJ_LEN;
                    barrier.wait();
                    for _ in 0..pairs {
                        if table.acquire(&mem, &thread, begin, end).is_err() {
                            failed.store(true, Ordering::Relaxed);
                            return;
                        }
                        // The borrow just acquired must still be tracked.
                        if !matches!(
                            table.release(&mem, begin, end),
                            Ok(outcome) if outcome != ReleaseOutcome::NotTracked
                        ) {
                            failed.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                });
            }
            // Read the clock *before* releasing the workers: on an
            // oversubscribed host the main thread may not run again
            // until the workers are already done, so a start stamp
            // taken after the barrier can miss the whole work phase.
            // `scope` joins every worker before returning, so
            // start → scope-return brackets barrier-release → last join
            // (plus any spawn tail still short of the barrier, which the
            // op budget dwarfs).
            let start = Instant::now();
            barrier.wait();
            start
        })
        .elapsed();
        assert!(
            !failed.load(Ordering::Relaxed),
            "{} {} x{threads}: acquire/release failed",
            backend_label(backend),
            sharing.label()
        );
        let ops = f64::from(pairs) * threads as f64;
        best = best.max(ops / elapsed.as_secs_f64().max(1e-12));
    }
    best
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("--quick");
    let repeats: u32 = args.value("--repeats", if quick { 2 } else { 3 });
    let pairs: u32 = args.value("--pairs", if quick { 4_000 } else { 20_000 });
    let json_path = json_output(&args);

    let thread_counts: &[usize] = if quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };

    let mut report = BenchReport::new("scaling");
    report
        .param("quick", quick)
        .param("repeats", repeats)
        .param("pairs_per_thread", pairs);

    print_environment("Tag-table thread scaling — lock-free vs two-tier vs global");
    println!(
        "{:>10}  {:>8}  {:>14}  {:>14}  {:>14}",
        "mode", "threads", "lock_free", "two_tier_k16", "global_lock"
    );

    let backends = [
        TableBackend::LockFree,
        TableBackend::TwoTier,
        TableBackend::Global,
    ];
    let mut contended_16: Vec<(&str, f64)> = Vec::new();
    for sharing in [Sharing::Contended, Sharing::Disjoint] {
        for &threads in thread_counts {
            let mut row: Vec<(&str, JsonValue)> = vec![
                ("mode", JsonValue::from(sharing.label())),
                ("threads", JsonValue::from(threads)),
            ];
            let mut cells = Vec::new();
            for backend in backends {
                let ops = measure_ops(backend, sharing, threads, pairs, repeats);
                row.push((backend_label(backend), JsonValue::from(ops)));
                cells.push(ops);
                if sharing == Sharing::Contended && threads == 16 {
                    contended_16.push((backend_label(backend), ops));
                }
            }
            println!(
                "{:>10}  {:>8}  {:>12.0}/s  {:>12.0}/s  {:>12.0}/s",
                sharing.label(),
                threads,
                cells[0],
                cells[1],
                cells[2]
            );
            report.row(row);
        }
    }

    // Headline: the redesign's acceptance figure.
    if let (Some(&(_, lf)), Some(&(_, tt))) = (
        contended_16.iter().find(|(n, _)| *n == "lock_free"),
        contended_16.iter().find(|(n, _)| *n == "two_tier_k16"),
    ) {
        let speedup = lf / tt.max(1e-12);
        println!("\ncontended x16: lock-free {speedup:.1}x over two-tier");
        report.summary("contended_16_lock_free_ops", lf);
        report.summary("contended_16_two_tier_ops", tt);
        report.summary("contended_16_speedup", speedup);
    }

    if let Some(dir) = json_path {
        bench::write_report(&report, &dir);
    }
}
