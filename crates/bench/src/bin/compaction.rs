//! Fragmentation workload for the pin-aware object lifecycle (DESIGN.md
//! §11): rounds of mixed-size allocation churn open holes between
//! long-lived survivors, then each round ends in either a plain sweep or
//! a mark–compact pass. One survivor stays natively borrowed (pinned)
//! for the whole run, so every compaction must route around it.
//!
//! The headline figure is the largest single allocation the heap can
//! still satisfy after the churn: sweep-only leaves the address space
//! riddled with holes, compaction recovers a contiguous run. Emits
//! `BENCH_compaction.json` with per-round `CompactStats`, the pause
//! figures, and (via the shared telemetry snapshot) the `gc_pause`
//! histogram and per-scheme pin/move counters.

use std::sync::Arc;
use std::time::{Duration, Instant};

use art_heap::{ArrayRef, HeapConfig};
use bench::{json_output, print_environment, Args, BenchReport};
use jni_rt::{JniEnv, NativeArray, ReleaseMode, Vm};
use mte_sim::{MemoryConfig, TcfMode};
use mte4jni::Mte4Jni;
use telemetry::json::JsonValue;

/// Heap size the churn is scaled to: small enough that the survivor set
/// spans the address space and sweep-only fragmentation actually limits
/// the largest satisfiable request.
const HEAP_BYTES: usize = 4 << 20;

/// Deterministic xorshift64* so both modes replay the same churn.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Mixed array lengths (in ints) so rounded block sizes differ and
/// freed holes rarely fit the next request exactly.
const LENGTHS: &[usize] = &[8, 24, 64, 200, 640, 2048];

/// Largest int-array allocation (in bytes) the heap can satisfy right
/// now — the external-fragmentation probe. Probe handles are dropped
/// immediately and their blocks reclaimed by a sweep so the probe
/// leaves the layout as it found it.
fn largest_alloc_bytes(env: &JniEnv<'_>, vm: &Vm) -> u64 {
    let mut lo = 0usize;
    let mut hi = HEAP_BYTES / 4 + 1; // ints; one past the whole heap
    while hi - lo > 64 {
        let mid = lo + (hi - lo) / 2;
        match env.new_int_array(mid) {
            Ok(a) => {
                drop(a);
                vm.heap().sweep();
                lo = mid;
            }
            Err(_) => hi = mid,
        }
    }
    (lo * 4) as u64
}

struct ModeResult {
    final_largest: u64,
    final_in_use: u64,
    max_pause: Duration,
    moved_objects: u64,
    pinned_skipped: u64,
}

/// Runs the churn under one GC mode. Both modes see bit-identical
/// allocation and retirement decisions (same seed, same round shape);
/// only the end-of-round collection differs.
#[allow(clippy::too_many_lines)]
fn run_mode(
    compacting: bool,
    seed: u64,
    rounds: u32,
    churn: u32,
    report: &mut BenchReport,
) -> ModeResult {
    let mode = if compacting { "compact" } else { "sweep" };
    // The paper's scheme (MTE4JNI, two-tier tables, synchronous checks)
    // over a deliberately small heap — see `HEAP_BYTES`.
    let vm = Vm::builder()
        .heap_config(HeapConfig {
            memory: MemoryConfig {
                size: HEAP_BYTES,
                ..MemoryConfig::default()
            },
            ..HeapConfig::mte4jni()
        })
        .check_mode(TcfMode::Sync)
        .protection(Arc::new(Mte4Jni::new()))
        .build();
    let thread = vm.attach_thread(format!("compaction-{mode}"));
    let env = vm.env(&thread);
    let mut rng = Rng(seed | 1);

    // A few early survivors, then the borrowed array, then the churn:
    // the pin sits low in the address space where compaction would
    // otherwise slide everything past it.
    let mut survivors: Vec<ArrayRef> = (0..4)
        .map(|i| env.new_int_array_from(&vec![i; 64]).expect("warm-up alloc"))
        .collect();
    let held = env.new_int_array_from(&[7; 256]).expect("held alloc");
    let mut elems: Option<NativeArray> =
        Some(env.get_int_array_elements(&held).expect("borrow held array"));

    let mut result = ModeResult {
        final_largest: 0,
        final_in_use: 0,
        max_pause: Duration::ZERO,
        moved_objects: 0,
        pinned_skipped: 0,
    };

    println!("mode {mode}:");
    println!(
        "  {:>5}  {:>8}  {:>8}  {:>6}  {:>6}  {:>10}  {:>12}",
        "round", "live", "moved", "pinned", "dead", "pause", "largest"
    );

    for round in 0..rounds {
        // Churn: allocate, keep ~1 in 4, drop the rest immediately.
        for _ in 0..churn {
            let len = LENGTHS[rng.below(LENGTHS.len() as u64) as usize];
            let Ok(a) = env.new_int_array(len) else { break };
            if rng.below(4) == 0 {
                survivors.push(a);
            }
        }
        // Retire a quarter of the survivor population from random
        // positions, opening holes between the remaining long-lived
        // objects.
        for _ in 0..survivors.len() / 4 {
            let idx = rng.below(survivors.len() as u64) as usize;
            survivors.swap_remove(idx);
        }

        let (pause, moved, pinned, dead, freed) = if compacting {
            let c = vm.heap().compact();
            (c.pause, c.moved_objects, c.pinned_skipped, c.reclaimed_dead, c.bytes_freed)
        } else {
            let t0 = Instant::now();
            let g = vm.heap().sweep();
            (t0.elapsed(), 0, g.pinned, g.swept, g.bytes_freed)
        };
        result.max_pause = result.max_pause.max(pause);
        result.moved_objects += moved as u64;
        result.pinned_skipped += pinned as u64;

        let hs = vm.heap().stats();
        let largest = largest_alloc_bytes(&env, &vm);
        println!(
            "  {:>5}  {:>8}  {:>8}  {:>6}  {:>6}  {:>8.1}us  {:>10}B",
            round,
            hs.live_objects,
            moved,
            pinned,
            dead,
            pause.as_secs_f64() * 1e6,
            largest
        );
        report.row(vec![
            ("mode", JsonValue::from(mode)),
            ("round", JsonValue::from(round)),
            ("live_objects", JsonValue::from(hs.live_objects)),
            ("bytes_in_use", JsonValue::from(hs.bytes_in_use)),
            ("moved_objects", JsonValue::from(moved)),
            ("pinned_skipped", JsonValue::from(pinned)),
            ("reclaimed_dead", JsonValue::from(dead)),
            ("bytes_freed", JsonValue::from(freed)),
            ("pause_us", JsonValue::from(pause.as_secs_f64() * 1e6)),
            ("largest_alloc_bytes", JsonValue::from(largest)),
        ]);
        result.final_largest = largest;
        result.final_in_use = hs.bytes_in_use;
    }

    // The last release unpins; the object is free to move afterwards.
    let elems = elems.take().expect("borrow is held until here");
    env.release_int_array_elements(&held, elems, ReleaseMode::Abort)
        .expect("release borrowed array");
    assert_eq!(
        vm.heap().stats().pinned_objects,
        0,
        "release must drop the last pin"
    );

    report.merge([vm.snapshot()]);
    result
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("--quick");
    let rounds: u32 = args.value("--rounds", if quick { 4 } else { 12 });
    let churn: u32 = args.value("--churn", if quick { 96 } else { 384 });
    let seed: u64 = args.value("--seed", 42);
    let json_path = json_output(&args);

    let mut report = BenchReport::new("compaction");
    report
        .param("quick", quick)
        .param("rounds", rounds)
        .param("churn", churn)
        .param("seed", seed);

    print_environment("Fragmentation under churn — sweep-only vs mark-compact");

    let sweep = run_mode(false, seed, rounds, churn, &mut report);
    println!();
    let compact = run_mode(true, seed, rounds, churn, &mut report);

    let recovered = compact.final_largest as f64 / sweep.final_largest.max(1) as f64;
    println!();
    println!(
        "headline: largest allocation after churn {}B (sweep) vs {}B (compact), {recovered:.2}x; \
         {} objects moved around {} pinned obstacles",
        sweep.final_largest, compact.final_largest, compact.moved_objects, compact.pinned_skipped
    );

    report
        .summary("final_largest_alloc_sweep", sweep.final_largest)
        .summary("final_largest_alloc_compact", compact.final_largest)
        .summary("largest_alloc_recovery", recovered)
        .summary("final_bytes_in_use_sweep", sweep.final_in_use)
        .summary("final_bytes_in_use_compact", compact.final_in_use)
        .summary("moved_objects_total", compact.moved_objects)
        .summary("pinned_skipped_total", compact.pinned_skipped)
        .summary("max_pause_us_sweep", sweep.max_pause.as_secs_f64() * 1e6)
        .summary("max_pause_us_compact", compact.max_pause.as_secs_f64() * 1e6);

    // Compaction must have routed around the pinned borrow every round.
    assert!(
        compact.pinned_skipped >= u64::from(rounds),
        "the borrowed survivor was not treated as an obstacle"
    );

    if let Some(path) = json_path {
        bench::write_report(&report, &path);
    }
}
