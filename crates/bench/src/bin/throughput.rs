//! Raw memory-kernel throughput: GB/s of the word-packed `TaggedMemory`
//! kernels (DESIGN.md §10) versus the retained pre-optimization scalar
//! reference (`ScalarMemory`), across payload sizes, for checked and
//! unchecked bulk data paths and `set_tag_range` tagging.
//!
//! Emits `BENCH_throughput.json`, whose summary records the headline
//! speedups the optimization claims (≥ 4x on 4 KiB+ checked
//! `read_bytes`/`write_bytes` and on `set_tag_range`) and the absolute
//! checked-path GB/s figures the CI bench-smoke stage gates against a
//! committed baseline. A per-element row times checked `load_u32` +
//! `store_u32` pairs over a tagged 4 KiB region — the access pattern of
//! a JNI native element loop — and records `element_rw_ns` and
//! `speedup_element_rw`, a within-run ratio CI gates so the host's speed
//! cancels out. A report-only `pin_unpin_ns` row times `Heap::pin` and
//! dropping its guard on one small array: one world-gate hold plus the
//! object's atomic pin count. `--quick` shrinks the measured volume for
//! CI.

use std::time::{Duration, Instant};

use art_heap::{Heap, HeapConfig, ObjectRef};
use bench::{json_output, measure, print_environment, time_copy, Args, BenchReport};
use mte_sim::{
    MemoryConfig, MteThread, ScalarMemory, Tag, TaggedMemory, TaggedPtr, TcfMode, PAGE_SIZE,
};
use telemetry::json::JsonValue;
use workloads::Scheme;

const BASE: u64 = 0x7a00_0000_0000;
/// Alternating wide/scalar rounds of the per-element row.
const ELEMENT_ROUNDS: usize = 31;

/// GB/s moved given total bytes and the best measured duration.
fn gbps(bytes: u64, d: Duration) -> f64 {
    (bytes as f64 / 1e9) / d.as_secs_f64().max(1e-12)
}

/// One measured kernel on one implementation: runs `iters` calls of a
/// `size`-byte operation per sample, `repeats` samples, best-of.
fn bench_kernel(
    size: usize,
    iters: u32,
    repeats: u32,
    mut op: impl FnMut(),
) -> (Duration, f64) {
    let best = measure(repeats, || {
        for _ in 0..iters {
            op();
        }
    });
    (best, gbps(size as u64 * u64::from(iters), best))
}

struct Setup {
    wide: std::sync::Arc<TaggedMemory>,
    scalar: std::sync::Arc<ScalarMemory>,
    thread: MteThread,
    ptr: TaggedPtr,
    tag: Tag,
}

/// Both implementations over an identical fully-tagged region, accessed
/// through a matching pointer tag (the fault-free fast path every real
/// workload lives on).
fn setup(region: usize) -> Setup {
    let cfg = MemoryConfig { base: BASE, size: region };
    let wide = TaggedMemory::new(cfg);
    let scalar = ScalarMemory::new(cfg);
    wide.mprotect_mte(BASE, region, true).unwrap();
    scalar.mprotect_mte(BASE, region, true).unwrap();
    let tag = Tag::new(0x7).unwrap();
    let begin = TaggedPtr::from_addr(BASE);
    wide.set_tag_range(begin, BASE + region as u64, tag).unwrap();
    scalar.set_tag_range(begin, BASE + region as u64, tag).unwrap();
    let thread = MteThread::new("throughput");
    thread.set_mode(TcfMode::Sync);
    thread.set_tco(false);
    Setup {
        wide,
        scalar,
        thread,
        ptr: begin.with_tag(tag),
        tag,
    }
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("--quick");
    let repeats: u32 = args.value("--repeats", if quick { 2 } else { 3 });
    // Bytes per timed sample, amortizing clock overhead.
    let volume: usize = if quick { 1 << 20 } else { 16 << 20 };
    let json_path = json_output(&args);

    let mut report = BenchReport::new("throughput");
    report
        .param("quick", quick)
        .param("repeats", repeats)
        .param("volume_bytes", volume);

    print_environment("Memory-kernel throughput — wide-word vs scalar reference");

    let sizes: &[usize] = if quick {
        &[64, 4096, 65536]
    } else {
        &[64, 256, 1024, 4096, 65536, 1 << 20]
    };
    let region = (sizes.iter().copied().max().unwrap() * 2).max(8 * PAGE_SIZE);
    let s = setup(region);

    println!(
        "{:>9}  {:<16}  {:>10}  {:>10}  {:>8}",
        "size", "kernel", "wide GB/s", "scalar GB/s", "speedup"
    );

    let mut speedup_read_4k = 0.0f64;
    let mut speedup_write_4k = 0.0f64;
    let mut gate_figures: Vec<(String, f64)> = Vec::new();

    for &size in sizes {
        let iters = (volume / size).clamp(1, 1 << 20) as u32;
        let mut buf = vec![0u8; size];
        let payload: Vec<u8> = (0..size).map(|i| i as u8).collect();

        // (label, wide result, scalar result) triples, measured in turn.
        type Sample = (Duration, f64);
        let end = s.ptr.addr() + size as u64;
        let kernels: Vec<(&str, Sample, Sample)> = vec![
            (
                "read_bytes",
                bench_kernel(size, iters, repeats, || {
                    s.wide.read_bytes(&s.thread, s.ptr, &mut buf).unwrap();
                }),
                bench_kernel(size, iters, repeats, || {
                    s.scalar.read_bytes(&s.thread, s.ptr, &mut buf).unwrap();
                }),
            ),
            (
                "write_bytes",
                bench_kernel(size, iters, repeats, || {
                    s.wide.write_bytes(&s.thread, s.ptr, &payload).unwrap();
                }),
                bench_kernel(size, iters, repeats, || {
                    s.scalar.write_bytes(&s.thread, s.ptr, &payload).unwrap();
                }),
            ),
            (
                "fill",
                bench_kernel(size, iters, repeats, || {
                    s.wide.fill(&s.thread, s.ptr, size, 0x5A).unwrap();
                }),
                bench_kernel(size, iters, repeats, || {
                    s.scalar.fill(&s.thread, s.ptr, size, 0x5A).unwrap();
                }),
            ),
            (
                "read_unchecked",
                bench_kernel(size, iters, repeats, || {
                    s.wide.read_bytes_unchecked(s.ptr, &mut buf).unwrap();
                }),
                bench_kernel(size, iters, repeats, || {
                    s.scalar.read_bytes_unchecked(s.ptr, &mut buf).unwrap();
                }),
            ),
            (
                "write_unchecked",
                bench_kernel(size, iters, repeats, || {
                    s.wide.write_bytes_unchecked(s.ptr, &payload).unwrap();
                }),
                bench_kernel(size, iters, repeats, || {
                    s.scalar.write_bytes_unchecked(s.ptr, &payload).unwrap();
                }),
            ),
            (
                "set_tag_range",
                bench_kernel(size, iters, repeats, || {
                    s.wide.set_tag_range(s.ptr, end, s.tag).unwrap();
                }),
                bench_kernel(size, iters, repeats, || {
                    s.scalar.set_tag_range(s.ptr, end, s.tag).unwrap();
                }),
            ),
        ];

        for (kernel, (_, wide_gbps), (_, scalar_gbps)) in &kernels {
            let speedup = wide_gbps / scalar_gbps.max(f64::EPSILON);
            println!(
                "{:>9}  {:<16}  {:>10.3}  {:>10.3}  {:>7.1}x",
                size, kernel, wide_gbps, scalar_gbps, speedup
            );
            report.row(vec![
                ("size", JsonValue::from(size)),
                ("kernel", JsonValue::from(*kernel)),
                ("iters", JsonValue::from(iters)),
                ("wide_gbps", JsonValue::from(*wide_gbps)),
                ("scalar_gbps", JsonValue::from(*scalar_gbps)),
                ("speedup", JsonValue::from(speedup)),
            ]);
            if size == 4096 {
                match *kernel {
                    "read_bytes" => speedup_read_4k = speedup,
                    "write_bytes" => speedup_write_4k = speedup,
                    "set_tag_range" => {
                        report.summary("speedup_set_tag_range", speedup);
                    }
                    _ => {}
                }
                // Absolute checked-path figures the CI regression gate
                // compares against the committed baseline.
                if matches!(*kernel, "read_bytes" | "write_bytes" | "fill" | "set_tag_range") {
                    gate_figures.push((format!("checked_{kernel}_gbps_4k"), *wide_gbps));
                }
            }
        }
        println!();
    }

    // The largest size is the "4 KiB+" steady state; record its
    // speedups too so the acceptance numbers cover the whole class.
    let largest = *sizes.iter().max().unwrap();
    report.summary("speedup_read_4k", speedup_read_4k);
    report.summary("speedup_write_4k", speedup_write_4k);
    report.summary("largest_size", largest);
    for (key, v) in &gate_figures {
        report.summary(key, *v);
    }

    // Per-element view: one checked u32 load and store per element of a
    // tagged 4 KiB region, the scalar path native loops run on. Wide and
    // scalar passes alternate, and the ratio is the median of the
    // per-round ratios, so a host phase change hits both sides alike.
    const ELEMENTS: usize = 4096 / 4;
    let passes = (volume / 4096) as u32;
    let pairs = f64::from(ELEMENTS as u32 * passes);
    let elem = |i: usize| s.ptr.wrapping_add(4 * i as u64);
    let wide_pass = || {
        let start = Instant::now();
        for _ in 0..passes {
            for i in 0..ELEMENTS {
                let v = s.wide.load_u32(&s.thread, elem(i)).unwrap();
                s.wide
                    .store_u32(&s.thread, elem(i), v.wrapping_add(1))
                    .unwrap();
            }
        }
        start.elapsed().as_nanos() as f64 / pairs
    };
    let scalar_pass = || {
        let start = Instant::now();
        for _ in 0..passes {
            for i in 0..ELEMENTS {
                let v = s.scalar.load_u32(&s.thread, elem(i)).unwrap();
                s.scalar
                    .store_u32(&s.thread, elem(i), v.wrapping_add(1))
                    .unwrap();
            }
        }
        start.elapsed().as_nanos() as f64 / pairs
    };
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    wide_pass();
    scalar_pass();
    let rounds: Vec<(f64, f64)> = (0..ELEMENT_ROUNDS)
        .map(|_| (wide_pass(), scalar_pass()))
        .collect();
    let element_rw_ns = median(rounds.iter().map(|r| r.0).collect());
    let scalar_element_rw_ns = median(rounds.iter().map(|r| r.1).collect());
    let speedup_element_rw = median(rounds.iter().map(|r| r.1 / r.0).collect());
    println!(
        "element rw (checked u32 load+store, 4 KiB): {element_rw_ns:.2} ns wide, \
         {scalar_element_rw_ns:.2} ns scalar, {speedup_element_rw:.2}x"
    );
    println!();
    report.summary("element_rw_ns", element_rw_ns);
    report.summary("scalar_element_rw_ns", scalar_element_rw_ns);
    report.summary("speedup_element_rw", speedup_element_rw);

    // Pin view: the bookkeeping every JNI acquire/release pair does
    // before any tag work. Report-only.
    let heap = Heap::new(HeapConfig::default());
    let pinned = ObjectRef::from(heap.alloc_int_array(4).unwrap());
    let pin_iters: u32 = if quick { 100_000 } else { 1_000_000 };
    let best = measure(repeats, || {
        for _ in 0..pin_iters {
            drop(heap.pin(&pinned));
        }
    });
    let pin_unpin_ns = best.as_nanos() as f64 / f64::from(pin_iters);
    println!("pin + unpin (one small array): {pin_unpin_ns:.1} ns");
    println!();
    report.summary("pin_unpin_ns", pin_unpin_ns);

    // Scheme-level view: the JNI critical-path copy inherits the kernel
    // speedup end to end.
    println!("scheme-level (Fig.5 copy kernel, 1024-int arrays):");
    let iters = if quick { 32 } else { 256 };
    for scheme in [Scheme::GuardedCopy, Scheme::Mte4JniSync] {
        let d = time_copy(scheme, 1024, iters, repeats);
        let bytes = 1024 * 4 * u64::from(iters) * 2; // read + write per copy
        let g = gbps(bytes, d);
        println!("{:>24}: {:>8.3} GB/s", scheme.label(), g);
        report.row(vec![
            ("size", JsonValue::from(4096usize)),
            ("kernel", JsonValue::from(format!("scheme_{}", scheme.label()))),
            ("iters", JsonValue::from(iters)),
            ("wide_gbps", JsonValue::from(g)),
            ("scalar_gbps", JsonValue::from(0.0)),
            ("speedup", JsonValue::from(0.0)),
        ]);
        report.summary(&format!("scheme_{}_gbps", scheme.label()), g);
    }

    println!();
    println!(
        "headline: checked read 4 KiB {speedup_read_4k:.1}x, checked write 4 KiB \
         {speedup_write_4k:.1}x vs scalar reference"
    );

    if let Some(path) = json_path {
        bench::write_report(&report, &path);
    }
}
