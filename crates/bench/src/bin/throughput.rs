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
//! cancels out. A `native_element_rw_ns` row times the same pairs
//! through `NativeArray::read_i32`/`write_i32` on an array borrowed
//! under MTE4JNI+Sync, and `native_element_rw_ratio`, the median of its
//! per-round ratios to the `TaggedMemory` row, is gated too: the JNI
//! accessors may add nothing measurable to the check. A report-only
//! `pin_unpin_ns` row times `Heap::pin` and dropping its guard on one
//! small array: the object's atomic pin count up and down and one load
//! of the world gate's compaction flag, with no gate hold. `--quick`
//! shrinks the measured volume for CI.

use std::time::Duration;

use art_heap::{Heap, HeapConfig, ObjectRef};
use bench::{copy_row, json_output, print_environment, spread, timed, Args, BenchReport, Rounds};
use jni_rt::{NativeKind, ReleaseMode, Vm};
use mte_sim::{
    MemoryConfig, MteThread, ScalarMemory, Tag, TaggedMemory, TaggedPtr, TcfMode, PAGE_SIZE,
};
use telemetry::json::JsonValue;
use workloads::Scheme;

const BASE: u64 = 0x7a00_0000_0000;
/// Rounds of the per-element row (after one warm-up).
const ELEMENT_ROUNDS: u32 = 31;

/// GB/s moved given total bytes and the best measured duration.
fn gbps(bytes: u64, d: Duration) -> f64 {
    (bytes as f64 / 1e9) / d.as_secs_f64().max(1e-12)
}

/// The measured kernels, in table order.
const KERNELS: [&str; 6] = [
    "read_bytes",
    "write_bytes",
    "fill",
    "read_unchecked",
    "write_unchecked",
    "set_tag_range",
];

/// One call of kernel `k` (an index into [`KERNELS`]) on the wide or
/// the scalar implementation, over `buf.len()` bytes of the region.
fn op(s: &Setup, k: usize, wide: bool, buf: &mut [u8], payload: &[u8]) {
    let (ptr, thread) = (s.ptr, &s.thread);
    let end = ptr.addr() + buf.len() as u64;
    match (k, wide) {
        (0, true) => s.wide.read_bytes(thread, ptr, buf).unwrap(),
        (0, false) => s.scalar.read_bytes(thread, ptr, buf).unwrap(),
        (1, true) => s.wide.write_bytes(thread, ptr, payload).unwrap(),
        (1, false) => s.scalar.write_bytes(thread, ptr, payload).unwrap(),
        (2, true) => s.wide.fill(thread, ptr, buf.len(), 0x5A).unwrap(),
        (2, false) => s.scalar.fill(thread, ptr, buf.len(), 0x5A).unwrap(),
        (3, true) => s.wide.read_bytes_unchecked(ptr, buf).unwrap(),
        (3, false) => s.scalar.read_bytes_unchecked(ptr, buf).unwrap(),
        (4, true) => s.wide.write_bytes_unchecked(ptr, payload).unwrap(),
        (4, false) => s.scalar.write_bytes_unchecked(ptr, payload).unwrap(),
        (_, true) => s.wide.set_tag_range(ptr, end, s.tag).unwrap(),
        (_, false) => s.scalar.set_tag_range(ptr, end, s.tag).unwrap(),
    }
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

    let rounds = Rounds::new(repeats);
    for &size in sizes {
        let iters = (volume / size).clamp(1, 1 << 20) as u32;
        let payload: Vec<u8> = (0..size).map(|i| i as u8).collect();
        let bytes = size as u64 * u64::from(iters);
        for (k, kernel) in KERNELS.into_iter().enumerate() {
            let series = rounds.run([true, false], |wide| {
                let (s, payload) = (&s, &payload);
                let mut buf = vec![0u8; size];
                move || {
                    timed(|| {
                        for _ in 0..iters {
                            op(s, k, wide, &mut buf, payload);
                        }
                    })
                }
            });
            // Best of the rounds on each side.
            let wide_gbps = gbps(bytes, series[0].min());
            let scalar_gbps = gbps(bytes, series[1].min());
            let speedup = wide_gbps / scalar_gbps.max(f64::EPSILON);
            println!(
                "{:>9}  {:<16}  {:>10.3}  {:>10.3}  {:>7.1}x",
                size, kernel, wide_gbps, scalar_gbps, speedup
            );
            let mut fields = vec![
                ("size", JsonValue::from(size)),
                ("kernel", JsonValue::from(kernel)),
                ("iters", JsonValue::from(iters)),
                ("wide_gbps", JsonValue::from(wide_gbps)),
                ("scalar_gbps", JsonValue::from(scalar_gbps)),
                ("speedup", JsonValue::from(speedup)),
            ];
            fields.extend(spread(&series[0], &[("wide", &series[0]), ("scalar", &series[1])]));
            report.row(fields);
            if size == 4096 {
                match kernel {
                    "read_bytes" => speedup_read_4k = speedup,
                    "write_bytes" => speedup_write_4k = speedup,
                    "set_tag_range" => {
                        report.summary("speedup_set_tag_range", speedup);
                    }
                    _ => {}
                }
                // Absolute checked-path figures the CI regression gate
                // compares against the committed baseline.
                if matches!(kernel, "read_bytes" | "write_bytes" | "fill" | "set_tag_range") {
                    gate_figures.push((format!("checked_{kernel}_gbps_4k"), wide_gbps));
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
    // tagged 4 KiB region, the scalar path native loops run on. The
    // ratio is the median of the per-round ratios. The third row runs
    // the same pairs through the JNI surface native code calls:
    // `NativeArray::read_i32`/`write_i32` on an int array borrowed with
    // `GetPrimitiveArrayCritical` under MTE4JNI+Sync, the borrow and its
    // release outside the clock; its ratio to the first row is gated.
    const ELEMENTS: usize = 4096 / 4;
    let passes = (volume / 4096) as u32;
    let pairs = f64::from(ELEMENTS as u32 * passes);
    let elem = |i: usize| s.ptr.wrapping_add(4 * i as u64);
    let s = &s;
    let vm = Scheme::Mte4JniSync.build_vm();
    let jni_thread = vm.attach_thread("throughput");
    let array = vm.env(&jni_thread).new_int_array(ELEMENTS).unwrap();
    let tagged_memory_pass = |wide: bool| {
        timed(|| {
            for _ in 0..passes {
                for i in 0..ELEMENTS {
                    if wide {
                        let v = s.wide.load_u32(&s.thread, elem(i)).unwrap();
                        s.wide.store_u32(&s.thread, elem(i), v.wrapping_add(1)).unwrap();
                    } else {
                        let v = s.scalar.load_u32(&s.thread, elem(i)).unwrap();
                        s.scalar.store_u32(&s.thread, elem(i), v.wrapping_add(1)).unwrap();
                    }
                }
            }
        })
    };
    let native_pass = || {
        let env = vm.env(&jni_thread);
        env.call_native("element_rw", NativeKind::Normal, |env| {
            let a = env.get_primitive_array_critical(&array)?;
            let mem = env.native_mem();
            let d = timed(|| {
                for _ in 0..passes {
                    for i in 0..ELEMENTS as isize {
                        let v = a.read_i32(&mem, i).unwrap();
                        a.write_i32(&mem, i, v.wrapping_add(1)).unwrap();
                    }
                }
            });
            env.release_primitive_array_critical(&array, a, ReleaseMode::CopyBack)?;
            Ok(d)
        })
        .unwrap()
    };
    let element = Rounds::new(ELEMENT_ROUNDS).run([Some(true), Some(false), None], |row| {
        move || match row {
            Some(wide) => tagged_memory_pass(wide),
            None => native_pass(),
        }
    });
    report.merge([vm.snapshot()]);
    let per_pair = |d: Duration| d.as_nanos() as f64 / pairs;
    let element_rw_ns = per_pair(element[0].median());
    let scalar_element_rw_ns = per_pair(element[1].median());
    let native_element_rw_ns = per_pair(element[2].median());
    let speedup_element_rw = element[1].median_ratio(&element[0]);
    let native_element_rw_ratio = element[2].median_ratio(&element[0]);
    println!(
        "element rw (checked u32 load+store, 4 KiB): {element_rw_ns:.2} ns wide, \
         {scalar_element_rw_ns:.2} ns scalar, {speedup_element_rw:.2}x; \
         {native_element_rw_ns:.2} ns through NativeArray (MTE4JNI+Sync), \
         {native_element_rw_ratio:.3}x wide"
    );
    println!();
    report.summary("element_rw_ns", element_rw_ns);
    report.summary("scalar_element_rw_ns", scalar_element_rw_ns);
    report.summary("native_element_rw_ns", native_element_rw_ns);
    report.summary("native_element_rw_ratio", native_element_rw_ratio);
    report.summary("speedup_element_rw", speedup_element_rw);

    // Pin view: the bookkeeping every JNI acquire/release pair does
    // before any tag work. Report-only.
    let heap = Heap::new(HeapConfig::default());
    let pinned = ObjectRef::from(heap.alloc_int_array(4).unwrap());
    let pin_iters: u32 = if quick { 100_000 } else { 1_000_000 };
    let pin = rounds.run([()], |()| {
        || {
            timed(|| {
                for _ in 0..pin_iters {
                    drop(heap.pin(&pinned));
                }
            })
        }
    });
    let pin_unpin_ns = pin[0].min().as_nanos() as f64 / f64::from(pin_iters);
    println!("pin + unpin (one small array): {pin_unpin_ns:.1} ns");
    println!();
    report.summary("pin_unpin_ns", pin_unpin_ns);

    // Scheme-level view: the JNI critical-path copy inherits the kernel
    // speedup end to end.
    println!("scheme-level (Fig.5 copy kernel, 1024-int arrays):");
    let iters = if quick { 32 } else { 256 };
    let schemes = [Scheme::GuardedCopy, Scheme::Mte4JniSync];
    let vms = schemes.map(Scheme::build_vm);
    let series = rounds.run(&vms, |vm| copy_row(vm, 1024, iters));
    report.merge(vms.iter().map(Vm::snapshot));
    for (scheme, s) in schemes.iter().zip(&series) {
        let bytes = 1024 * 4 * u64::from(iters) * 2; // read + write per copy
        let g = gbps(bytes, s.min());
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
