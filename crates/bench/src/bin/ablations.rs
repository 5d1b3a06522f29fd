//! Ablations for the design decisions DESIGN.md calls out:
//!
//! 1. **Tag-conflict probability** (§3.2 motivation): with 4-bit tags and
//!    tag 0 reserved, an out-of-bounds access into an *independently
//!    tagged* neighbour is missed with probability ≈ 1/15; into released
//!    (re-zeroed) memory it is always caught — quantifying why timely tag
//!    release matters.
//! 2. **Guarded-copy red-zone size**: detection reach vs. acquire cost.
//! 3. **Alignment 8 vs 16**: the internal-fragmentation cost of the
//!    paper's §4.1 change, which it calls "generally negligible".
//! 4. **Hash-table count**: uncontended acquire/release cost across k
//!    (the contended case needs a multi-core host; see fig6).

use std::sync::Arc;
use std::time::Instant;

use art_heap::BlockAllocator;
use bench::{json_output, print_environment, Args, BenchReport};
use guarded_copy::{GuardedCopy, GuardedCopyConfig};
use jni_rt::{NativeKind, ReleaseMode, Vm};
use mte4jni::{TableConfig, TagTable, TwoTierTable};
use mte_sim::{MemoryConfig, MteThread, TaggedMemory, TaggedPtr, TcfMode};
use telemetry::json::JsonValue;

fn main() {
    let args = Args::parse();
    let json_path = json_output(&args);
    let mut report = BenchReport::new("ablations");
    print_environment("Ablations");
    tag_conflict_probability(&args, &mut report);
    red_zone_sweep(&args, &mut report);
    alignment_fragmentation(&mut report);
    table_count_cost(&args, &mut report);
    if let Some(path) = json_path {
        bench::write_report(&report, &path);
    }
}

/// 1. How often does an OOB access into a *live, independently tagged*
///    neighbour escape detection, vs. an OOB access into released memory?
fn tag_conflict_probability(args: &Args, report: &mut BenchReport) {
    let trials: usize = args.value("--trials", 2000);
    report.param("trials", trials);
    println!("--- 1. tag-conflict probability ({trials} trials) ---");
    let vm = mte4jni::mte4jni_vm(TcfMode::Sync, TableConfig::default());
    let thread = vm.attach_thread("ablation");
    let env = vm.env(&thread);

    let mut missed_live = 0usize;
    let mut missed_released = 0usize;
    for _ in 0..trials {
        let a = env.new_int_array(4).unwrap();
        let b = env.new_int_array(4).unwrap();
        // Both borrowed: both payloads carry independent random tags.
        let detected_live = env
            .call_native("probe", NativeKind::Normal, |env| {
                let ea = env.get_primitive_array_critical(&a)?;
                let eb = env.get_primitive_array_critical(&b)?;
                let mem = env.native_mem();
                let step = (b.data_addr() as i64 - a.data_addr() as i64) / 4;
                let r = ea.read_i32(&mem, step as isize); // a's ptr → b's data
                env.release_primitive_array_critical(&b, eb, ReleaseMode::Abort)?;
                env.release_primitive_array_critical(&a, ea, ReleaseMode::Abort)?;
                Ok(r.is_err())
            })
            .unwrap();
        if !detected_live {
            missed_live += 1;
        }
        // Released neighbour: b's tags were re-zeroed, a's pointer tag is
        // non-zero, so the OOB access must always be caught.
        let detected_released = env
            .call_native("probe2", NativeKind::Normal, |env| {
                let ea = env.get_primitive_array_critical(&a)?;
                let mem = env.native_mem();
                let step = (b.data_addr() as i64 - a.data_addr() as i64) / 4;
                let r = ea.read_i32(&mem, step as isize);
                env.release_primitive_array_critical(&a, ea, ReleaseMode::Abort)?;
                Ok(r.is_err())
            })
            .unwrap();
        if !detected_released {
            missed_released += 1;
        }
        vm.heap().sweep();
    }
    println!(
        "  OOB into a live tagged neighbour : missed {missed_live}/{trials} = {:.2}%",
        100.0 * missed_live as f64 / trials as f64
    );
    println!(
        "  OOB into released (zeroed) memory: missed {missed_released}/{trials} = {:.2}%",
        100.0 * missed_released as f64 / trials as f64
    );
    println!();
    report.row(vec![
        ("section", JsonValue::from("tag_conflict")),
        ("missed_live", JsonValue::from(missed_live)),
        ("missed_released", JsonValue::from(missed_released)),
        ("trials", JsonValue::from(trials)),
    ]);
}

/// 2. Red-zone size vs small-array acquire cost and detection reach.
fn red_zone_sweep(args: &Args, report: &mut BenchReport) {
    let iters: u32 = args.value("--rz-iters", 2000);
    println!("--- 2. guarded-copy red-zone sweep (int[4], {iters} get/release pairs) ---");
    println!("{:>10}  {:>12}  farthest detectable write (bytes past payload)", "zone (B)", "time");
    for rz in [16usize, 64, 256, 512, 2048] {
        let vm = Vm::builder()
            .protection(Arc::new(GuardedCopy::with_config(GuardedCopyConfig {
                red_zone_len: rz,
            })))
            .build();
        let thread = vm.attach_thread("rz");
        let env = vm.env(&thread);
        let a = env.new_int_array(4).unwrap();
        let start = Instant::now();
        for _ in 0..iters {
            let elems = env.get_primitive_array_critical(&a).unwrap();
            env.release_primitive_array_critical(&a, elems, ReleaseMode::Abort)
                .unwrap();
        }
        let elapsed = start.elapsed();
        println!("{:>10}  {:>10.1}µs  {}", rz, elapsed.as_secs_f64() * 1e6 / f64::from(iters) * 1.0, rz);
        report.row(vec![
            ("section", JsonValue::from("red_zone_sweep")),
            ("red_zone_len", JsonValue::from(rz)),
            ("per_pair_ns", JsonValue::from(elapsed.as_nanos() as u64 / u128::from(iters) as u64)),
            ("reach_bytes", JsonValue::from(rz)),
        ]);
    }
    println!("(MTE4JNI detects at ANY distance; guarded copy only within the zone)");
    println!();
}

/// 3. Internal fragmentation of 16-byte alignment over a realistic object
///    size distribution (§4.1: "generally negligible given that Java
///    objects are relatively large").
fn alignment_fragmentation(report: &mut BenchReport) {
    println!("--- 3. alignment fragmentation (10k objects, mixed sizes) ---");
    // Size distribution loosely shaped like small-app heaps: many small
    // strings/boxes, fewer large arrays.
    let sizes: Vec<usize> = (0..10_000)
        .map(|i| match i % 10 {
            0..=4 => 16 + (i * 7) % 48,      // small objects
            5..=7 => 64 + (i * 13) % 192,    // medium
            8 => 512 + (i * 29) % 1024,      // large-ish
            _ => 4096 + (i * 31) % 4096,     // big arrays
        })
        .collect();
    for align in [8usize, 16] {
        let alloc = BlockAllocator::new(0x1000_0000, 256 << 20, align);
        for &s in &sizes {
            alloc.alloc(s).expect("arena large enough");
        }
        let used = alloc.bytes_in_use();
        let frag = alloc.fragmentation_bytes();
        println!(
            "align {align:>2}: {used:>10} bytes held, {frag:>7} wasted ({:.3}%)",
            100.0 * frag as f64 / used as f64
        );
        report.row(vec![
            ("section", JsonValue::from("alignment")),
            ("align", JsonValue::from(align)),
            ("bytes_in_use", JsonValue::from(used)),
            ("fragmentation_bytes", JsonValue::from(frag)),
        ]);
    }
    println!();
}

/// 4. Uncontended tag-table cost across k (see fig6 --sweep-tables for
///    more).
fn table_count_cost(args: &Args, report: &mut BenchReport) {
    let iters: u32 = args.value("--table-iters", 100_000);
    println!("--- 4. tag table acquire+release cost vs k (uncontended, {iters} pairs) ---");
    let mem = TaggedMemory::new(MemoryConfig::default());
    mem.mprotect_mte(mem.base(), 1 << 20, true).unwrap();
    let thread = MteThread::with_seed("ablation", 5);
    let begin = TaggedPtr::from_addr(mem.base());
    let end = begin.addr() + 1024;
    for k in [1usize, 4, 16, 64] {
        let table = TwoTierTable::new(k);
        let start = Instant::now();
        for _ in 0..iters {
            table.acquire(&mem, &thread, begin, end).unwrap();
            table.release(&mem, begin, end).unwrap();
        }
        let per_pair = start.elapsed().as_secs_f64() / f64::from(iters) * 1e9;
        println!("k = {k:>3}: {per_pair:>7.1} ns per acquire+release pair");
        report.row(vec![
            ("section", JsonValue::from("table_count")),
            ("k", JsonValue::from(k)),
            ("per_pair_ns", JsonValue::from(per_pair)),
        ]);
    }
    println!();
}
