//! Regenerates the **§5.2 effectiveness evaluation** (Figures 3 and 4)
//! and the supporting demonstrations:
//!
//! 1. the out-of-bounds write test (18-int array, write at index 21)
//!    under all four schemes, printing each scheme's report style —
//!    Figure 4a (guarded copy, abort at release), 4b (MTE sync, precise),
//!    4c (MTE async, deferred to the next syscall);
//! 2. an out-of-bounds *read* (undetectable by guarded copy, §2.3);
//! 3. a far write that skips the red zones (missed by guarded copy);
//! 4. the §3.3 GC-concurrency hazard and MTE4JNI's thread-level fix;
//! 5. the §4.1 8-byte-alignment granule-sharing hazard;
//! 6. the stale-tag ablation motivating timely tag release.
//!
//! `--list-interfaces` prints the Table 1 interface inventory.

use std::sync::Arc;

use art_heap::HeapConfig;
use bench::{json_output, print_environment, Args, BenchReport};
use guarded_copy::{GuardedCopy, GuardedCopyConfig};
use jni_rt::{JniError, NativeKind, ReleaseMode, Vm};
use mte4jni::{Mte4Jni, TableConfig};
use mte_sim::TcfMode;
use telemetry::json::JsonValue;
use workloads::Scheme;

fn main() {
    let args = Args::parse();
    let json_path = json_output(&args);
    let mut report = BenchReport::new("effectiveness");
    print_environment("Effectiveness of out-of-bounds checking (§5.2, Figures 3–4)");

    if args.flag("--list-interfaces") {
        print_table1();
        return;
    }

    oob_write_test(&mut report);
    oob_read_test(&mut report);
    red_zone_skip_test(&mut report);
    gc_concurrency_test(&mut report);
    alignment_hazard_test(&mut report);
    stale_tag_ablation(&mut report);

    if let Some(path) = json_path {
        bench::write_report(&report, &path);
    }
}

fn detection_row(report: &mut BenchReport, scenario: &str, scheme: &str, detected: bool, style: &str) {
    report.row(vec![
        ("scenario", JsonValue::from(scenario)),
        ("scheme", JsonValue::from(scheme)),
        ("detected", JsonValue::from(detected)),
        ("report_style", JsonValue::from(style)),
    ]);
}

/// Table 1: the JNI interfaces returning raw pointers to heap memory,
/// all implemented by `jni_rt::JniEnv`.
fn print_table1() {
    println!("Table 1 — JNI interfaces returning raw pointers to heap memory");
    println!("{:<32} {:<36} Pointers to", "Get interface", "Release interface");
    let rows = [
        ("GetStringCritical", "ReleaseStringCritical", "String"),
        ("GetPrimitiveArrayCritical", "ReleasePrimitiveArrayCritical", "Primitive array"),
        ("GetStringChars", "ReleaseStringChars", "String"),
        ("GetStringUTFChars", "ReleaseStringUTFChars", "UTF-encoded String"),
        ("Get<Type>ArrayElements", "Release<Type>ArrayElements", "Primitive array"),
        ("Get<Type>ArrayRegion", "Set<Type>ArrayRegion", "Portion of primitive array"),
    ];
    for (get, release, target) in rows {
        println!("{get:<32} {release:<36} {target}");
    }
    println!("<Type> ∈ {{Boolean, Byte, Char, Short, Int, Long, Float, Double}}");
}

/// The Figure 3 native method: 18-int array, write at index 21.
fn run_oob_write(vm: &Vm) -> Result<(), JniError> {
    let thread = vm.attach_thread("main");
    let env = vm.env(&thread);
    let array = env.new_int_array(18)?;
    env.call_native("test_ofb", NativeKind::Normal, |env| {
        let elems = env.get_primitive_array_critical(&array)?;
        let mem = env.native_mem();
        elems.write_i32(&mem, 21, 0x0BAD_F00D)?; // the illegal write
        env.log("native work done")?; // first syscall after the corruption
        env.release_primitive_array_critical(&array, elems, ReleaseMode::CopyBack)
    })
}

fn banner(title: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("==============================================================");
}

fn oob_write_test(report: &mut BenchReport) {
    banner("1. Out-of-bounds WRITE: int[18], write at index 21 (Figure 3)");
    for scheme in Scheme::MAIN {
        println!("--- scheme: {scheme} ---");
        let vm = scheme.build_vm();
        let result = run_oob_write(&vm);
        report.merge([vm.snapshot()]);
        match result {
            Ok(()) => {
                println!("NOT DETECTED: program terminated normally, heap silently corrupted\n");
                detection_row(report, "oob_write", &scheme.to_string(), false, "none");
            }
            Err(JniError::CheckJniAbort(abort)) => {
                println!("DETECTED at the RELEASE interface (Figure 4a style):");
                println!("{abort}");
                detection_row(report, "oob_write", &scheme.to_string(), true, "release_abort");
            }
            Err(e) => {
                if let Some(fault) = e.as_tag_check() {
                    println!(
                        "DETECTED by the MTE hardware ({}; {} report, Figure 4{}):",
                        fault.kind,
                        if fault.is_precise() { "precise" } else { "imprecise" },
                        if fault.is_precise() { 'b' } else { 'c' },
                    );
                    println!("{fault}");
                    detection_row(
                        report,
                        "oob_write",
                        &scheme.to_string(),
                        true,
                        if fault.is_precise() { "mte_precise" } else { "mte_imprecise" },
                    );
                } else {
                    println!("unexpected error: {e}\n");
                }
            }
        }
    }
}

fn oob_read_test(report: &mut BenchReport) {
    banner("2. Out-of-bounds READ (guarded copy limitation 1, §2.3)");
    for scheme in Scheme::MAIN {
        let vm = scheme.build_vm();
        let thread = vm.attach_thread("main");
        let env = vm.env(&thread);
        let array = env.new_int_array(18).unwrap();
        let result = env.call_native("oob_read", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&array)?;
            let mem = env.native_mem();
            let secret = elems.read_i32(&mem, 40)?; // reads a neighbour object
            env.log("leaked")?;
            env.release_primitive_array_critical(&array, elems, ReleaseMode::CopyBack)?;
            Ok(secret)
        });
        // Dropping the environment releases what a fault left borrowed;
        // the VM is measured after, so the report holds those releases.
        drop(env);
        report.merge([vm.snapshot()]);
        match result {
            Ok(_) => {
                println!("{scheme:<28} NOT DETECTED (information leak succeeds)");
                detection_row(report, "oob_read", &scheme.to_string(), false, "none");
            }
            Err(e) if e.as_tag_check().is_some() => {
                println!("{scheme:<28} DETECTED ({})", e.as_tag_check().unwrap().kind);
                detection_row(report, "oob_read", &scheme.to_string(), true, "mte");
            }
            Err(e) => println!("{scheme:<28} error: {e}"),
        }
    }
    println!();
}

fn red_zone_skip_test(report: &mut BenchReport) {
    banner("3. Far write that SKIPS the red zones (guarded copy limitation 2)");
    // Use a small red zone so the skip distance is printable.
    let schemes: Vec<(String, Vm)> = vec![
        (
            "Guarded_Copy (red zone 64 B)".into(),
            Vm::builder()
                .protection(Arc::new(GuardedCopy::with_config(GuardedCopyConfig {
                    red_zone_len: 64,
                })))
                .build(),
        ),
        ("MTE4JNI+Sync".into(), Scheme::Mte4JniSync.build_vm()),
    ];
    for (name, vm) in schemes {
        let thread = vm.attach_thread("main");
        let env = vm.env(&thread);
        let array = env.new_int_array(4).unwrap();
        let result = env.call_native("far_write", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&array)?;
            let mem = env.native_mem();
            // 4*4 B payload + 64 B rear zone = 80 B; index 64 writes at 256.
            elems.write_i32(&mem, 64, 0xDEAD)?;
            env.release_primitive_array_critical(&array, elems, ReleaseMode::CopyBack)
        });
        drop(env);
        report.merge([vm.snapshot()]);
        match result {
            Ok(()) => {
                println!("{name:<28} NOT DETECTED (write sailed past the red zone)");
                detection_row(report, "red_zone_skip", &name, false, "none");
            }
            Err(e) if e.as_tag_check().is_some() => {
                println!("{name:<28} DETECTED by tag check");
                detection_row(report, "red_zone_skip", &name, true, "mte");
            }
            Err(e) => {
                println!("{name:<28} detected: {e}");
                detection_row(report, "red_zone_skip", &name, true, "release_abort");
            }
        }
    }
    println!();
}

fn gc_concurrency_test(report: &mut BenchReport) {
    banner("4. Concurrent GC scans during tagged native access (§3.3)");
    let vm = Scheme::Mte4JniSync.build_vm();
    let thread = vm.attach_thread("main");
    let env = vm.env(&thread);
    let array = env.new_int_array(512).unwrap();
    let gc = vm.start_gc(std::time::Duration::from_micros(100));
    env.call_native("hold_tagged", NativeKind::Normal, |env| {
        let elems = env.get_primitive_array_critical(&array)?;
        let mem = env.native_mem();
        for _ in 0..5000 {
            let _ = elems.read_i32(&mem, 0)?;
        }
        env.release_primitive_array_critical(&array, elems, ReleaseMode::CopyBack)
    })
    .unwrap();
    let scans = gc.stop();
    report.merge([vm.snapshot()]);
    println!(
        "GC scanned the heap {} times while the object was tagged: {} faults",
        scans.cycles,
        scans.faults.len()
    );
    println!("(thread-level TCO control keeps runtime threads unchecked — 0 faults expected)");

    // The naive alternative: process-wide checking without TCO control.
    let naive_heap = art_heap::Heap::new(HeapConfig::mte4jni());
    let a = naive_heap.alloc_int_array(64).unwrap();
    naive_heap
        .memory()
        .set_tag_range(
            mte_sim::TaggedPtr::from_addr(a.data_addr()),
            a.data_addr() + a.byte_len() as u64,
            mte_sim::Tag::new(0xB).unwrap(),
        )
        .unwrap();
    let scanner = mte_sim::MteThread::new("HeapTaskDaemon");
    scanner.set_mode(TcfMode::Sync);
    scanner.set_tco(false); // naive: checking enabled on a runtime thread
    let outcome = naive_heap.scan_live(&scanner);
    println!(
        "naive process-wide enablement: the SAME scan faults {} time(s) on in-bounds reads\n",
        outcome.faults.len()
    );
}

fn alignment_hazard_test(report: &mut BenchReport) {
    banner("5. 8-byte alignment lets two objects share a granule (§4.1)");
    for (label, heap_config) in [
        ("stock 8-byte alignment + PROT_MTE", HeapConfig::misaligned_mte()),
        ("MTE4JNI 16-byte alignment", HeapConfig::mte4jni()),
    ] {
        let vm = Vm::builder()
            .heap_config(heap_config)
            .check_mode(TcfMode::Sync)
            .protection(Arc::new(Mte4Jni::new()))
            .build();
        let thread = vm.attach_thread("main");
        let env = vm.env(&thread);
        // Two adjacent small objects: 8-byte blocks share one granule.
        let victim = env.new_int_array(1).unwrap();
        let neighbour = env.new_int_array(1).unwrap();
        let gap = neighbour.addr().abs_diff(victim.addr());
        let result = env.call_native("granule_probe", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&victim)?;
            let mem = env.native_mem();
            // Walk from the victim into the NEIGHBOUR's object header —
            // under 8-byte alignment it shares the victim's tag granule.
            let step = (neighbour.addr() as i64 - victim.data_addr() as i64) / 4;
            let r = elems.read_i32(&mem, step as isize);
            env.release_primitive_array_critical(&victim, elems, ReleaseMode::CopyBack)?;
            r.map_err(Into::into)
        });
        report.merge([vm.snapshot()]);
        match result {
            Ok(_) => {
                println!("{label:<38} objects {gap} B apart: cross-object access NOT caught");
                detection_row(report, "alignment_hazard", label, false, "none");
            }
            Err(e) if e.as_tag_check().is_some() => {
                println!("{label:<38} objects {gap} B apart: cross-object access CAUGHT");
                detection_row(report, "alignment_hazard", label, true, "mte");
            }
            Err(e) => println!("{label:<38} error: {e}"),
        }
    }
    println!();
}

fn stale_tag_ablation(report: &mut BenchReport) {
    banner("6. Timely tag release matters (§3.2 motivation, ablation)");
    for (label, release_tags) in [("tags released at refcount 0", true), ("tags never released", false)] {
        let vm = Vm::builder()
            .heap_config(HeapConfig::mte4jni())
            .check_mode(TcfMode::Sync)
            .protection(Arc::new(Mte4Jni::with_config(TableConfig {
                release_tags,
                ..TableConfig::default()
            })))
            .build();
        let thread = vm.attach_thread("main");
        let env = vm.env(&thread);
        let array = env.new_int_array(8).unwrap();
        // Borrow and fully release the array once.
        env.call_native("warm", NativeKind::Normal, |env| {
            let e = env.get_primitive_array_critical(&array)?;
            env.release_primitive_array_critical(&array, e, ReleaseMode::CopyBack)
        })
        .unwrap();
        // A runtime-ish accessor with checking enabled but an untagged
        // pointer (e.g. a checked tool scanning after release).
        let result = env.call_native("after_release", NativeKind::Normal, |env| {
            let mem = env.native_mem();
            mem.read_u32(mte_sim::TaggedPtr::from_addr(array.data_addr()))
                .map_err(Into::into)
        });
        report.merge([vm.snapshot()]);
        match result {
            Ok(_) => {
                println!("{label:<32} post-release untagged access OK (no stale tags)");
                detection_row(report, "stale_tags", label, false, "clean");
            }
            Err(_) => {
                println!("{label:<32} post-release untagged access FAULTS (stale tag confusion)");
                detection_row(report, "stale_tags", label, true, "stale_fault");
            }
        }
    }
}
