//! End-to-end scenarios spanning all crates: workload equivalence across
//! schemes, string pipelines, release-mode semantics, and the full VM
//! lifecycle with GC.

use std::time::Duration;

use mte4jni_repro::prelude::*;
use mte4jni_repro::workloads::{all_workloads, run_single_core};

#[test]
fn all_sixteen_workloads_agree_across_all_six_schemes() {
    let baseline: Vec<u64> = {
        let vm = Scheme::NoProtection.build_vm();
        all_workloads()
            .iter()
            .map(|w| run_single_core(&vm, w, 99, 1).unwrap())
            .collect()
    };
    for scheme in Scheme::ALL.iter().skip(1) {
        let vm = scheme.build_vm();
        for (w, &expect) in all_workloads().iter().zip(&baseline) {
            let got = run_single_core(&vm, w, 99, 1).unwrap();
            assert_eq!(got, expect, "{} under {scheme}", w.name);
        }
    }
}

#[test]
fn string_pipeline_under_mte() {
    // NewString → GetStringUTFChars → native parse → ReleaseStringUTFChars
    // → GetStringCritical → native scan → ReleaseStringCritical, with GC.
    let vm = Scheme::Mte4JniSync.build_vm();
    let gc = vm.start_gc(Duration::from_micros(200));
    let thread = vm.attach_thread("strings");
    let env = vm.env(&thread);

    let text = "tagged memory: 16-byte granules, 4-bit tags — 日本語 😀";
    let s = env.new_string(text).unwrap();
    assert_eq!(env.get_string_length(&s), text.encode_utf16().count());

    let (bytes, chars) = env
        .call_native("string_pipeline", NativeKind::Normal, |env| {
            let utf = env.get_string_utf_chars(&s)?;
            let mem = env.native_mem();
            let bytes = utf.read_c_string(&mem)?;
            env.release_string_utf_chars(&s, utf)?;

            let crit = env.get_string_critical(&s)?;
            let mut units = Vec::with_capacity(crit.len());
            for i in 0..crit.len() as isize {
                units.push(crit.read_u16(&mem, i)?);
            }
            env.release_string_critical(&s, crit)?;
            Ok((bytes, units))
        })
        .unwrap();

    let decoded = art_heap::decode_modified_utf8(&bytes).unwrap();
    assert_eq!(String::from_utf16(&decoded).unwrap(), text);
    assert_eq!(String::from_utf16(&chars).unwrap(), text);

    // The UTF transcoding buffer must be collected once released.
    let before = vm.heap().stats().allocated_total;
    while vm.heap().live_count() > 1 {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(before >= 2, "string object + hidden UTF buffer were allocated");
    let report = gc.stop();
    assert!(report.faults.is_empty());
}

#[test]
fn elements_release_modes_behave_per_jni_spec() {
    for scheme in [Scheme::GuardedCopy, Scheme::Mte4JniSync] {
        let vm = scheme.build_vm();
        let thread = vm.attach_thread("modes");
        let env = vm.env(&thread);
        let a = env.new_int_array_from(&[10, 20]).unwrap();
        // JNI_COMMIT: data becomes visible, borrow stays open.
        let ptr = env
            .call_native("modes_commit", NativeKind::Normal, |env| {
                let elems = env.get_int_array_elements(&a)?;
                let mem = env.native_mem();
                elems.write_i32(&mem, 0, 11)?;
                let ptr = elems.ptr();
                env.release_int_array_elements(&a, elems, ReleaseMode::Commit)?;
                Ok(ptr)
            })
            .unwrap();
        // Managed code (TCO set) observes the committed value mid-borrow.
        assert_eq!(vm.heap().int_at(&thread, &a, 0).unwrap(), 11, "{scheme}");
        // Final release with mode 0 through the stashed raw pointer.
        env.call_native("modes_final", NativeKind::Normal, |env| {
            let elems = jni_rt::NativeArray::new(ptr, 2, PrimitiveType::Int, false);
            let mem = env.native_mem();
            elems.write_i32(&mem, 1, 22)?;
            env.release_int_array_elements(&a, elems, ReleaseMode::CopyBack)
        })
        .unwrap();
        let t2 = vm.attach_thread("check");
        assert_eq!(vm.heap().int_array_as_vec(&t2, &a).unwrap(), vec![11, 22], "{scheme}");
    }
}

#[test]
fn fast_native_methods_are_protected_too() {
    // §4.3: @FastNative skips the state transition but still gets the TCO
    // flip, so checking works.
    let vm = Scheme::Mte4JniSync.build_vm();
    let thread = vm.attach_thread("fast");
    let env = vm.env(&thread);
    let a = env.new_int_array(8).unwrap();
    let err = env
        .call_native("fast_oob", NativeKind::FastNative, |env| {
            let elems = env.get_primitive_array_critical(&a)?;
            let mem = env.native_mem();
            elems.write_i32(&mem, 64, 1)?;
            env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
        })
        .unwrap_err();
    assert!(err.as_tag_check().is_some());
}

#[test]
fn nested_native_calls_restore_checking_state() {
    let vm = Scheme::Mte4JniSync.build_vm();
    let thread = vm.attach_thread("nest");
    let env = vm.env(&thread);
    env.call_native("outer", NativeKind::Normal, |env| {
        assert!(env.thread().mte().checks_enabled());
        env.call_native("inner_critical", NativeKind::CriticalNative, |env| {
            // @CriticalNative trampolines do not touch TCO: the state is
            // whatever the outer frame set.
            assert!(env.thread().mte().checks_enabled());
            Ok(())
        })?;
        assert!(env.thread().mte().checks_enabled());
        Ok(())
    })
    .unwrap();
    assert!(!thread.mte().checks_enabled(), "restored on return to managed");
}

#[test]
fn heap_exhaustion_surfaces_cleanly_through_jni() {
    let vm = Scheme::Mte4JniSync.build_vm();
    let thread = vm.attach_thread("oom");
    let env = vm.env(&thread);
    // The default heap region is 48 MiB; ask for more.
    let result = env.new_int_array(100 << 20);
    assert!(matches!(
        result,
        Err(JniError::Heap(art_heap::HeapError::OutOfMemory { .. }))
    ));
}

#[test]
fn guarded_copy_reports_have_payload_offsets_mte_reports_have_addresses() {
    // The report-quality comparison of Figure 4, as assertions.
    let offense = |scheme: Scheme| {
        let vm = scheme.build_vm();
        let thread = vm.attach_thread("rq");
        let env = vm.env(&thread);
        let a = env.new_int_array(18).unwrap();
        env.call_native("test_ofb", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&a)?;
            let mem = env.native_mem();
            elems.write_i32(&mem, 21, 1)?;
            env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
        })
        .unwrap_err()
    };

    let gc_err = offense(Scheme::GuardedCopy);
    let report = gc_err.as_abort().expect("abort report");
    assert_eq!(report.corruption_offset, Some(84), "byte offset of int index 21");
    assert!(report.backtrace.top().unwrap().label.contains("abort"));

    let mte_err = offense(Scheme::Mte4JniSync);
    let fault = mte_err.as_tag_check().expect("tag fault");
    assert_eq!(fault.pointer_tag, fault.pointer.tag());
    assert_ne!(fault.pointer_tag, fault.memory_tag);
    assert!(fault.is_precise());
    assert_eq!(&*fault.backtrace.top().unwrap().label, "test_ofb");
}

#[test]
fn full_vm_lifecycle_with_churn_and_gc() {
    let vm = Scheme::Mte4JniAsync.build_vm();
    let gc = vm.start_gc(Duration::from_micros(100));
    let thread = vm.attach_thread("churn");
    let env = vm.env(&thread);
    for round in 0..100 {
        let a = env.new_int_array_from(&vec![round; 128]).unwrap();
        let sum = env
            .call_native("churn", NativeKind::Normal, |env| {
                let elems = env.get_primitive_array_critical(&a)?;
                let mem = env.native_mem();
                let mut sum = 0i64;
                for i in 0..128 {
                    sum += i64::from(elems.read_i32(&mem, i)?);
                }
                env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)?;
                Ok(sum)
            })
            .unwrap();
        assert_eq!(sum, i64::from(round) * 128);
        // `a` drops here: becomes garbage for the scanner.
    }
    let target = gc.cycles() + 2;
    while gc.cycles() < target {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(vm.heap().live_count(), 0, "all churned arrays collected");
    let report = gc.stop();
    assert!(report.faults.is_empty());
}
