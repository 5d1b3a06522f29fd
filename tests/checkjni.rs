//! CheckJNI usage-validation integration tests (paper §6.3: CheckJNI
//! "identifies common errors such as … incorrect pointers, improper JNI
//! calls").

use std::sync::Arc;

use mte4jni_repro::mte_sim::inject::{self, FaultPlan, InjectCounters};
use mte4jni_repro::mte_sim::MemError;
use mte4jni_repro::prelude::*;

fn check_vm() -> Vm {
    Vm::builder()
        .heap_config(HeapConfig::mte4jni())
        .check_mode(TcfMode::Sync)
        .check_jni(true)
        .protection(Arc::new(Mte4Jni::new()))
        .build()
}

#[test]
fn mismatched_release_interface_is_an_abort() {
    let vm = check_vm();
    let thread = vm.attach_thread("main");
    let env = vm.env(&thread);
    let s = env.new_string("hello").unwrap();
    let chars = env.get_string_chars(&s).unwrap();
    // Bug: releasing GetStringChars data through ReleaseStringCritical.
    let err = env.release_string_critical(&s, chars).unwrap_err();
    let report = err.as_abort().expect("check-jni abort");
    assert!(report.message.contains("GetStringChars"), "{}", report.message);
    assert!(report.message.contains("ReleaseStringCritical"), "{}", report.message);
    // The borrow survives the rejected release, like ART (which aborts).
    let outstanding = env.outstanding_acquisitions();
    assert_eq!(outstanding.len(), 1);
    assert_eq!(outstanding[0].interface, jni_rt::JniInterface::StringChars);
}

#[test]
fn elements_released_as_critical_is_caught() {
    let vm = check_vm();
    let thread = vm.attach_thread("main");
    let env = vm.env(&thread);
    let a = env.new_int_array(4).unwrap();
    let elems = env.get_int_array_elements(&a).unwrap();
    let err = env
        .release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
        .unwrap_err();
    assert!(err.as_abort().is_some());
}

#[test]
fn leaked_acquisitions_are_reported() {
    let vm = check_vm();
    let thread = vm.attach_thread("main");
    let env = vm.env(&thread);
    let a = env.new_int_array(4).unwrap();
    let s = env.new_string("leak").unwrap();
    let _elems = env.get_int_array_elements(&a).unwrap(); // never released
    let _chars = env.get_string_chars(&s).unwrap(); // never released
    let outstanding = env.outstanding_acquisitions();
    assert_eq!(outstanding.len(), 2);
    let kinds: Vec<_> = outstanding.iter().map(|o| o.interface).collect();
    assert!(kinds.contains(&jni_rt::JniInterface::ArrayElements));
    assert!(kinds.contains(&jni_rt::JniInterface::StringChars));
}

#[test]
fn clean_sessions_leave_no_outstanding_entries() {
    let vm = check_vm();
    let thread = vm.attach_thread("main");
    let env = vm.env(&thread);
    let a = env.new_int_array(4).unwrap();
    env.call_native("clean", NativeKind::Normal, |env| {
        let elems = env.get_primitive_array_critical(&a)?;
        env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
    })
    .unwrap();
    assert!(env.outstanding_acquisitions().is_empty());
}

#[test]
fn commit_release_keeps_the_ledger_entry() {
    let vm = check_vm();
    let thread = vm.attach_thread("main");
    let env = vm.env(&thread);
    let a = env.new_int_array(4).unwrap();
    let elems = env.get_int_array_elements(&a).unwrap();
    let ptr = elems.ptr();
    env.release_int_array_elements(&a, elems, ReleaseMode::Commit).unwrap();
    assert_eq!(env.outstanding_acquisitions().len(), 1, "JNI_COMMIT keeps the borrow");
    let elems = jni_rt::NativeArray::new(ptr, 4, PrimitiveType::Int, false);
    env.release_int_array_elements(&a, elems, ReleaseMode::CopyBack).unwrap();
    assert!(env.outstanding_acquisitions().is_empty());
    // A pointer with no live borrow is left to the scheme: MTE4JNI finds
    // no table entry and does nothing (Algorithm 2's early-out).
    let elems = jni_rt::NativeArray::new(ptr, 4, PrimitiveType::Int, false);
    env.release_int_array_elements(&a, elems, ReleaseMode::Abort).unwrap();
    assert!(env.outstanding_acquisitions().is_empty());
}

#[test]
fn failed_release_stays_outstanding_until_retried() {
    let vm = check_vm();
    let thread = vm.attach_thread("main");
    let env = vm.env(&thread);
    let a = env.new_int_array(4).unwrap();
    let elems = env.get_int_array_elements(&a).unwrap();
    let ptr = elems.ptr();
    // Every tag store fails, so the final release cannot zero the tags
    // and the borrow must stay live.
    inject::install(
        FaultPlan { stg_fail_ppm: 1_000_000, ..FaultPlan::default() },
        1,
        Arc::new(InjectCounters::default()),
    );
    let result = env.release_int_array_elements(&a, elems, ReleaseMode::Abort);
    inject::clear();
    assert!(
        matches!(result, Err(JniError::Mem(MemError::Injected { .. }))),
        "{result:?}"
    );
    assert!(vm.heap().is_pinned(&a.as_object()), "the pointer is still handed out");
    let outstanding = env.outstanding_acquisitions();
    assert_eq!(outstanding.len(), 1);
    assert_eq!(outstanding[0].pointer, ptr.raw());
    assert_eq!(outstanding[0].object, a.addr());
    // With injection cleared, the retried release ends the borrow.
    let elems = jni_rt::NativeArray::new(ptr, 4, PrimitiveType::Int, false);
    env.release_int_array_elements(&a, elems, ReleaseMode::Abort).unwrap();
    assert!(env.outstanding_acquisitions().is_empty());
    assert!(!vm.heap().is_pinned(&a.as_object()));
}

#[test]
fn validation_is_off_by_default() {
    // Without check_jni, a mismatched release goes straight to the
    // scheme; MTE4JNI treats it as a plain release of the same object.
    let vm = mte4jni::mte4jni_vm(TcfMode::Sync, TableConfig::default());
    let thread = vm.attach_thread("main");
    let env = vm.env(&thread);
    let s = env.new_string("hello").unwrap();
    let chars = env.get_string_chars(&s).unwrap();
    assert!(env.release_string_critical(&s, chars).is_ok());
    let _leak = env.get_string_chars(&s).unwrap();
    assert!(env.outstanding_acquisitions().is_empty(), "CheckJNI disabled");
    let a = env.new_int_array(4).unwrap();
    env.call_native("drop", NativeKind::Normal, |env| {
        let _guard = env.critical(&a)?;
        Ok(())
    })
    .unwrap();
    assert!(env.guard_drops().is_empty(), "guard drops go unrecorded");
}

/// Regression: without CheckJNI, a release whose pointer this
/// environment no longer has on record still reaches the scheme, and
/// `NoProtection` accepts it. It used to unpin the object by address,
/// dropping another thread's pin, so compaction moved an object whose
/// raw pointer was still handed out.
#[test]
fn an_unmatched_release_leaves_another_borrows_pin_in_place() {
    let vm = Vm::builder().build();
    let (ta, tb) = (vm.attach_thread("a"), vm.attach_thread("b"));
    let (env_a, env_b) = (vm.env(&ta), vm.env(&tb));
    let garbage = env_a.new_int_array(16).unwrap();
    let a = env_a.new_int_array_from(&[7; 16]).unwrap();
    let addr = a.addr();
    let held = env_a.get_int_array_elements(&a).unwrap();
    let elems = env_b.get_int_array_elements(&a).unwrap();
    let ptr = elems.ptr();
    env_b.release_int_array_elements(&a, elems, ReleaseMode::Abort).unwrap();
    let again = jni_rt::NativeArray::new(ptr, 16, PrimitiveType::Int, false);
    env_b
        .release_int_array_elements(&a, again, ReleaseMode::Abort)
        .expect("no CheckJNI: the unmatched release reaches the scheme");
    drop(garbage);
    vm.heap().compact();
    assert_eq!(a.addr(), addr, "A's pointer is still handed out");
    assert_eq!(vm.heap().pinned_count(), 1, "A's pin survives B's extra release");
    env_a.release_int_array_elements(&a, held, ReleaseMode::Abort).unwrap();
    let schemes = workloads::VmSchemes { mte: None, guarded: None };
    let report = schemes.quiesce(&vm);
    assert!(report.is_empty(), "{report:?}");
}

#[test]
fn utf_chars_released_against_the_wrong_string_is_an_abort() {
    // Regression test: ReleaseStringUTFChars used to ignore the string
    // argument entirely, so cross-string releases slipped through.
    let vm = check_vm();
    let thread = vm.attach_thread("main");
    let env = vm.env(&thread);
    let s1 = env.new_string("first").unwrap();
    let s2 = env.new_string("second").unwrap();
    let utf = env.get_string_utf_chars(&s1).unwrap();
    let err = env.release_string_utf_chars(&s2, utf).unwrap_err();
    let report = err.as_abort().expect("wrong source string caught");
    let from = format!("from object {:#x}", s1.addr());
    let against = format!("against object {:#x}", s2.addr());
    assert!(report.message.contains(&from), "{}", report.message);
    assert!(report.message.contains(&against), "{}", report.message);
    // The rejected release does not clear the borrow: the ledger still
    // reports the original acquisition from s1 as outstanding.
    let outstanding = env.outstanding_acquisitions();
    assert_eq!(outstanding.len(), 1);
    assert_eq!(outstanding[0].interface, jni_rt::JniInterface::StringUtfChars);
    assert_eq!(outstanding[0].object, s1.addr());
    // A fresh borrow released against the right string works and clears.
    let utf = env.get_string_utf_chars(&s1).unwrap();
    env.release_string_utf_chars(&s1, utf).unwrap();
    assert_eq!(env.outstanding_acquisitions().len(), 1, "only the poisoned entry remains");
}

#[test]
fn guard_dropped_without_commit_is_released_and_recorded() {
    let vm = check_vm();
    let thread = vm.attach_thread("main");
    let env = vm.env(&thread);
    let a = env.new_int_array(4).unwrap();
    env.call_native("drop", NativeKind::Normal, |env| {
        let _guard = env.critical(&a)?;
        Ok(()) // dropped without commit(): auto-released, but noted
    })
    .unwrap();
    let drops = env.guard_drops();
    assert_eq!(drops.len(), 1, "the implicit drop was recorded");
    assert_eq!(drops[0].interface, jni_rt::JniInterface::PrimitiveArrayCritical);
    assert!(
        env.outstanding_acquisitions().is_empty(),
        "the drop still released the underlying borrow"
    );
    assert_eq!(env.critical_depth(), 0, "critical section closed");
}

#[test]
fn committed_guards_leave_no_drop_record() {
    let vm = check_vm();
    let thread = vm.attach_thread("main");
    let env = vm.env(&thread);
    let a = env.new_int_array_from(&[5, 6]).unwrap();
    env.call_native("commit", NativeKind::Normal, |env| {
        let guard = env.critical(&a)?;
        let mem = guard.mem();
        guard.array().write_i32(&mem, 0, 50)?;
        guard.commit(ReleaseMode::CopyBack)?;
        Ok(())
    })
    .unwrap();
    assert!(env.guard_drops().is_empty(), "explicit commit is clean");
    assert!(env.outstanding_acquisitions().is_empty());
}
