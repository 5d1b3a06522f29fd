//! CheckJNI usage-validation integration tests (paper §6.3: CheckJNI
//! "identifies common errors such as … incorrect pointers, improper JNI
//! calls").

use std::sync::Arc;

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
    assert!(kinds.contains(&jni_rt::InterfaceKind::ArrayElements));
    assert!(kinds.contains(&jni_rt::InterfaceKind::StringChars));
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
    assert!(env.outstanding_acquisitions().is_empty(), "ledger disabled");
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
    assert!(err.as_abort().is_some(), "wrong source string caught");
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
