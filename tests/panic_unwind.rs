//! Unwind safety of the native trampoline: a panic inside `call_native`
//! with a live `CriticalGuard` must release the borrow exactly once,
//! restore the thread's TCO/managed state, and leave the CheckJNI ledger
//! with no outstanding acquisitions and no double-release.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use art_heap::{HeapConfig, ThreadState};
use jni_rt::{NativeKind, ReleaseMode, Vm};
use mte4jni::Mte4Jni;

fn vm_with_scheme() -> (Vm, Arc<Mte4Jni>) {
    let scheme = Arc::new(Mte4Jni::new());
    let vm = Vm::builder()
        .heap_config(HeapConfig::mte4jni())
        .protection(Arc::clone(&scheme) as Arc<dyn jni_rt::Protection>)
        .check_jni(true)
        .build();
    (vm, scheme)
}

#[test]
fn panic_with_live_critical_guard_unwinds_cleanly() {
    let (vm, scheme) = vm_with_scheme();
    let thread = vm.attach_thread("panicky");
    let env = vm.env(&thread);
    let a = env.new_int_array_from(&[10, 20, 30]).unwrap();

    let unwound = catch_unwind(AssertUnwindSafe(|| {
        env.call_native("panics_while_critical", NativeKind::Normal, |env| -> jni_rt::Result<()> {
            let guard = env.critical(&a)?;
            assert_eq!(env.critical_depth(), 1);
            let _ = guard.ptr();
            panic!("native code died mid-critical-section");
        })
    }));
    assert!(unwound.is_err(), "the panic must propagate");

    // The borrow was released exactly once, by the guard's drop.
    assert_eq!(env.critical_depth(), 0, "critical depth must unwind to zero");
    let drops = env.guard_drops();
    assert_eq!(drops.len(), 1, "exactly one RAII release: {drops:?}");
    assert!(
        env.outstanding_acquisitions().is_empty(),
        "ledger must hold no outstanding pointers"
    );

    // The scheme saw a balanced acquire/release pair, and the release
    // dropped the tag.
    let stats = scheme.stats();
    assert_eq!(stats.acquires, 1);
    assert_eq!(stats.releases, 1, "no double-release, no leak");
    assert_eq!(stats.tag_frees, 1, "the tag was freed once");
    assert_eq!(stats.tracked_objects, 0);

    // The trampoline's drop guard restored the thread exactly as a
    // normal return would: TCO back on, state back to managed.
    assert!(thread.mte().tco(), "TCO must be restored after the unwind");
    assert_eq!(thread.state(), ThreadState::Managed);
}

#[test]
fn env_is_reusable_after_an_unwound_native_call() {
    let (vm, scheme) = vm_with_scheme();
    let thread = vm.attach_thread("recovers");
    let env = vm.env(&thread);
    let a = env.new_int_array_from(&[1, 2, 3, 4]).unwrap();

    let _ = catch_unwind(AssertUnwindSafe(|| {
        env.call_native("dies", NativeKind::Normal, |env| -> jni_rt::Result<()> {
            let _guard = env.critical(&a)?;
            panic!("boom");
        })
    }));

    // A subsequent, well-behaved native call on the same env works and
    // balances the books: nothing from the unwound call leaks into it.
    let sum = env
        .call_native("sums", NativeKind::Normal, |env| {
            let guard = env.critical(&a)?;
            let mem = guard.mem();
            let mut sum = 0i64;
            for i in 0..4 {
                sum += i64::from(guard.array().read_i32(&mem, i)?);
            }
            guard.abort()?;
            Ok(sum)
        })
        .unwrap();
    assert_eq!(sum, 10);

    let stats = scheme.stats();
    assert_eq!(stats.acquires, 2);
    assert_eq!(stats.releases, 2);
    assert_eq!(stats.tracked_objects, 0);
    assert_eq!(env.guard_drops().len(), 1, "only the panicking call leaked");
    assert!(env.outstanding_acquisitions().is_empty());
}

#[test]
fn explicit_release_before_panic_is_not_double_released() {
    let (vm, scheme) = vm_with_scheme();
    let thread = vm.attach_thread("releases-then-dies");
    let env = vm.env(&thread);
    let a = env.new_int_array_from(&[7; 8]).unwrap();

    let unwound = catch_unwind(AssertUnwindSafe(|| {
        env.call_native("releases_then_panics", NativeKind::Normal, |env| -> jni_rt::Result<()> {
            let guard = env.critical(&a)?;
            guard.commit(ReleaseMode::Abort)?;
            panic!("after a clean release");
        })
    }));
    assert!(unwound.is_err());

    // The guard was consumed before the panic: the drop path must not
    // fire a second release.
    assert_eq!(env.guard_drops().len(), 0, "no RAII release should occur");
    assert!(env.outstanding_acquisitions().is_empty());
    let stats = scheme.stats();
    assert_eq!(stats.acquires, 1);
    assert_eq!(stats.releases, 1, "exactly one release despite the panic");
    assert_eq!(stats.tracked_objects, 0);
    assert!(thread.mte().tco());
    assert_eq!(thread.state(), ThreadState::Managed);
}
