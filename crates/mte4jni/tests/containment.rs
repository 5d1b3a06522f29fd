//! Fault containment, quarantine, and graceful degradation on the full
//! MTE4JNI stack: contained sync/async faults keep the VM alive with
//! balanced tables/pins/tags, repeated faults quarantine the offending
//! native method onto the guarded-copy fallback, `irg` tag-pool
//! exhaustion degrades a single acquire, and transient injected faults
//! are retried with deterministic backoff.

use std::sync::Arc;

use art_heap::HeapConfig;
use guarded_copy::GuardedCopy;
use jni_rt::{ContainmentConfig, FaultPolicy, JniError, NativeKind, ReleaseMode, Vm};
use mte4jni::Mte4Jni;
use mte_sim::inject::{self, FaultPlan, InjectCounters};
use mte_sim::{FaultKind, Tag, TcfMode};
use telemetry::JniInterface;

struct TestVm {
    vm: Vm,
    scheme: Arc<Mte4Jni>,
    fallback: Arc<GuardedCopy>,
}

/// An MTE4JNI VM with a guarded-copy fallback and `FaultPolicy::Contain`.
fn contain_vm(mode: TcfMode, config: ContainmentConfig) -> TestVm {
    let scheme = Arc::new(Mte4Jni::new());
    let fallback = Arc::new(GuardedCopy::new());
    let vm = Vm::builder()
        .heap_config(HeapConfig::mte4jni())
        .check_mode(mode)
        .protection(scheme.clone())
        .fallback_protection(fallback.clone())
        .fault_policy(FaultPolicy::Contain)
        .containment_config(config)
        .build();
    TestVm {
        vm,
        scheme,
        fallback,
    }
}

/// A clean in-bounds native call used to prove the VM still serves
/// requests after a contained fault.
fn clean_call(env: &jni_rt::JniEnv<'_>) -> jni_rt::Result<i32> {
    let a = env.new_int_array_from(&[1, 2, 3, 4])?;
    env.call_native("native_ok", NativeKind::Normal, |env| {
        let elems = env.get_primitive_array_critical(&a)?;
        let mem = env.native_mem();
        let mut s = 0;
        for i in 0..4 {
            s += elems.read_i32(&mem, i)?;
        }
        env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)?;
        Ok(s)
    })
}

#[test]
fn contained_sync_fault_keeps_vm_alive_and_balanced() {
    let t = contain_vm(TcfMode::Sync, ContainmentConfig::default());
    let thread = t.vm.attach_thread("main");
    let env = t.vm.env(&thread);
    let a = env.new_int_array(16).unwrap();
    let err = env
        .call_native("native_scan", NativeKind::Normal, |env| -> jni_rt::Result<()> {
            let elems = env.get_primitive_array_critical(&a)?;
            let mem = env.native_mem();
            // Out of bounds on a 16-int array; the borrow is leaked on
            // purpose so containment has something to reclaim.
            elems.write_i32(&mem, 40, 0xBAD)?;
            unreachable!("sync faults surface at the store");
        })
        .unwrap_err();
    match &err {
        JniError::ContainedFault { method, fault } => {
            assert_eq!(*method, "native_scan");
            assert_eq!(fault.kind, FaultKind::Sync);
            let attribution = fault.attribution.as_ref().expect("fault is attributed");
            assert_eq!(attribution.interface, JniInterface::PrimitiveArrayCritical);
            assert_eq!(attribution.scheme, "mte4jni");
        }
        other => panic!("expected a contained fault, got {other:?}"),
    }
    // Nothing under a nested trampoline re-reports it as a raw fault.
    assert!(err.as_tag_check().is_none());

    // The leaked borrow was force-released, restoring the quiescent
    // state the pin counts, tag table, and tags all agree on.
    assert_eq!(t.scheme.stats().tracked_objects, 0);
    assert_eq!(t.vm.heap().pinned_count(), 0);
    assert_eq!(
        t.vm.heap().memory().raw_tag_at(a.data_addr()).unwrap(),
        Tag::UNTAGGED
    );

    let stats = t.vm.containment_stats();
    assert_eq!(stats.contained_faults, 1);
    let tombstones = t.vm.tombstones();
    assert_eq!(tombstones[0].method, "native_scan");
    assert_eq!(tombstones[0].released_borrows, 1);

    // The VM keeps serving the same thread.
    assert_eq!(clean_call(&env).unwrap(), 10);
}

#[test]
fn contained_async_fault_surfaces_at_method_end() {
    let t = contain_vm(TcfMode::Async, ContainmentConfig::default());
    let thread = t.vm.attach_thread("main");
    let env = t.vm.env(&thread);
    let a = env.new_int_array(16).unwrap();
    let err = env
        .call_native("native_churn", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&a)?;
            let mem = env.native_mem();
            elems.write_i32(&mem, 40, 0xBAD)?; // proceeds: async mode
            env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
        })
        .unwrap_err();
    match err {
        JniError::ContainedFault { method, fault } => {
            assert_eq!(method, "native_churn");
            assert_eq!(fault.kind, FaultKind::Async);
        }
        other => panic!("expected a contained fault, got {other:?}"),
    }
    // The body released its borrow itself; containment reclaimed none.
    assert_eq!(t.vm.tombstones()[0].released_borrows, 0);
    assert_eq!(t.scheme.stats().tracked_objects, 0);
    assert_eq!(clean_call(&env).unwrap(), 10);
}

#[test]
fn async_fault_surfaces_exactly_once() {
    // Abort policy: the raw fault reaches the caller, but only at the
    // first thread-state transition after the corrupting store — and
    // only once.
    let vm = mte4jni::mte4jni_vm(TcfMode::Async, mte4jni::TableConfig::default());
    let thread = vm.attach_thread("main");
    let env = vm.env(&thread);
    let a = env.new_int_array(16).unwrap();
    let err = env
        .call_native("poison", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&a)?;
            let mem = env.native_mem();
            elems.write_i32(&mem, 40, 0xBAD)?;
            env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
        })
        .unwrap_err();
    let fault = err.as_tag_check().expect("latched fault at method end");
    assert_eq!(fault.kind, FaultKind::Async);

    // The latch was consumed: the next call with an explicit syscall
    // checkpoint is clean.
    env.call_native("clean", NativeKind::Normal, |env| env.log("checkpoint"))
        .unwrap();
}

#[test]
fn async_fault_does_not_leak_into_unrelated_thread() {
    let vm = mte4jni::mte4jni_vm(TcfMode::Async, mte4jni::TableConfig::default());
    let ta = vm.attach_thread("victim");
    let tb = vm.attach_thread("bystander");
    let env_a = vm.env(&ta);
    let env_b = vm.env(&tb);
    let a = env_a.new_int_array(16).unwrap();
    let err = env_a
        .call_native("poison", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&a)?;
            let mem = env.native_mem();
            elems.write_i32(&mem, 40, 0xBAD)?; // latched on thread A only
            // Thread B hits a syscall checkpoint while A's fault is
            // latched; B's TFSR is clean, so nothing surfaces there.
            env_b
                .call_native("bystander", NativeKind::Normal, |envb| {
                    envb.log("checkpoint")
                })
                .expect("the latch is per-thread");
            env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
        })
        .unwrap_err();
    // A's own method-end transition still surfaces A's fault.
    let fault = err.as_tag_check().expect("victim sees its own fault");
    assert_eq!(fault.kind, FaultKind::Async);
    assert_eq!(&*fault.thread, "victim");
}

#[test]
fn repeated_faults_quarantine_the_method_onto_guarded_copy() {
    let t = contain_vm(
        TcfMode::Sync,
        ContainmentConfig {
            quarantine_threshold: 2,
            ..ContainmentConfig::default()
        },
    );
    let thread = t.vm.attach_thread("main");
    let env = t.vm.env(&thread);

    for _ in 0..2 {
        let a = env.new_int_array(16).unwrap();
        let err = env
            .call_native("native_bad", NativeKind::Normal, |env| -> jni_rt::Result<()> {
                let elems = env.get_primitive_array_critical(&a)?;
                let mem = env.native_mem();
                elems.write_i32(&mem, 40, 0xBAD)?;
                unreachable!();
            })
            .unwrap_err();
        assert!(matches!(err, JniError::ContainedFault { .. }));
    }
    assert!(t.vm.containment().is_quarantined("native_bad"));
    assert_eq!(t.vm.containment().quarantined_methods(), vec!["native_bad"]);

    // The quarantined method now degrades to guarded copy: acquires
    // return a shadow copy, and the same out-of-bounds index lands in
    // the red zone instead of faulting the process.
    let a = env.new_int_array_from(&[5; 16]).unwrap();
    let sum = env
        .call_native("native_bad", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&a)?;
            assert!(elems.is_copy(), "quarantined method gets a guarded copy");
            let mem = env.native_mem();
            let mut s = 0;
            for i in 0..16 {
                s += elems.read_i32(&mem, i)?;
            }
            env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)?;
            Ok(s)
        })
        .unwrap();
    assert_eq!(sum, 80);
    assert_eq!(t.fallback.tracked_shadows(), 0);

    // Other methods are untouched by the quarantine.
    let b = env.new_int_array(4).unwrap();
    env.call_native("native_good", NativeKind::Normal, |env| {
        let elems = env.get_primitive_array_critical(&b)?;
        assert!(!elems.is_copy(), "non-quarantined methods stay on MTE4JNI");
        env.release_primitive_array_critical(&b, elems, ReleaseMode::CopyBack)
    })
    .unwrap();

    let stats = t.vm.containment_stats();
    assert_eq!(stats.contained_faults, 2);
    assert_eq!(stats.quarantined_methods, 1);
    assert_eq!(stats.degraded_quarantine, 1);
}

#[test]
fn tag_pool_exhaustion_degrades_a_single_acquire() {
    let t = contain_vm(TcfMode::Sync, ContainmentConfig::default());
    let thread = t.vm.attach_thread("main");
    let env = t.vm.env(&thread);
    let a = env.new_int_array_from(&[9; 8]).unwrap();

    // Exhaust the tag pool deterministically: every irg draw returns
    // the excluded zero tag.
    inject::install(
        FaultPlan {
            irg_exhaust_ppm: 1_000_000,
            ..FaultPlan::default()
        },
        0xE4A,
        Arc::new(InjectCounters::default()),
    );
    let sum = env
        .call_native("native_scan", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&a)?;
            assert!(elems.is_copy(), "exhausted acquire degraded to guarded copy");
            let mem = env.native_mem();
            let mut s = 0;
            for i in 0..8 {
                s += elems.read_i32(&mem, i)?;
            }
            env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)?;
            Ok(s)
        })
        .unwrap();
    inject::clear();
    assert_eq!(sum, 72);
    assert_eq!(t.fallback.tracked_shadows(), 0);
    assert_eq!(t.vm.containment_stats().degraded_tag_exhaustion, 1);

    // With the pool healthy again the very next acquire is back on
    // MTE4JNI — degradation was per-acquire, not sticky.
    env.call_native("native_scan", NativeKind::Normal, |env| {
        let elems = env.get_primitive_array_critical(&a)?;
        assert!(!elems.is_copy(), "healthy pool goes back to MTE4JNI");
        env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
    })
    .unwrap();
    assert_eq!(t.vm.containment_stats().degraded_tag_exhaustion, 1);
}

#[test]
fn transient_faults_are_retried_then_surfaced_with_balanced_state() {
    let t = contain_vm(TcfMode::Sync, ContainmentConfig::default());
    let retries = u64::from(t.vm.containment().config().transient_retries);
    let thread = t.vm.attach_thread("main");
    let env = t.vm.env(&thread);
    let a = env.new_int_array(8).unwrap();

    // Every tag store fails with a transient injected fault, so the
    // acquire exhausts its retry budget and surfaces the error.
    inject::install(
        FaultPlan {
            stg_fail_ppm: 1_000_000,
            ..FaultPlan::default()
        },
        0x7E57,
        Arc::new(InjectCounters::default()),
    );
    let err = env
        .call_native("native_scan", NativeKind::Normal, |env| -> jni_rt::Result<()> {
            let elems = env.get_primitive_array_critical(&a)?;
            let mem = env.native_mem();
            let _ = elems.read_i32(&mem, 0)?;
            unreachable!("the acquire never succeeds");
        })
        .unwrap_err();
    inject::clear();
    assert!(err.is_transient(), "surfaced error keeps its class: {err:?}");
    assert_eq!(t.vm.containment_stats().transient_retries, retries);

    // The failed acquire rolled everything back.
    assert_eq!(t.scheme.stats().tracked_objects, 0);
    assert_eq!(t.vm.heap().pinned_count(), 0);
    assert_eq!(clean_call(&env).unwrap(), 10);
}
