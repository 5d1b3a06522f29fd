//! The quiescence oracle has teeth: on every backend a clean VM reports
//! nothing, and each planted defect — a stale table entry, a broken
//! funnel law, an unbalanced pin, leaked native bytes, a leaked
//! guarded-copy shadow — is named in the report.

use jni_rt::{NativeKind, Vm};
use mte_sim::{MemoryConfig, TaggedPtr};
use workloads::{Backend, VmSchemes};

const MEMORY: MemoryConfig = MemoryConfig {
    base: 0x7a00_0000_0000,
    size: 1 << 20,
};

fn build(backend: Backend) -> (Vm, VmSchemes) {
    backend.build_vm(MEMORY)
}

fn assert_names(backend: Backend, report: &[String], what: &str) {
    assert!(
        report.iter().any(|m| m.contains(what)),
        "{backend}: expected {what:?} in {report:?}"
    );
}

/// A table-level acquire on `a`'s payload that no release will ever
/// match: the abandoned-release shape the safepoint purge exists for.
fn abandon_entry(vm: &Vm, schemes: &VmSchemes, a: &art_heap::ArrayRef) {
    let t = vm.attach_thread("abandon");
    let begin = a.data_addr();
    schemes
        .mte
        .as_ref()
        .expect("an MTE backend")
        .table()
        .acquire(
            vm.heap().memory(),
            t.mte(),
            TaggedPtr::from_addr(begin),
            begin + a.byte_len() as u64,
        )
        .unwrap();
}

#[test]
fn a_clean_vm_reports_nothing() {
    for backend in Backend::ALL {
        let (vm, schemes) = build(backend);
        let t = vm.attach_thread("clean");
        let env = vm.env(&t);
        let a = env.new_int_array_from(&[1; 16]).unwrap();
        let elems = env.get_primitive_array_critical(&a).unwrap();
        env.release_primitive_array_critical(&a, elems, Default::default())
            .unwrap();
        drop(env);
        let report = schemes.quiesce(&vm);
        assert!(report.is_empty(), "{backend}: {report:?}");
    }
}

#[test]
fn a_stale_entry_on_a_live_object_is_named() {
    for backend in Backend::ALL.into_iter().filter(|b| b.table().is_some()) {
        let (vm, schemes) = build(backend);
        let t = vm.attach_thread("stale");
        let a = vm.env(&t).new_int_array(16).unwrap();
        abandon_entry(&vm, &schemes, &a);
        // `a` is live, so the sweep leaves its entry alone.
        assert_names(backend, &schemes.quiesce(&vm), "stale table entries");
    }
}

#[test]
fn a_purged_entry_breaks_the_funnel_law() {
    for backend in Backend::ALL.into_iter().filter(|b| b.table().is_some()) {
        let (vm, schemes) = build(backend);
        let t = vm.attach_thread("purge");
        let a = vm.env(&t).new_int_array(16).unwrap();
        abandon_entry(&vm, &schemes, &a);
        drop(a);
        // The oracle's sweep purges an entry no funnel acquire made.
        let report = schemes.quiesce(&vm);
        assert_names(backend, &report, "funnel conservation broken");
        assert!(
            !report.iter().any(|m| m.contains("stale")),
            "{backend}: {report:?}"
        );
    }
}

#[test]
fn an_unreturned_pin_is_named() {
    for backend in Backend::ALL {
        let (vm, schemes) = build(backend);
        let t = vm.attach_thread("pin");
        let a = vm.env(&t).new_int_array(16).unwrap();
        let _pin = vm.heap().pin(a.as_object());
        let report = schemes.quiesce(&vm);
        assert_names(backend, &report, "objects still pinned");
        assert_names(backend, &report, "1 pins but 0 unpins");
    }
}

#[test]
fn leaked_native_bytes_are_named() {
    for backend in Backend::ALL {
        let (vm, schemes) = build(backend);
        vm.heap().native_alloc().alloc(64).unwrap();
        assert_names(backend, &schemes.quiesce(&vm), "native bytes leaked");
    }
}

#[test]
fn a_leaked_guarded_copy_shadow_is_named() {
    for backend in Backend::ALL {
        let (vm, schemes) = build(backend);
        let t = vm.attach_thread("shadow");
        let env = vm.env(&t);
        let a = env.new_int_array(16).unwrap();
        // On an MTE backend the shadow comes from the fallback that a
        // quarantined method's acquires degrade to.
        vm.containment().quarantine("leaky");
        let _elems = env
            .call_native("leaky", NativeKind::Normal, |env| {
                env.get_primitive_array_critical(&a)
            })
            .unwrap();
        // The env, still alive, holds the borrow through the oracle.
        assert_names(
            backend,
            &schemes.quiesce(&vm),
            "guarded-copy shadows leaked",
        );
    }
}
