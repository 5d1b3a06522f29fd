//! Satellite regression: evicting a tenant with a live
//! `GetPrimitiveArrayCritical` borrow must force-release the borrow
//! through the release funnel before the heap drops, keeping the
//! three-term conservation law and the pin books balanced.

use server::{Tenant, TenantConfig};
use workloads::Backend;

#[test]
fn evicting_a_tenant_with_a_live_critical_borrow_balances_the_funnel() {
    let tenant = Tenant::new(TenantConfig::new(0));
    let thread = tenant.vm().attach_thread("teardown");
    let env = tenant.vm().env(&thread);
    let a = env.new_int_array_from(&[9; 16]).unwrap();
    let elems = env.get_primitive_array_critical(&a).unwrap();
    // Read through the borrow so the acquire is observably real.
    assert_eq!(elems.read_i32(&env.native_mem(), 3).unwrap(), 9);
    assert_eq!(env.critical_depth(), 1);

    // Evict mid-flight: the health latch flips first so no new request
    // can be admitted, then the env teardown backstop force-releases
    // the open borrow before the heap is dropped.
    tenant.evict();
    assert!(tenant.health().sheds_all());
    drop(env);

    // Pin books balanced, no stale table entries, no leaked shadows.
    let violations = tenant.quiesce();
    assert!(violations.is_empty(), "teardown leaked: {violations:?}");

    // Conservation: acquires - shared == typed frees + safepoint purges.
    let scheme = tenant.scheme().expect("mte tenant");
    assert_eq!(scheme.funnel_violation(), None);
    let hs = tenant.vm().heap().stats();
    assert_eq!(hs.pinned_objects, 0);
    assert_eq!(hs.pins_total, hs.unpins_total);
}

#[test]
fn force_release_reclaims_every_open_borrow() {
    let tenant = Tenant::new(TenantConfig::new(1));
    let thread = tenant.vm().attach_thread("teardown");
    let env = tenant.vm().env(&thread);
    let a = env.new_int_array_from(&[1; 8]).unwrap();
    let b = env.new_int_array_from(&[2; 8]).unwrap();
    let _ea = env.get_primitive_array_critical(&a).unwrap();
    let _eb = env.get_primitive_array_critical(&b).unwrap();
    assert_eq!(env.critical_depth(), 2);
    assert_eq!(env.force_release_borrows(), 2);
    assert_eq!(env.critical_depth(), 0);
    // Idempotent: nothing left to release.
    assert_eq!(env.force_release_borrows(), 0);
    drop(env);
    assert!(tenant.quiesce().is_empty());
}

#[test]
fn eviction_works_for_guarded_tenants_too() {
    let mut cfg = TenantConfig::new(2);
    cfg.scheme = Backend::Guarded;
    let tenant = Tenant::new(cfg);
    let thread = tenant.vm().attach_thread("teardown");
    let env = tenant.vm().env(&thread);
    let a = env.new_int_array_from(&[5; 16]).unwrap();
    let _elems = env.get_primitive_array_critical(&a).unwrap();
    tenant.evict();
    drop(env);
    let violations = tenant.quiesce();
    assert!(violations.is_empty(), "guarded teardown leaked: {violations:?}");
}
