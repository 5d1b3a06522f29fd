//! Satellite regression: N threads exhausting the irg tag pool all
//! fall back to guarded-copy single-acquire degradation, and the
//! degradation never poisons tenant health past `Degraded`.

use mte_sim::inject::FaultPlan;
use server::{Health, Server, ServerConfig, TrafficConfig};

#[test]
fn concurrent_tag_exhaustion_degrades_but_never_quarantines() {
    let mut cfg = ServerConfig::with_tenants(1, 4);
    // Every irg draw returns the excluded zero tag: all critical
    // acquires on this tenant degrade to the guarded-copy fallback.
    cfg.tenants[0].fault_plan = Some(FaultPlan {
        irg_exhaust_ppm: 1_000_000,
        ..FaultPlan::default()
    });
    let traffic = TrafficConfig {
        per_tenant: 120,
        kernel_ppm: 0,
        replay_ppm: 0,
        ..TrafficConfig::default()
    };
    let stream = traffic.generate(1);
    let server = Server::new(cfg);
    let summary = server.run_timed(&stream).0;
    assert_eq!(summary.served, 120, "degraded tenant must keep serving");

    let t = server.tenant(0);
    let s = t.stats();
    // The fallback fired — a lot — and every request still completed.
    assert!(s.degraded_exhaust > 0, "no TagExhausted degradations: {s:?}");
    assert_eq!(s.completed, s.admitted, "degradation dropped requests: {s:?}");
    assert_eq!(t.failed(), 0);
    // Tag exhaustion is correct (slower) operation, not a fault: zero
    // contained faults, health capped at Degraded, nothing shed.
    assert_eq!(s.contained_faults, 0, "exhaustion mis-counted as a fault");
    assert_eq!(t.health(), Health::Degraded, "health must cap at Degraded");
    assert_eq!(s.shed_quarantined, 0);

    // Fallback shadows all returned; funnel and pin books balance.
    let violations = t.quiesce();
    assert!(violations.is_empty(), "degraded tenant leaked: {violations:?}");
}

#[test]
fn partial_exhaustion_under_threads_stays_sound() {
    // A 30% exhaustion rate mixes degraded and tagged acquires across
    // 4 worker threads on the same tenant VM — the racy path the
    // single-acquire fallback has to survive.
    let mut cfg = ServerConfig::with_tenants(1, 4);
    cfg.tenants[0].fault_plan = Some(FaultPlan {
        irg_exhaust_ppm: 300_000,
        ..FaultPlan::default()
    });
    let traffic = TrafficConfig {
        per_tenant: 160,
        kernel_ppm: 0,
        replay_ppm: 0,
        ..TrafficConfig::default()
    };
    let stream = traffic.generate(1);
    let server = Server::new(cfg);
    server.run_timed(&stream);
    let t = server.tenant(0);
    let s = t.stats();
    assert!(s.degraded_exhaust > 0, "{s:?}");
    assert_eq!(s.completed, s.admitted, "{s:?}");
    assert!(t.health() <= Health::Degraded, "health: {:?}", t.health());
    let violations = t.quiesce();
    assert!(violations.is_empty(), "leaked: {violations:?}");
}
