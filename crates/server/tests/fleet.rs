//! Fleet-level isolation: the tentpole acceptance invariant at test
//! scale. One noisy tenant with out-of-bounds traffic and injected
//! faults is degraded and then quarantined; every other tenant finishes
//! all admitted requests with zero contained faults, balanced pin
//! books, and zero stale table entries.

use mte_sim::inject::FaultPlan;
use server::{Request, Server, ServerConfig, Tenant, TrafficConfig};
use telemetry::fleet::TenantStats;
use workloads::Backend;

fn noisy_fleet(scheme: Backend) -> (Server, Vec<Request>) {
    let mut cfg = ServerConfig::with_tenants(3, 3);
    for (i, t) in cfg.tenants.iter_mut().enumerate() {
        t.scheme = scheme;
        if i == 0 {
            // The acceptance floor: >= 2000 ppm mixed injection on the
            // noisy tenant, on top of its out-of-bounds traffic.
            t.fault_plan = Some(FaultPlan::uniform(2_000));
        }
    }
    let traffic = TrafficConfig {
        per_tenant: 200,
        noisy_tenant: Some(0),
        ..TrafficConfig::default()
    };
    let stream = traffic.generate(3);
    (Server::new(cfg), stream)
}

#[test]
fn noisy_neighbor_is_contained_and_quarantined() {
    let (server, stream) = noisy_fleet(Backend::LockFree);
    let summary = server.run_timed(&stream).0;
    assert_eq!(summary.served + summary.shed, stream.len() as u64);

    // The noisy tenant took real faults, was contained, and ended up
    // shedding traffic behind the quarantine latch.
    let noisy = server.tenant(0).stats();
    assert!(
        noisy.contained_faults > 0,
        "noisy tenant saw no contained faults: {noisy:?}"
    );
    assert!(
        server.tenant(0).health().sheds_all(),
        "noisy tenant not quarantined: {:?}",
        server.tenant(0).health()
    );
    assert!(
        noisy.shed_quarantined > 0,
        "no traffic shed after quarantine: {noisy:?}"
    );

    // Every neighbor finished everything it admitted, fault-free.
    for id in [1, 2] {
        let t = server.tenant(id);
        let s = t.stats();
        assert_eq!(s.contained_faults, 0, "neighbor {id} took faults: {s:?}");
        assert_eq!(s.completed, s.admitted, "neighbor {id} lost requests: {s:?}");
        assert_eq!(t.failed(), 0, "neighbor {id} failed requests");
        assert_eq!(s.shed_quarantined, 0, "neighbor {id} was quarantined: {s:?}");
        assert!(!t.health().sheds_all(), "neighbor {id} sheds traffic");
    }

    // Replay requests never observe a conservation violation, and the
    // whole fleet — including the faulted tenant — quiesces clean.
    for t in server.tenants() {
        assert_eq!(t.replay_violations(), 0);
    }
    let violations = server.quiesce_all();
    assert!(violations.is_empty(), "fleet not sound: {violations:?}");
}

#[test]
fn isolation_holds_on_the_two_tier_backend() {
    let (server, stream) = noisy_fleet(Backend::TwoTier);
    server.run_timed(&stream);
    for id in [1, 2] {
        let s = server.tenant(id).stats();
        assert_eq!(s.contained_faults, 0, "neighbor {id}: {s:?}");
        assert_eq!(s.completed, s.admitted, "neighbor {id}: {s:?}");
    }
    assert!(server.tenant(0).stats().contained_faults > 0);
    let violations = server.quiesce_all();
    assert!(violations.is_empty(), "fleet not sound: {violations:?}");
}

#[test]
fn tenant_stats_report_every_tenant() {
    let (server, stream) = noisy_fleet(Backend::LockFree);
    server.run_timed(&stream);
    let rows: Vec<_> = server.tenants().iter().map(Tenant::stats).collect();
    assert_eq!(rows.len(), 3);
    let sum = |count: fn(&TenantStats) -> u64| rows.iter().map(count).sum::<u64>();
    assert!(sum(|s| s.admitted) > 0 && sum(|s| s.completed) > 0);
    assert!(sum(|s| s.shed_queue_full + s.shed_budget + s.shed_quarantined) > 0);
    assert!(sum(|s| s.contained_faults) > 0);
    assert!(rows.iter().any(|s| s.health == "quarantined"), "{rows:?}");
}

#[test]
fn guarded_tenants_detect_instead_of_contain() {
    // Guarded-copy ablation: the noisy tenant's out-of-bounds writes
    // are caught at release (CheckJNI) rather than contained at the
    // faulting access; neighbors still finish clean.
    let mut cfg = ServerConfig::with_tenants(2, 2);
    for t in &mut cfg.tenants {
        t.scheme = Backend::Guarded;
    }
    let traffic = TrafficConfig {
        per_tenant: 150,
        noisy_tenant: Some(0),
        ..TrafficConfig::default()
    };
    let stream = traffic.generate(2);
    let server = Server::new(cfg);
    server.run_timed(&stream);
    let neighbor = server.tenant(1).stats();
    assert_eq!(neighbor.contained_faults, 0);
    assert_eq!(neighbor.completed, neighbor.admitted);
    let violations = server.quiesce_all();
    assert!(violations.is_empty(), "fleet not sound: {violations:?}");
}

#[test]
fn queue_bound_sheds_under_a_starved_pool() {
    // One worker, capacity-1 queues: depth can never exceed the bound,
    // and the run still drains the whole stream.
    let mut cfg = ServerConfig::with_tenants(2, 1);
    for t in &mut cfg.tenants {
        t.queue_capacity = 1;
    }
    let traffic = TrafficConfig {
        per_tenant: 40,
        kernel_ppm: 0,
        replay_ppm: 0,
        ..TrafficConfig::default()
    };
    let stream = traffic.generate(2);
    let server = Server::new(cfg);
    let summary = server.run_timed(&stream).0;
    assert_eq!(summary.served + summary.shed, 80);
    // With a single worker there is never queue contention, so nothing
    // sheds — the bound is a ceiling, not a throttle.
    assert_eq!(summary.shed, 0);
    assert!(server.quiesce_all().is_empty());
}
