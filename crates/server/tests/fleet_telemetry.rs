//! Per-tenant request telemetry: two tenants on the same backend record
//! into two histograms that differ only in their typed `tenant` label,
//! and each tenant's stats and snapshot report its own request count.
//!
//! The recording flag is process-wide, so this file holds exactly one
//! test: a second test in the binary could turn recording off under it.

use server::{Server, ServerConfig, Tenant, TenantStats, TrafficConfig};
use telemetry::json::JsonValue;
use telemetry::{LatencyOp, Snapshot};
use workloads::Backend;

#[test]
fn same_backend_tenants_get_typed_tenant_histograms() {
    telemetry::set_enabled(true);

    let server = Server::new(ServerConfig::with_tenants(2, 2));
    let traffic = TrafficConfig {
        per_tenant: 40,
        ..TrafficConfig::default()
    };
    // Tenant 1 gets every other one of its requests, so the two rows
    // cannot agree by accident.
    let stream: Vec<_> = traffic
        .generate(2)
        .into_iter()
        .filter(|r| r.tenant == 0 || r.index % 2 == 0)
        .collect();
    server.run_timed(&stream);

    let rows: Vec<_> = server.tenants().iter().map(Tenant::stats).collect();
    assert_eq!(rows.len(), 2);
    let latency = |s: &TenantStats| s.latency.as_ref().map_or(0, |h| h.count);
    for s in &rows {
        assert_eq!(s.scheme, Backend::LockFree.label());
        assert!(s.admitted > 0);
        assert_eq!(latency(s), s.admitted, "tenant {}: {s:?}", s.tenant);
    }
    assert_ne!(latency(&rows[0]), latency(&rows[1]));

    // Each tenant's snapshot holds its own request histogram and no
    // other tenant's; merged, they make the fleet's.
    let mut fleet = Snapshot::default();
    for t in server.tenants() {
        let snap = t.snapshot();
        let tenants: Vec<_> = snap
            .histograms
            .iter()
            .filter_map(|h| h.key.tenant)
            .collect();
        assert_eq!(tenants, [t.config().id]);
        fleet.merge(snap);
    }
    let requests: Vec<_> = fleet
        .histograms
        .iter()
        .filter(|h| h.key.op == LatencyOp::Request)
        .collect();
    assert_eq!(requests.len(), 2, "{requests:?}");
    let (a, b) = (requests[0].key, requests[1].key);
    assert_eq!((a.tenant, b.tenant), (Some(0), Some(1)));
    assert_eq!(
        (a.scheme, a.interface, a.size_class),
        (b.scheme, b.interface, b.size_class)
    );
    assert_eq!(a.scheme, Backend::LockFree.label());
    for (h, s) in requests.iter().zip(&rows) {
        assert_eq!(Some(*h), s.latency.as_ref());
    }

    // The snapshot JSON carries the tenant as a number and round-trips.
    let text = fleet.to_json().to_pretty_string();
    let back = telemetry::json::parse(&text).unwrap();
    let tenants: Vec<_> = back
        .get("histograms")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .filter(|h| h.get("op").and_then(JsonValue::as_str) == Some("request"))
        .map(|h| {
            assert_eq!(
                h.get("scheme").and_then(JsonValue::as_str),
                Some("lock-free")
            );
            h.get("tenant").and_then(JsonValue::as_u64)
        })
        .collect();
    assert_eq!(tenants, [Some(0), Some(1)]);
    assert!(back
        .get("histograms")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .filter(|h| h.get("op").and_then(JsonValue::as_str) != Some("request"))
        .all(|h| h.get("tenant").is_none()));

    telemetry::set_enabled(false);
}
