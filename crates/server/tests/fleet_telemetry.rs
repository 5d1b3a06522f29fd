//! Per-tenant request telemetry: two tenants on the same backend record
//! into two histograms that differ only in their typed `tenant` label,
//! and each rollup row reports that tenant's own request count.
//!
//! Telemetry state is process-global, so this file holds exactly one
//! test: sharing a binary with other telemetry-enabling tests would race
//! on the counts.

use server::{Server, ServerConfig, TrafficConfig};
use telemetry::json::JsonValue;
use telemetry::LatencyOp;
use workloads::Backend;

#[test]
fn same_backend_tenants_get_typed_tenant_histograms() {
    telemetry::reset();
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

    let rollup = server.rollup();
    let rows = rollup.tenants();
    assert_eq!(rows.len(), 2);
    for s in rows {
        assert_eq!(s.scheme, Backend::LockFree.label());
        assert!(s.admitted > 0);
        assert_eq!(s.latency.count, s.admitted, "tenant {}: {s:?}", s.tenant);
    }
    assert_ne!(rows[0].latency.count, rows[1].latency.count);

    let requests: Vec<_> = telemetry::Snapshot::collect()
        .histograms
        .into_iter()
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
    for (h, s) in requests.iter().zip(rows) {
        assert_eq!(h.count, s.latency.count);
    }

    // The snapshot JSON carries the tenant as a number and round-trips.
    let text = telemetry::Snapshot::collect().to_json().to_pretty_string();
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
    telemetry::reset();
}
