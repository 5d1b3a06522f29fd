//! Fleet-level telemetry rollup for the multi-tenant serving layer.
//!
//! The serving harness (`crates/server`) hosts many tenant VMs, each
//! recording request latencies under a tenant-qualified scheme key
//! ([`tenant_scheme`], e.g. `"tenant3/lock-free"`). This module merges
//! those per-tenant histograms back out of the global registry and
//! combines them with the server's per-tenant counters into one
//! schema-versioned JSON document ([`FleetRollup::snapshot_json`]).

use crate::hist::{self, LatencyOp};
use crate::json::JsonValue;
use crate::snapshot::SCHEMA_VERSION;

/// The histogram scheme key for one tenant: `"tenant<id>/<scheme>"`.
/// Keeping the tenant id inside the existing `HistKey::scheme` string
/// means per-tenant latency distributions need no registry schema
/// change and remain visible to [`crate::Snapshot::collect`].
pub fn tenant_scheme(tenant: u32, scheme: &str) -> String {
    format!("tenant{tenant}/{scheme}")
}

/// Merged request-latency summary for one tenant, combined across all
/// size classes and interfaces recorded under its scheme key.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequestLatency {
    /// Completed-request samples.
    pub count: u64,
    /// Median (bucket-ceiling estimate, clamped to max), nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile (bucket-ceiling estimate, clamped), nanoseconds.
    pub p99_ns: u64,
    /// Largest observed request latency, nanoseconds.
    pub max_ns: u64,
    /// Mean request latency, nanoseconds.
    pub mean_ns: u64,
}

/// Merges every [`LatencyOp::Request`] histogram registered under
/// `scheme_key` (across size classes and interface labels) into one
/// quantile summary. Returns the zero summary when nothing recorded.
pub fn request_latency(scheme_key: &str) -> RequestLatency {
    let mut buckets: Vec<u64> = Vec::new();
    let mut count = 0u64;
    let mut sum = 0u64;
    let mut max = 0u64;
    for (key, h) in hist::all_histograms() {
        if key.op != LatencyOp::Request || key.scheme != scheme_key {
            continue;
        }
        let b = h.bucket_counts();
        if buckets.len() < b.len() {
            buckets.resize(b.len(), 0);
        }
        for (slot, n) in buckets.iter_mut().zip(&b) {
            *slot += n;
        }
        count += h.count();
        sum = sum.saturating_add(h.mean_ns().saturating_mul(h.count()));
        max = max.max(h.max_ns());
    }
    RequestLatency {
        count,
        p50_ns: hist::bucket_quantile(buckets.iter().copied(), count, max, 0.50),
        p99_ns: hist::bucket_quantile(buckets.iter().copied(), count, max, 0.99),
        max_ns: max,
        mean_ns: sum.checked_div(count).unwrap_or(0),
    }
}

/// Per-tenant counters the serving layer feeds into the rollup. All
/// counts are cumulative over the tenant's lifetime.
#[derive(Clone, Debug, Default)]
pub struct TenantStats {
    /// Tenant index within the fleet.
    pub tenant: u32,
    /// Protection-scheme label (`"lock-free"`, `"guarded"`, …).
    pub scheme: String,
    /// Health-state label at snapshot time (`"healthy"`, `"degraded"`,
    /// `"quarantined"`, `"evicted"`).
    pub health: String,
    /// Requests past admission control.
    pub admitted: u64,
    /// Admitted requests that ran to completion.
    pub completed: u64,
    /// Requests shed because the per-tenant queue was full.
    pub shed_queue_full: u64,
    /// Requests shed because the native-memory budget was exhausted.
    pub shed_budget: u64,
    /// Requests shed because the tenant was quarantined or evicted.
    pub shed_quarantined: u64,
    /// Tag-check faults contained by the tenant's trampolines.
    pub contained_faults: u64,
    /// Single-acquire degradations after `TagExhausted`.
    pub degraded_exhaust: u64,
    /// Acquires routed to the fallback by method quarantine.
    pub degraded_quarantine: u64,
    /// Transient-error retries spent across all requests.
    pub retries: u64,
}

/// A fleet-wide snapshot: one [`TenantStats`] per tenant plus the
/// merged request-latency quantiles pulled from the histogram registry.
#[derive(Clone, Debug, Default)]
pub struct FleetRollup {
    tenants: Vec<(TenantStats, RequestLatency)>,
}

impl FleetRollup {
    /// An empty rollup.
    pub fn new() -> FleetRollup {
        FleetRollup::default()
    }

    /// Adds one tenant, resolving its request-latency quantiles from
    /// the histograms registered under its [`tenant_scheme`] key.
    pub fn push(&mut self, stats: TenantStats) {
        let latency = request_latency(&tenant_scheme(stats.tenant, &stats.scheme));
        self.tenants.push((stats, latency));
    }

    /// The per-tenant rows in insertion order.
    pub fn tenants(&self) -> impl Iterator<Item = (&TenantStats, &RequestLatency)> {
        self.tenants.iter().map(|(s, l)| (s, l))
    }

    /// Fleet totals: (admitted, completed, shed, contained faults).
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        let mut t = (0, 0, 0, 0);
        for (s, _) in &self.tenants {
            t.0 += s.admitted;
            t.1 += s.completed;
            t.2 += s.shed_queue_full + s.shed_budget + s.shed_quarantined;
            t.3 += s.contained_faults;
        }
        t
    }

    /// The schema-versioned JSON document for `FLEET.json`-style
    /// exports and the serving bench report.
    pub fn snapshot_json(&self) -> JsonValue {
        let mut doc = JsonValue::object();
        doc.insert("schema_version", SCHEMA_VERSION);
        doc.insert("kind", "fleet_rollup");
        let (admitted, completed, shed, contained) = self.totals();
        let mut totals = JsonValue::object();
        totals.insert("admitted", admitted);
        totals.insert("completed", completed);
        totals.insert("shed", shed);
        totals.insert("contained_faults", contained);
        doc.insert("totals", totals);
        let mut rows = Vec::new();
        for (s, l) in &self.tenants {
            let mut row = JsonValue::object();
            row.insert("tenant", u64::from(s.tenant));
            row.insert("scheme", s.scheme.as_str());
            row.insert("health", s.health.as_str());
            row.insert("admitted", s.admitted);
            row.insert("completed", s.completed);
            row.insert("shed_queue_full", s.shed_queue_full);
            row.insert("shed_budget", s.shed_budget);
            row.insert("shed_quarantined", s.shed_quarantined);
            row.insert("contained_faults", s.contained_faults);
            row.insert("degraded_exhaust", s.degraded_exhaust);
            row.insert("degraded_quarantine", s.degraded_quarantine);
            row.insert("retries", s.retries);
            let mut lat = JsonValue::object();
            lat.insert("count", l.count);
            lat.insert("p50_ns", l.p50_ns);
            lat.insert("p99_ns", l.p99_ns);
            lat.insert("max_ns", l.max_ns);
            lat.insert("mean_ns", l.mean_ns);
            row.insert("request_latency", lat);
            rows.push(row);
        }
        doc.insert("tenants", JsonValue::Array(rows));
        doc
    }
}

/// Records one completed request's latency under the tenant's
/// histogram key (no-op when telemetry is disabled, like every other
/// recording entry point).
pub fn record_request_latency(tenant: u32, scheme: &str, elapsed: std::time::Duration) {
    crate::record_latency_duration(
        &tenant_scheme(tenant, scheme),
        "Request",
        crate::SizeClass::Tiny,
        LatencyOp::Request,
        elapsed,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn rollup_merges_histograms_and_exports_json() {
        let _serial = crate::GLOBAL_STATE_TESTS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        assert_eq!(tenant_scheme(7, "lock-free"), "tenant7/lock-free");
        // Two size classes under one tenant key merge into one summary.
        let scheme = "rollup-test";
        let tenant = 42;
        for ns in [100u64, 200, 300, 400] {
            crate::record_latency_duration(
                &tenant_scheme(tenant, scheme),
                "Request",
                crate::SizeClass::Tiny,
                LatencyOp::Request,
                Duration::from_nanos(ns),
            );
        }
        crate::record_latency_duration(
            &tenant_scheme(tenant, scheme),
            "Request",
            crate::SizeClass::Large,
            LatencyOp::Request,
            Duration::from_nanos(70_000),
        );

        let lat = request_latency(&tenant_scheme(tenant, scheme));
        assert_eq!(lat.count, 5);
        assert!(lat.p50_ns >= 100 && lat.p50_ns < 70_000, "p50: {}", lat.p50_ns);
        assert_eq!(lat.max_ns, 70_000);
        assert!(lat.p99_ns <= 131_071 && lat.p99_ns >= 1000, "p99: {}", lat.p99_ns);

        let mut rollup = FleetRollup::new();
        rollup.push(TenantStats {
            tenant,
            scheme: scheme.into(),
            health: "healthy".into(),
            admitted: 6,
            completed: 5,
            shed_queue_full: 1,
            ..TenantStats::default()
        });
        let json = rollup.snapshot_json();
        assert_eq!(
            json.get("schema_version").and_then(JsonValue::as_u64),
            Some(u64::from(SCHEMA_VERSION))
        );
        let row = &json.get("tenants").unwrap().as_array().unwrap()[0];
        assert_eq!(row.get("tenant").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(
            row.get("request_latency")
                .and_then(|l| l.get("count"))
                .and_then(JsonValue::as_u64),
            Some(5)
        );
        assert_eq!(
            json.get("totals")
                .and_then(|t| t.get("shed"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
        crate::set_enabled(false);
    }
}
