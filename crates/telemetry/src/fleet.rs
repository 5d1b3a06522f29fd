//! Fleet-level telemetry rollup for the multi-tenant serving layer.
//!
//! The serving harness (`crates/server`) hosts many tenant VMs. Each
//! tenant records its request latencies through one histogram handle
//! keyed by its own id (`HistKey::tenant`) and reports the histogram's
//! quantiles in its [`TenantStats`]. This module combines those rows into
//! one schema-versioned JSON document ([`FleetRollup::snapshot_json`]).

use crate::hist::LatencyHistogram;
use crate::json::JsonValue;
use crate::snapshot::SCHEMA_VERSION;

/// Request-latency summary for one tenant.
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

impl RequestLatency {
    /// The summary of one request histogram.
    pub fn of(h: &LatencyHistogram) -> RequestLatency {
        RequestLatency {
            count: h.count(),
            p50_ns: h.quantile_ns(0.50),
            p99_ns: h.quantile_ns(0.99),
            max_ns: h.max_ns(),
            mean_ns: h.mean_ns(),
        }
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
    /// Request-latency quantiles (all zero while telemetry is off).
    pub latency: RequestLatency,
}

/// A fleet-wide snapshot: one [`TenantStats`] per tenant.
#[derive(Clone, Debug, Default)]
pub struct FleetRollup {
    tenants: Vec<TenantStats>,
}

impl FromIterator<TenantStats> for FleetRollup {
    fn from_iter<I: IntoIterator<Item = TenantStats>>(rows: I) -> FleetRollup {
        FleetRollup {
            tenants: rows.into_iter().collect(),
        }
    }
}

impl FleetRollup {
    /// The per-tenant rows in insertion order.
    pub fn tenants(&self) -> &[TenantStats] {
        &self.tenants
    }

    /// Fleet totals: (admitted, completed, shed, contained faults).
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        let mut t = (0, 0, 0, 0);
        for s in &self.tenants {
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
        for s in &self.tenants {
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
            let l = &s.latency;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{histogram, HistKey, LatencyOp, SizeClass, Snapshot};
    use std::time::Duration;

    #[test]
    fn tenants_on_one_scheme_get_their_own_histograms_and_rows() {
        let _serial = crate::GLOBAL_STATE_TESTS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        let key = |tenant| HistKey {
            tenant: Some(tenant),
            scheme: "rollup-test",
            interface: "Request",
            size_class: SizeClass::Tiny,
            op: LatencyOp::Request,
        };
        let rollup: FleetRollup = [(41u32, 3u64), (42, 5)]
            .into_iter()
            .map(|(tenant, samples)| {
                let h = histogram(key(tenant));
                for i in 0..samples {
                    h.record(Duration::from_nanos(100 * (i + 1)));
                }
                TenantStats {
                    tenant,
                    scheme: "rollup-test".into(),
                    health: "healthy".into(),
                    admitted: samples + 1,
                    completed: samples,
                    shed_queue_full: 1,
                    latency: RequestLatency::of(&h),
                    ..TenantStats::default()
                }
            })
            .collect();

        let json = rollup.snapshot_json();
        assert_eq!(
            json.get("schema_version").and_then(JsonValue::as_u64),
            Some(u64::from(SCHEMA_VERSION))
        );
        let rows = json.get("tenants").unwrap().as_array().unwrap();
        for (row, (tenant, count)) in rows.iter().zip([(41, 3), (42, 5)]) {
            assert_eq!(row.get("tenant").and_then(JsonValue::as_u64), Some(tenant));
            let lat = row.get("request_latency").unwrap();
            assert_eq!(lat.get("count").and_then(JsonValue::as_u64), Some(count));
            assert_eq!(lat.get("max_ns").and_then(JsonValue::as_u64), Some(100 * count));
        }
        assert_eq!(
            json.get("totals")
                .and_then(|t| t.get("shed"))
                .and_then(JsonValue::as_u64),
            Some(2)
        );

        // The two histograms differ only in `tenant`, and the snapshot
        // JSON carries it as a number next to the bare scheme name.
        let text = Snapshot::collect().to_json().to_pretty_string();
        let back = crate::json::parse(&text).unwrap();
        let mine: Vec<_> = back
            .get("histograms")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .filter(|h| h.get("scheme").and_then(JsonValue::as_str) == Some("rollup-test"))
            .map(|h| {
                assert_eq!(h.get("interface").and_then(JsonValue::as_str), Some("Request"));
                assert_eq!(h.get("op").and_then(JsonValue::as_str), Some("request"));
                (
                    h.get("tenant").and_then(JsonValue::as_u64),
                    h.get("count").and_then(JsonValue::as_u64),
                )
            })
            .collect();
        assert_eq!(mine, [(Some(41), Some(3)), (Some(42), Some(5))]);
        crate::set_enabled(false);
    }
}
