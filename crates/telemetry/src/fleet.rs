//! Per-tenant statistics for the multi-tenant serving layer.
//!
//! The serving harness (`crates/server`) hosts many tenant VMs. Each
//! tenant records its request latencies through one histogram handle
//! keyed by its own id (`HistKey::tenant`) and reports the histogram's
//! quantiles, with its admission and containment counters, as one
//! [`TenantStats`] row.

use crate::hist::LatencyHistogram;

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

/// One tenant's counters and request latency. All counts are cumulative
/// over the tenant's lifetime.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
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
        let rows: Vec<TenantStats> = [(41u32, 3u64), (42, 5)]
            .into_iter()
            .map(|(tenant, samples)| {
                let h = histogram(key(tenant));
                for i in 0..samples {
                    h.record(Duration::from_nanos(100 * (i + 1)));
                }
                TenantStats {
                    tenant,
                    latency: RequestLatency::of(&h),
                    ..TenantStats::default()
                }
            })
            .collect();

        for (row, (tenant, count)) in rows.iter().zip([(41, 3), (42, 5)]) {
            assert_eq!(row.tenant, tenant);
            assert_eq!(row.latency.count, count);
            assert_eq!(row.latency.max_ns, 100 * count);
        }

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
