//! The latency-histogram snapshot, with a schema-versioned JSON form.

use crate::hist::HistKey;
use crate::json::JsonValue;

/// Version of the JSON schema emitted by [`Snapshot::to_json`] and the
/// bench `--json` exports. Bump on any breaking shape change and
/// document the migration in DESIGN.md §8.
pub const SCHEMA_VERSION: u32 = 4;

/// Percentile summary of one registered latency histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSummary {
    /// The histogram's registry key.
    pub key: HistKey,
    /// Samples recorded.
    pub count: u64,
    /// Mean nanoseconds.
    pub mean_ns: u64,
    /// 50th-percentile bucket ceiling, nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile bucket ceiling, nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile bucket ceiling, nanoseconds.
    pub p99_ns: u64,
    /// Largest sample, nanoseconds.
    pub max_ns: u64,
    /// Raw log2 bucket counts.
    pub buckets: Vec<u64>,
}

impl HistogramSummary {
    fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        if let Some(tenant) = self.key.tenant {
            o.insert("tenant", tenant);
        }
        o.insert("scheme", self.key.scheme)
            .insert("interface", self.key.interface)
            .insert("size_class", self.key.size_class.label())
            .insert("op", self.key.op.label())
            .insert("count", self.count)
            .insert("mean_ns", self.mean_ns)
            .insert("p50_ns", self.p50_ns)
            .insert("p90_ns", self.p90_ns)
            .insert("p99_ns", self.p99_ns)
            .insert("max_ns", self.max_ns)
            .insert(
                "buckets_log2",
                JsonValue::Array(self.buckets.iter().map(|&b| JsonValue::U64(b)).collect()),
            );
        o
    }
}

/// Every process-wide latency histogram with at least one sample. The
/// runtime's counts are not here: each is kept by its owner and read
/// through the VM (`jni_rt::Vm::counters`).
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// The JSON schema version this snapshot serializes as.
    pub schema_version: u32,
    /// Every latency histogram with at least one sample, sorted by key.
    pub histograms: Vec<HistogramSummary>,
}

impl Snapshot {
    /// Collects the process-wide snapshot. Collecting reads without
    /// consuming: histograms stay cumulative until [`crate::reset`].
    pub fn collect() -> Snapshot {
        let histograms = crate::hist::all_histograms()
            .into_iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(key, h)| HistogramSummary {
                key,
                count: h.count(),
                mean_ns: h.mean_ns(),
                p50_ns: h.quantile_ns(0.50),
                p90_ns: h.quantile_ns(0.90),
                p99_ns: h.quantile_ns(0.99),
                max_ns: h.max_ns(),
                buckets: h.bucket_counts(),
            })
            .collect();
        Snapshot {
            schema_version: SCHEMA_VERSION,
            histograms,
        }
    }

    /// The schema-versioned JSON form.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.insert("schema_version", self.schema_version).insert(
            "histograms",
            JsonValue::Array(self.histograms.iter().map(HistogramSummary::to_json).collect()),
        );
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::{LatencyOp, SizeClass};

    #[test]
    fn snapshot_json_has_the_schema_version() {
        let key = HistKey {
            tenant: None,
            scheme: "json-test",
            interface: "PrimitiveArrayCritical",
            size_class: SizeClass::Tiny,
            op: LatencyOp::Release,
        };
        let snap = Snapshot {
            schema_version: SCHEMA_VERSION,
            histograms: vec![HistogramSummary {
                key,
                count: 3,
                mean_ns: 10,
                p50_ns: 8,
                p90_ns: 16,
                p99_ns: 16,
                max_ns: 12,
                buckets: vec![0, 3],
            }],
        };
        let json = snap.to_json();
        assert_eq!(
            json.get("schema_version").and_then(JsonValue::as_u64),
            Some(u64::from(SCHEMA_VERSION))
        );
        let text = json.to_pretty_string();
        let back = crate::json::parse(&text).unwrap();
        let h = &back.get("histograms").and_then(JsonValue::as_array).unwrap()[0];
        assert_eq!(h.get("scheme").and_then(JsonValue::as_str), Some("json-test"));
        assert_eq!(h.get("op").and_then(JsonValue::as_str), Some("release"));
        assert_eq!(h.get("count").and_then(JsonValue::as_u64), Some(3));
    }
}
