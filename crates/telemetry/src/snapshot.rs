//! One owner's counters and latency histograms, with a schema-versioned
//! JSON form.

use std::collections::BTreeMap;

use crate::hist::HistogramSummary;
use crate::json::JsonValue;

/// Version of the JSON schema emitted by [`Snapshot::to_json`] and the
/// bench `--json` exports. Bump on any breaking shape change and
/// document the migration in DESIGN.md §8.
pub const SCHEMA_VERSION: u32 = 4;

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
            .insert("mean_ns", self.mean_ns())
            .insert("p50_ns", self.quantile_ns(0.50))
            .insert("p90_ns", self.quantile_ns(0.90))
            .insert("p99_ns", self.quantile_ns(0.99))
            .insert("max_ns", self.max_ns)
            .insert(
                "buckets_log2",
                JsonValue::Array(self.buckets.iter().map(|&b| JsonValue::U64(b)).collect()),
            );
        o
    }
}

/// What one owner measured: its counters and every latency histogram it
/// holds with at least one sample. `jni_rt::Vm::snapshot` reads one VM's;
/// [`Snapshot::merge`] sums several, so a report covers exactly the
/// owners whose snapshots it merged.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Exact counts under their dotted keys (`scheme.<name>.…`).
    pub counters: BTreeMap<String, u64>,
    /// Histograms with at least one sample, sorted by key, one per key.
    pub histograms: Vec<HistogramSummary>,
}

impl Snapshot {
    /// Adds one histogram, merging it into the one already held under
    /// its key.
    pub fn add_histogram(&mut self, h: HistogramSummary) {
        match self
            .histograms
            .binary_search_by_key(&h.key, |mine| mine.key)
        {
            Ok(i) => self.histograms[i].merge(&h),
            Err(i) => self.histograms.insert(i, h),
        }
    }

    /// Adds `other` to this snapshot: counters under one key add, and
    /// histograms under one key merge ([`HistogramSummary::merge`]).
    pub fn merge(&mut self, other: Snapshot) {
        for (key, value) in other.counters {
            *self.counters.entry(key).or_default() += value;
        }
        for h in other.histograms {
            self.add_histogram(h);
        }
    }

    /// The schema-versioned JSON form.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        o.insert("schema_version", SCHEMA_VERSION)
            .insert(
                "histograms",
                JsonValue::Array(
                    self.histograms
                        .iter()
                        .map(HistogramSummary::to_json)
                        .collect(),
                ),
            )
            .insert("counters", JsonValue::from(&self.counters));
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::{HistKey, LatencyOp, SizeClass};

    fn summary(tenant: Option<u32>, count: u64, max_ns: u64) -> HistogramSummary {
        HistogramSummary {
            key: HistKey {
                tenant,
                scheme: "json-test",
                interface: "PrimitiveArrayCritical",
                size_class: SizeClass::Tiny,
                op: LatencyOp::Release,
            },
            count,
            sum_ns: 10 * count,
            max_ns,
            buckets: vec![0, 0, 0, 0, count],
        }
    }

    #[test]
    fn snapshot_json_has_the_schema_version() {
        let mut snap = Snapshot::default();
        snap.add_histogram(summary(Some(41), 1, 9));
        snap.add_histogram(summary(None, 3, 12));
        snap.counters.insert("scheme.json-test.acquires".into(), 3);
        let json = snap.to_json();
        assert_eq!(
            json.get("schema_version").and_then(JsonValue::as_u64),
            Some(u64::from(SCHEMA_VERSION))
        );
        let text = json.to_pretty_string();
        let back = crate::json::parse(&text).unwrap();
        let hs = back
            .get("histograms")
            .and_then(JsonValue::as_array)
            .unwrap();
        let h = &hs[0];
        assert_eq!(
            h.get("scheme").and_then(JsonValue::as_str),
            Some("json-test")
        );
        assert_eq!(h.get("op").and_then(JsonValue::as_str), Some("release"));
        assert_eq!(h.get("count").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(h.get("mean_ns").and_then(JsonValue::as_u64), Some(10));
        assert_eq!(
            h.get("p50_ns").and_then(JsonValue::as_u64),
            Some(12),
            "clamped to max"
        );
        assert!(
            h.get("tenant").is_none(),
            "untenanted keys carry no tenant, and sort first"
        );
        assert_eq!(hs[1].get("tenant").and_then(JsonValue::as_u64), Some(41));
        assert_eq!(
            back.get("counters")
                .and_then(|c| c.get("scheme.json-test.acquires"))
                .and_then(JsonValue::as_u64),
            Some(3)
        );
    }

    #[test]
    fn merge_sums_counters_and_merges_histograms_by_key() {
        let mut a = Snapshot::default();
        a.counters.insert("x".into(), 2);
        a.add_histogram(summary(None, 3, 12));
        a.add_histogram(summary(Some(7), 1, 9));
        let mut b = Snapshot::default();
        b.counters.insert("x".into(), 5);
        b.counters.insert("y".into(), 1);
        b.add_histogram(summary(None, 4, 15));
        a.merge(b);
        assert_eq!(
            a.counters,
            BTreeMap::from([("x".into(), 7), ("y".into(), 1)])
        );
        let merged: Vec<_> = a
            .histograms
            .iter()
            .map(|h| (h.key.tenant, h.count, h.sum_ns, h.max_ns, h.buckets[4]))
            .collect();
        assert_eq!(
            merged,
            [(None, 7, 70, 15, 7), (Some(7), 1, 10, 9, 1)],
            "key order, one per key"
        );
    }
}
