//! `BENCH_<name>.json` round-trip: a report built through the same API
//! the bench binaries use must parse back with the exact values the
//! printed tables show.

use bench::BenchReport;
use telemetry::json::{parse, JsonValue};

#[test]
fn report_written_to_disk_parses_back_with_matching_values() {
    let mut report = BenchReport::new("roundtrip");
    report.param("repeats", 3u32).param("max_pow", 10u32);
    // The same (len, ratio) pairs a printed table would show.
    let table = [(64u64, 1.25f64), (1024, 1.5), (16384, 2.125)];
    for (len, ratio) in table {
        report.row(vec![
            ("len", JsonValue::from(len)),
            ("mte_sync_ratio", JsonValue::from(ratio)),
        ]);
    }
    let avg = table.iter().map(|(_, r)| r).sum::<f64>() / table.len() as f64;
    report.summary("avg_mte_sync_ratio", avg);

    let dir = std::env::temp_dir().join(format!("bench_roundtrip_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = report.write(&dir).unwrap();
    assert_eq!(
        path.file_name().and_then(|n| n.to_str()),
        Some("BENCH_roundtrip.json"),
        "directory targets resolve to BENCH_<name>.json"
    );

    let text = std::fs::read_to_string(&path).unwrap();
    let doc = parse(&text).expect("emitted JSON is strictly parseable");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        doc.get("schema_version").and_then(JsonValue::as_u64),
        Some(telemetry::SCHEMA_VERSION as u64)
    );
    assert_eq!(doc.get("bench").and_then(JsonValue::as_str), Some("roundtrip"));
    assert_eq!(
        doc.get("params")
            .and_then(|p| p.get("repeats"))
            .and_then(JsonValue::as_u64),
        Some(3)
    );

    let rows = doc.get("rows").and_then(JsonValue::as_array).expect("rows array");
    assert_eq!(rows.len(), table.len());
    for (row, (len, ratio)) in rows.iter().zip(table) {
        assert_eq!(row.get("len").and_then(JsonValue::as_u64), Some(len));
        assert_eq!(
            row.get("mte_sync_ratio").and_then(JsonValue::as_f64),
            Some(ratio),
            "ratio survives the round trip bit-exactly"
        );
    }
    assert_eq!(
        doc.get("summary")
            .and_then(|s| s.get("avg_mte_sync_ratio"))
            .and_then(JsonValue::as_f64),
        Some(avg)
    );

    // A telemetry block is always attached, even when recording was off:
    // consumers can rely on the key being present.
    let telem = doc.get("telemetry").expect("telemetry block present");
    assert_eq!(
        telem.get("schema_version").and_then(JsonValue::as_u64),
        Some(telemetry::SCHEMA_VERSION as u64)
    );

    // The on-disk text matches the in-memory document byte for byte.
    assert_eq!(text, report.to_json().to_pretty_string());
}

/// The committed reports at the repository root and the CI gate's
/// baselines under `baselines/` each parse with the parser the gate uses
/// and carry an integer `schema_version`.
#[test]
fn committed_reports_and_baselines_parse_with_a_schema_version() {
    let bench = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for (dir, prefix) in [
        (bench.join("../.."), "BENCH_"),
        (bench.join("baselines"), ""),
    ] {
        let mut reports = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy();
            if !(name.starts_with(prefix) && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let doc = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let version = doc.get("schema_version").and_then(JsonValue::as_u64);
            assert!(version.is_some(), "{name} has no integer schema_version");
            reports += 1;
        }
        assert!(reports > 0, "no {prefix}*.json under {}", dir.display());
    }
}
