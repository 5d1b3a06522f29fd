//! The cross-backend differential oracle over the committed golden
//! corpus: one recorded trace, replayed against every `TableBackend`
//! plus the guarded-copy fallback, must converge to the same outcomes.

use std::path::PathBuf;

use trace::{diff, replay, Trace};
use workloads::Backend;

fn corpus(name: &str) -> Trace {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join(name);
    Trace::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The golden OOB trace: every MTE table backend must be strictly
/// indistinguishable, and guarded copy must reach the same per-frame
/// detection verdicts with balanced pins and zero stale entries.
#[test]
fn golden_oob_trace_is_equivalent_across_backends() {
    let trace = corpus("oob_contain.trc");
    let baseline = replay(&trace, Backend::TwoTier).expect("replays");
    assert_eq!(baseline.detections(), 1, "{baseline}");
    assert_eq!(baseline.tombstones.len(), 1);

    for backend in [Backend::LockFree, Backend::Global] {
        let d = replay(&trace, backend).expect("replays");
        let diffs = baseline.strict_diff(&d);
        assert!(diffs.is_empty(), "{backend}: {diffs:?}");
    }

    let guarded = replay(&trace, Backend::Guarded).expect("replays");
    let diffs = baseline.detection_diff(&guarded);
    assert!(diffs.is_empty(), "guarded: {diffs:?}");
    // Documented allowance: guarded copy detects at release, not at the
    // access, so it contains nothing and writes no tombstone...
    assert_eq!(guarded.contained_faults, 0);
    assert!(guarded.tombstones.is_empty());
    // ...but the verdict is the same.
    assert_eq!(guarded.detections(), 1);

    for d in [&baseline, &guarded] {
        assert!(d.conservation_violations().is_empty(), "{d}");
        assert_eq!(d.pinned_objects, 0);
        assert_eq!(d.stale_entries, 0);
    }
}

/// The full oracle over every committed corpus trace.
#[test]
fn golden_corpus_passes_the_differential_oracle() {
    for name in ["asset_compression.trc", "oob_contain.trc", "spurious_inject.trc"] {
        let trace = corpus(name);
        let report = diff(&trace).expect("replays cleanly");
        assert!(report.is_match(), "{name}:\n{report}");
    }
}

/// The injected-fault trace quarantines a method identically across all
/// MTE table backends (guarded is skipped: spurious tag-check faults
/// only exist where tag checks exist).
#[test]
fn golden_spurious_trace_quarantines_identically() {
    let trace = corpus("spurious_inject.trc");
    let report = diff(&trace).expect("replays cleanly");
    assert!(report.guarded_skipped);
    assert_eq!(report.digests.len(), 3);
    for d in &report.digests {
        assert_eq!(d.quarantined, vec!["Spurious.touch".to_owned()], "{d}");
        assert!(d.contained_faults > 0, "{d}");
    }
}
