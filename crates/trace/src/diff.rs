//! The differential oracle: one trace, every backend, one verdict.
//!
//! Equivalence is judged in three tiers:
//!
//! 1. **Strict** — the three MTE table backends (two-tier, lock-free,
//!    global) must be indistinguishable: same event hash, payload hash,
//!    per-frame outcomes, containment counters, tombstones, quarantine
//!    set. The table is an implementation detail; any divergence is a
//!    bug in one of them.
//! 2. **Detection** — guarded copy detects through a different mechanism
//!    (release-time canary checks instead of load/store tag checks), so
//!    only the per-frame detection verdicts must match the MTE set. Tag
//!    values, fault counts, payload bytes, and quarantine state are the
//!    documented allowance. Traces recorded under a fault-injection plan
//!    skip this tier: injected spurious faults only exist where tag
//!    checks exist.
//! 3. **Conservation** — every replay individually must pass the
//!    quiescence oracle (no stale entries, the funnel conservation law,
//!    no leaked shadows or native bytes, balanced pins) and leave no
//!    unreleased borrows.

use std::fmt;

use workloads::Backend;

use crate::codec::Trace;
use crate::replay::{replay, Digest, ReplayError};

/// The MTE table backends in replay order: the paper's two-tier table
/// first, as the strict tier's baseline.
const MTE_BACKENDS: [Backend; 3] = [Backend::TwoTier, Backend::LockFree, Backend::Global];

/// The outcome of replaying one trace across all backends.
#[derive(Debug)]
pub struct DiffReport {
    /// One digest per replayed backend: the MTE backends, two-tier
    /// first, then guarded (absent when skipped).
    pub digests: Vec<Digest>,
    /// Human-readable equivalence violations; empty means the oracle
    /// passed.
    pub mismatches: Vec<String>,
    /// Whether the guarded-copy tier was skipped (injection plan).
    pub guarded_skipped: bool,
}

impl DiffReport {
    /// Whether every tier of the oracle held.
    pub fn is_match(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.digests {
            writeln!(f, "{d}")?;
        }
        if self.guarded_skipped {
            writeln!(f, "  guarded: skipped (trace has an injection plan)")?;
        }
        if self.is_match() {
            write!(f, "equivalent across {} backend(s)", self.digests.len())
        } else {
            writeln!(f, "{} mismatch(es):", self.mismatches.len())?;
            for m in &self.mismatches {
                writeln!(f, "  - {m}")?;
            }
            Ok(())
        }
    }
}

/// Replays `trace` across every backend and checks all three oracle
/// tiers. Replay errors are structural trace problems and abort the
/// diff; outcome mismatches land in the report.
pub fn diff(trace: &Trace) -> Result<DiffReport, ReplayError> {
    let mut digests: Vec<Digest> = Vec::new();
    for backend in MTE_BACKENDS {
        digests.push(replay(trace, backend)?);
    }
    let mut mismatches = Vec::new();

    // Tier 1: the MTE table backends must be strictly indistinguishable.
    let baseline = &digests[0];
    for other in &digests[1..] {
        for m in baseline.strict_diff(other) {
            mismatches.push(format!("{} vs {}: {m}", baseline.backend, other.backend));
        }
    }

    // Tier 2: guarded copy must reach the same detection verdicts.
    let guarded_skipped = trace.header.plan.is_some();
    if !guarded_skipped {
        let guarded = replay(trace, Backend::Guarded)?;
        for m in digests[0].detection_diff(&guarded) {
            mismatches.push(format!("{} vs guarded: {m}", digests[0].backend));
        }
        digests.push(guarded);
    }

    // Tier 3: conservation laws hold for every replay individually.
    for d in &digests {
        for v in d.conservation_violations() {
            mismatches.push(format!("{}: {v}", d.backend));
        }
    }

    Ok(DiffReport { digests, mismatches, guarded_skipped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::record_oob_contain;

    #[test]
    fn oob_trace_is_equivalent_across_all_backends() {
        let trace = record_oob_contain(11);
        let report = diff(&trace).expect("replays cleanly");
        assert!(report.is_match(), "{report}");
        assert!(!report.guarded_skipped);
        assert_eq!(report.digests.len(), 4);
        // Every backend must actually have caught the stray write.
        for d in &report.digests {
            assert_eq!(d.detections(), 1, "{d}");
        }
    }
}
