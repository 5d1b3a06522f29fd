//! Replay-based tombstone reproduction: a fault contained under
//! `FaultPolicy::Contain` during recording must be contained again at
//! the same point when the trace is replayed, with identical borrow
//! attribution — method, interface, and faulting address.

use telemetry::trace::TraceEvent;
use trace::{record_oob_contain, replay};
use workloads::Backend;

#[test]
fn replay_reproduces_the_recorded_tombstone_attribution() {
    let trace = record_oob_contain(11);

    // The recording contained exactly one fault, attributed to the
    // critical borrow of the 18-int array inside Lib.oobWrite.
    let recorded: Vec<(u64, String, u64, u8)> = trace
        .events
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::Tombstone { seq, method, fault_addr, interface, .. } => {
                Some((*seq, method.clone(), *fault_addr, *interface))
            }
            _ => None,
        })
        .collect();
    assert_eq!(recorded.len(), 1, "recording should contain one fault");
    let (seq, method, fault_addr, interface) = &recorded[0];
    assert_eq!(method, "Lib.oobWrite");
    assert_ne!(*interface, u8::MAX, "the fault must carry borrow attribution");

    // Replaying on the recording's own backend reproduces the tombstone
    // exactly: same sequence number, method, interface, and address.
    let digest = replay(&trace, Backend::TwoTier).expect("replays");
    assert_eq!(
        digest.tombstones,
        vec![(*seq, method.clone(), *fault_addr, *interface)],
        "replayed tombstone must carry the recorded attribution"
    );
    assert_eq!(digest.contained_faults, 1);
    assert_eq!(digest.detections(), 1);

    // The other MTE tables must reproduce the same containment — the
    // table is an implementation detail of tag bookkeeping, not of
    // fault attribution.
    for backend in [Backend::LockFree, Backend::Global] {
        let d = replay(&trace, backend).expect("replays");
        assert_eq!(d.tombstones, digest.tombstones, "{backend}");
    }
}
