//! Fault containment, quarantine, and graceful degradation.
//!
//! A production ART does not die on the first native-memory fault: the
//! kernel delivers `SIGSEGV`, the runtime writes a tombstone, and —
//! depending on policy — the process either aborts or the offending
//! native method is walled off while the VM keeps serving other
//! threads. This module holds the policy knob ([`FaultPolicy`]), the
//! per-VM containment state (quarantine table, counters, retained
//! tombstones), and the logcat-style [`Tombstone`] record itself. The
//! actual catch happens at the `call_native` trampoline boundary in
//! [`JniEnv::call_native`]; the state machine is documented in
//! DESIGN.md §12.
//!
//! [`JniEnv::call_native`]: crate::JniEnv::call_native

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use mte_sim::sync::Mutex;
use mte_sim::{FaultKind, TagCheckFault};
use telemetry::json::JsonValue;

/// What the VM does when a tag-check fault crosses the `call_native`
/// trampoline boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Propagate the fault to the caller unchanged — the simulated
    /// process dies, as stock MTE delivery would have it.
    #[default]
    Abort,
    /// Contain the fault at the trampoline: write a tombstone, release
    /// the leaked borrows so tables/pins/tags stay balanced, and return
    /// [`JniError::ContainedFault`](crate::JniError::ContainedFault)
    /// while the VM keeps running.
    Contain,
}

/// Why an acquire was downgraded from the primary protection scheme to
/// the guarded-copy fallback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DegradeReason {
    /// The native method is quarantined after repeated contained faults.
    Quarantine,
    /// `irg` tag-pool exhaustion left no usable tag for this acquire.
    TagExhaustion,
}

/// Tuning for the containment subsystem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContainmentConfig {
    /// Contained faults attributed to one native method before that
    /// method is quarantined (all subsequent acquires routed through the
    /// guarded-copy fallback).
    pub quarantine_threshold: u32,
    /// Bounded retries for transient (`MemError::is_transient`) acquire
    /// and release failures before the error is propagated.
    pub transient_retries: u32,
}

/// Tombstones retained per VM; older ones are dropped (the
/// contained-fault counter keeps the true total).
const MAX_TOMBSTONES: usize = 64;

impl Default for ContainmentConfig {
    fn default() -> Self {
        ContainmentConfig {
            quarantine_threshold: 3,
            transient_retries: 3,
        }
    }
}

/// A logcat-style record of one contained fault: the full hardware
/// fault report plus what the containment pass did about it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tombstone {
    /// Per-VM sequence number, starting at 0.
    pub seq: u64,
    /// The native method whose call the fault was contained in.
    pub method: &'static str,
    /// Label of the VM's primary protection scheme.
    pub scheme: String,
    /// The fault itself, attribution included when known.
    pub fault: TagCheckFault,
    /// Borrows still live at the trampoline when the fault surfaced,
    /// force-released by the containment pass.
    pub released_borrows: u32,
    /// Whether this fault pushed the method over the quarantine
    /// threshold.
    pub quarantined: bool,
}

impl fmt::Display for Tombstone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "*** *** *** *** *** *** *** *** *** *** *** ***")?;
        writeln!(f, "Tombstone #{} (contained, VM kept alive)", self.seq)?;
        writeln!(f, "native method: {} (scheme {})", self.method, self.scheme)?;
        writeln!(f, "{}", self.fault)?;
        writeln!(f, "    leaked borrows force-released: {}", self.released_borrows)?;
        if self.quarantined {
            writeln!(f, "    method quarantined: future acquires degrade to guarded copy")?;
        }
        Ok(())
    }
}

impl Tombstone {
    /// Serializes the tombstone (the same fields the `Display` report
    /// renders, plus the structured fault).
    pub fn to_json(&self) -> JsonValue {
        let mut fault = JsonValue::object();
        fault.insert(
            "kind",
            match self.fault.kind {
                FaultKind::Sync => "sync",
                FaultKind::Async => "async",
            },
        );
        fault.insert("fault_addr", format!("{:#x}", self.fault.pointer.addr()));
        fault.insert("pointer_tag", self.fault.pointer_tag.to_string());
        fault.insert("memory_tag", self.fault.memory_tag.to_string());
        fault.insert("access", self.fault.access.to_string());
        fault.insert("thread", self.fault.thread.to_string());
        if let Some(a) = &self.fault.attribution {
            fault.insert("interface", a.interface.get_name());
            fault.insert("scheme", a.scheme.to_string());
        }
        let frames: Vec<JsonValue> = self
            .fault
            .backtrace
            .frames()
            .iter()
            .map(|fr| format!("{fr}").into())
            .collect();
        fault.insert("backtrace", frames);

        let mut doc = JsonValue::object();
        doc.insert("seq", self.seq);
        doc.insert("method", self.method);
        doc.insert("scheme", self.scheme.as_str());
        doc.insert("released_borrows", u64::from(self.released_borrows));
        doc.insert("quarantined", self.quarantined);
        doc.insert("fault", fault);
        doc
    }
}

/// Point-in-time view of a VM's containment counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContainmentStats {
    /// Tag-check faults contained at the trampoline boundary.
    pub contained_faults: u64,
    /// Transient-failure retries performed (acquire + release).
    pub transient_retries: u64,
    /// Acquires routed to the fallback because the method is quarantined.
    pub degraded_quarantine: u64,
    /// Acquires degraded to the fallback after `irg` tag exhaustion.
    pub degraded_tag_exhaustion: u64,
    /// Native methods currently quarantined.
    pub quarantined_methods: u64,
}

#[derive(Debug, Default)]
struct ContainmentState {
    per_method: HashMap<&'static str, u32>,
    quarantined: HashSet<&'static str>,
    tombstones: Vec<Tombstone>,
}

/// Per-VM containment bookkeeping: quarantine table, retained
/// tombstones, and degradation counters. Obtained via
/// [`Vm::containment`](crate::Vm::containment).
#[derive(Debug)]
pub struct Containment {
    config: ContainmentConfig,
    state: Mutex<ContainmentState>,
    contained: AtomicU64,
    retries: AtomicU64,
    degraded_quarantine: AtomicU64,
    degraded_exhaust: AtomicU64,
}

impl Containment {
    pub(crate) fn new(config: ContainmentConfig) -> Containment {
        Containment {
            config,
            state: Mutex::new(ContainmentState::default()),
            contained: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            degraded_quarantine: AtomicU64::new(0),
            degraded_exhaust: AtomicU64::new(0),
        }
    }

    /// The active tuning.
    pub fn config(&self) -> &ContainmentConfig {
        &self.config
    }

    /// Whether acquires from `method` are currently routed to the
    /// fallback scheme.
    pub fn is_quarantined(&self, method: &str) -> bool {
        self.state.lock().quarantined.contains(method)
    }

    /// Native methods currently quarantined, sorted for determinism.
    pub fn quarantined_methods(&self) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self.state.lock().quarantined.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Forces `method` into quarantine without waiting for faults (used
    /// by benches to measure the degraded path directly).
    pub fn quarantine(&self, method: &'static str) {
        self.state.lock().quarantined.insert(method);
    }

    /// The retained tombstones, oldest first.
    pub fn tombstones(&self) -> Vec<Tombstone> {
        self.state.lock().tombstones.clone()
    }

    /// Current counter values.
    pub fn stats(&self) -> ContainmentStats {
        let quarantined = self.state.lock().quarantined.len() as u64;
        ContainmentStats {
            contained_faults: self.contained.load(Ordering::Relaxed),
            transient_retries: self.retries.load(Ordering::Relaxed),
            degraded_quarantine: self.degraded_quarantine.load(Ordering::Relaxed),
            degraded_tag_exhaustion: self.degraded_exhaust.load(Ordering::Relaxed),
            quarantined_methods: quarantined,
        }
    }

    pub(crate) fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_degraded(&self, reason: DegradeReason) {
        match reason {
            DegradeReason::Quarantine => &self.degraded_quarantine,
            DegradeReason::TagExhaustion => &self.degraded_exhaust,
        }
        .fetch_add(1, Ordering::Relaxed);
        telemetry::trace::emit(|| telemetry::trace::TraceEvent::Degraded {
            reason: match reason {
                DegradeReason::Quarantine => 0,
                DegradeReason::TagExhaustion => 1,
            },
        });
    }

    /// Records one contained fault against `method`: bumps the counters,
    /// quarantines the method once it crosses the threshold, retains the
    /// tombstone. Returns the finished record.
    pub(crate) fn record_contained(
        &self,
        method: &'static str,
        scheme: String,
        fault: TagCheckFault,
        released_borrows: u32,
    ) -> Tombstone {
        let seq = self.contained.fetch_add(1, Ordering::Relaxed);
        let mut state = self.state.lock();
        let count = state.per_method.entry(method).or_insert(0);
        *count += 1;
        let quarantined = if *count >= self.config.quarantine_threshold {
            state.quarantined.insert(method)
        } else {
            false
        };
        let tombstone = Tombstone {
            seq,
            method,
            scheme,
            fault,
            released_borrows,
            quarantined,
        };
        state.tombstones.push(tombstone.clone());
        if state.tombstones.len() > MAX_TOMBSTONES {
            state.tombstones.remove(0);
        }
        telemetry::trace::emit(|| telemetry::trace::TraceEvent::Tombstone {
            seq: tombstone.seq,
            method: method.to_owned(),
            fault_addr: tombstone.fault.pointer.addr(),
            interface: tombstone
                .fault
                .attribution
                .as_ref()
                .map_or(u8::MAX, |a| a.interface.index()),
            released: released_borrows,
        });
        if tombstone.quarantined {
            telemetry::trace::emit(|| telemetry::trace::TraceEvent::Quarantined {
                method: method.to_owned(),
            });
        }
        tombstone
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mte_sim::{AccessKind, Backtrace, FaultAttribution, Tag, TaggedPtr};
    use telemetry::JniInterface;

    fn sample_fault() -> TagCheckFault {
        TagCheckFault {
            kind: FaultKind::Sync,
            pointer: TaggedPtr::from_addr(0x7a00_0000_1000).with_tag(Tag::new(5).unwrap()),
            pointer_tag: Tag::new(5).unwrap(),
            memory_tag: Tag::new(9).unwrap(),
            access: AccessKind::Write,
            thread: "worker".into(),
            backtrace: Backtrace::default(),
            attribution: Some(FaultAttribution {
                interface: JniInterface::ArrayElements,
                scheme: "mte4jni".into(),
            }),
        }
    }

    #[test]
    fn threshold_quarantines_exactly_once() {
        let c = Containment::new(ContainmentConfig {
            quarantine_threshold: 2,
            ..ContainmentConfig::default()
        });
        let t1 = c.record_contained("native_churn", "mte4jni".into(), sample_fault(), 1);
        assert!(!t1.quarantined);
        assert!(!c.is_quarantined("native_churn"));
        let t2 = c.record_contained("native_churn", "mte4jni".into(), sample_fault(), 0);
        assert!(t2.quarantined, "second fault crosses the threshold");
        assert!(c.is_quarantined("native_churn"));
        // A third fault keeps the method quarantined but does not report
        // a fresh transition.
        let t3 = c.record_contained("native_churn", "mte4jni".into(), sample_fault(), 0);
        assert!(!t3.quarantined);
        assert_eq!(c.quarantined_methods(), vec!["native_churn"]);
        let stats = c.stats();
        assert_eq!(stats.contained_faults, 3);
        assert_eq!(stats.quarantined_methods, 1);
    }

    #[test]
    fn tombstone_report_extends_the_fault_report() {
        let c = Containment::new(ContainmentConfig::default());
        let t = c.record_contained("native_scan", "mte4jni".into(), sample_fault(), 2);
        let report = t.to_string();
        assert!(report.contains("Tombstone #0"), "{report}");
        assert!(report.contains("SEGV_MTESERR"), "{report}");
        assert!(report.contains("native_scan"), "{report}");
        assert!(report.contains("Get<Type>ArrayElements"), "{report}");
        assert!(report.contains("force-released: 2"), "{report}");
    }

    #[test]
    fn tombstone_json_carries_attribution() {
        let t = Tombstone {
            seq: 7,
            method: "native_churn",
            scheme: "mte4jni".into(),
            fault: sample_fault(),
            released_borrows: 1,
            quarantined: true,
        };
        let doc = t.to_json();
        assert_eq!(doc.get("seq").unwrap().as_u64(), Some(7));
        assert_eq!(doc.get("quarantined").unwrap(), &JsonValue::from(true));
        let fault = doc.get("fault").unwrap();
        assert_eq!(
            fault.get("interface").unwrap().as_str(),
            Some("Get<Type>ArrayElements")
        );
        // The serialization round-trips through the parser.
        let parsed = telemetry::json::parse(&doc.to_pretty_string()).unwrap();
        assert_eq!(parsed.get("method").unwrap().as_str(), Some("native_churn"));
    }

    #[test]
    fn retained_tombstones_are_bounded() {
        let c = Containment::new(ContainmentConfig {
            quarantine_threshold: u32::MAX,
            ..ContainmentConfig::default()
        });
        let faults = MAX_TOMBSTONES + 3;
        for _ in 0..faults {
            c.record_contained("m", "mte4jni".into(), sample_fault(), 0);
        }
        let kept = c.tombstones();
        assert_eq!(kept.len(), MAX_TOMBSTONES);
        assert_eq!(kept[0].seq, 3, "oldest retained after trimming");
        assert_eq!(
            c.stats().contained_faults,
            faults as u64,
            "total still counts everything"
        );
    }
}
