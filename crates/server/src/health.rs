//! The per-tenant health state machine.
//!
//! Health is a monotonic latch over four states: a tenant can only get
//! sicker (`Healthy → Degraded → Quarantined → Evicted`) — recovery
//! would mean re-admitting a VM whose containment history the fleet no
//! longer trusts, which is an operator decision, not an automatic one.
//!
//! The inputs are the VM's own containment counters
//! ([`jni_rt::ContainmentStats`]): one contained tag-check fault makes
//! a tenant `Degraded` and four make it `Quarantined`; `TagExhausted`
//! single-acquire degradations and per-method quarantine routing mark
//! the tenant `Degraded` but — by design — **never** push it past that
//! on their own: running on the guarded-copy fallback is a correct
//! (slower) mode, not a fault. `Evicted` is reached only through
//! [`HealthTracker::evict`].

use std::sync::atomic::{AtomicU8, Ordering};

use jni_rt::ContainmentStats;

/// A tenant's health state, worst first wins.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// No containment events at all.
    Healthy,
    /// Running, but some requests degraded (contained faults below the
    /// quarantine threshold, `TagExhausted` fallbacks, or per-method
    /// quarantine routing).
    Degraded,
    /// Fault pressure crossed the quarantine thresholds: admission
    /// sheds every new request for this tenant.
    Quarantined,
    /// Removed from the fleet; its VM is being (or has been) torn down.
    Evicted,
}

impl Health {
    /// Display label (stable; used in JSON rollups).
    pub fn label(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Quarantined => "quarantined",
            Health::Evicted => "evicted",
        }
    }

    fn from_u8(v: u8) -> Health {
        match v {
            0 => Health::Healthy,
            1 => Health::Degraded,
            2 => Health::Quarantined,
            _ => Health::Evicted,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Health::Healthy => 0,
            Health::Degraded => 1,
            Health::Quarantined => 2,
            Health::Evicted => 3,
        }
    }

    /// Whether admission control sheds all traffic in this state.
    pub fn sheds_all(self) -> bool {
        self >= Health::Quarantined
    }
}

/// Contained faults at which a tenant leaves `Healthy`.
const DEGRADE_AFTER_CONTAINED: u64 = 1;
/// Contained faults at which a tenant is quarantined.
const QUARANTINE_AFTER_CONTAINED: u64 = 4;

/// The monotonic health latch for one tenant; the default is a healthy
/// tenant (`Healthy` is state 0).
#[derive(Debug, Default)]
pub struct HealthTracker {
    state: AtomicU8,
}

impl HealthTracker {

    /// Current state.
    pub fn current(&self) -> Health {
        Health::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Folds the VM's containment counters into the latch and returns
    /// the (possibly escalated) state. Concurrent observers race
    /// benignly: `fetch_max` keeps the latch monotonic.
    pub fn observe(&self, stats: &ContainmentStats) -> Health {
        let target = if stats.contained_faults >= QUARANTINE_AFTER_CONTAINED {
            Health::Quarantined
        } else if stats.contained_faults >= DEGRADE_AFTER_CONTAINED
            || stats.degraded_tag_exhaustion > 0
            || stats.degraded_quarantine > 0
            || stats.quarantined_methods > 0
        {
            // TagExhausted fallbacks and per-method quarantine routing
            // are correct degraded operation — they never escalate a
            // tenant past Degraded by themselves.
            Health::Degraded
        } else {
            Health::Healthy
        };
        let prev = self.state.fetch_max(target.as_u8(), Ordering::AcqRel);
        Health::from_u8(prev.max(target.as_u8()))
    }

    /// Latches `Evicted` (terminal).
    pub fn evict(&self) {
        self.state
            .fetch_max(Health::Evicted.as_u8(), Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> ContainmentStats {
        ContainmentStats::default()
    }

    #[test]
    fn health_is_a_monotonic_latch() {
        let t = HealthTracker::default();
        assert_eq!(t.current(), Health::Healthy);
        let mut s = stats();
        s.contained_faults = 1;
        assert_eq!(t.observe(&s), Health::Degraded);
        // Counters going "quiet" again does not heal the tenant.
        assert_eq!(t.observe(&stats()), Health::Degraded);
        s.contained_faults = 4;
        assert_eq!(t.observe(&s), Health::Quarantined);
        assert!(t.current().sheds_all());
        t.evict();
        assert_eq!(t.current(), Health::Evicted);
    }

    #[test]
    fn tag_exhaustion_caps_at_degraded() {
        let t = HealthTracker::default();
        let mut s = stats();
        s.degraded_tag_exhaustion = 1_000_000;
        assert_eq!(t.observe(&s), Health::Degraded);
        s.degraded_quarantine = 1_000_000;
        s.quarantined_methods = 50;
        assert_eq!(t.observe(&s), Health::Degraded);
        assert!(!t.current().sheds_all());
    }
}
