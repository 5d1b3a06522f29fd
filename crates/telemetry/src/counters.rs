//! A process-wide named-counter registry.
//!
//! Counters complement the events and histograms: they are exact, named
//! freely, cheap to bump, and absorbed into [`crate::Snapshot`] under
//! dotted names — `mte.sync_faults`, `scheme.mte4jni.pool_hits`,
//! `jni.guard_drops`, … Sources that already keep their own atomics
//! (like `MteStats`) publish them at snapshot time via
//! [`CounterRegistry::set`] rather than double-counting on the hot path.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// A registry of named monotonic counters.
#[derive(Debug, Default)]
pub struct CounterRegistry {
    map: Mutex<BTreeMap<String, u64>>,
}

impl CounterRegistry {
    /// Adds `delta` to `name`, creating it at zero first.
    pub fn add(&self, name: &str, delta: u64) {
        let mut map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match map.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                map.insert(name.to_owned(), delta);
            }
        }
    }

    /// Sets `name` to an externally maintained absolute `value`.
    pub fn set(&self, name: &str, value: u64) {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(name.to_owned(), value);
    }

    /// Current value of `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Clears every counter.
    pub fn clear(&self) {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

/// The process-wide registry.
pub fn counters() -> &'static CounterRegistry {
    static COUNTERS: OnceLock<CounterRegistry> = OnceLock::new();
    COUNTERS.get_or_init(CounterRegistry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_set_get_round_trip() {
        let reg = CounterRegistry::default();
        reg.add("a.b", 2);
        reg.add("a.b", 3);
        reg.set("c", 10);
        assert_eq!(reg.get("a.b"), 5);
        assert_eq!(reg.get("c"), 10);
        assert_eq!(reg.get("missing"), 0);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap["a.b"], 5);
        reg.clear();
        assert_eq!(reg.get("a.b"), 0);
    }

    #[test]
    fn add_saturates() {
        let reg = CounterRegistry::default();
        reg.set("x", u64::MAX - 1);
        reg.add("x", 5);
        assert_eq!(reg.get("x"), u64::MAX);
    }
}
