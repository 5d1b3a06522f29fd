//! Operation counters for experiments and tests.

use telemetry::Tally;

const LOADS: usize = 0;
const STORES: usize = 1;
const SYNC_FAULTS: usize = 2;
const ASYNC_FAULTS: usize = 3;
const IRG_OPS: usize = 4;
const LDG_OPS: usize = 5;
const STG_OPS: usize = 6;

/// Monotonic counters maintained by [`TaggedMemory`].
///
/// The counters make the cost model of each protection scheme observable:
/// the guarded-copy baseline shows up as bulk byte traffic while MTE4JNI
/// shows up as `stg`/`st2g` traffic roughly 1/16th the object size.
///
/// Counts are per *operation* (one `read_bytes` of any length is one
/// load; one `set_tag_range` adds its granule count once), so the wide
/// kernels (DESIGN.md §10) and the scalar reference report identical
/// deltas — the differential suite asserts exactly that. They live in a
/// [`Tally`]: a count is a plain load and store to the calling thread's
/// own row, not a locked read-modify-write.
///
/// [`TaggedMemory`]: crate::TaggedMemory
#[derive(Debug, Default)]
pub struct MteStats {
    counts: Tally<7>,
}

impl MteStats {
    #[inline]
    pub(crate) fn count_load(&self) {
        self.counts.bump(LOADS);
    }
    #[inline]
    pub(crate) fn count_store(&self) {
        self.counts.bump(STORES);
    }
    pub(crate) fn count_sync_fault(&self) {
        self.counts.bump(SYNC_FAULTS);
    }
    pub(crate) fn count_async_fault(&self) {
        self.counts.bump(ASYNC_FAULTS);
    }
    #[inline]
    pub(crate) fn count_irg(&self) {
        self.counts.bump(IRG_OPS);
    }
    #[inline]
    pub(crate) fn count_ldg(&self) {
        self.counts.bump(LDG_OPS);
    }
    #[inline]
    pub(crate) fn count_stg(&self, granules: u64) {
        self.counts.add(STG_OPS, granules);
    }

    /// Takes a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> MteStatsSnapshot {
        MteStatsSnapshot {
            loads: self.counts.get(LOADS),
            stores: self.counts.get(STORES),
            sync_faults: self.counts.get(SYNC_FAULTS),
            async_faults: self.counts.get(ASYNC_FAULTS),
            irg_ops: self.counts.get(IRG_OPS),
            ldg_ops: self.counts.get(LDG_OPS),
            stg_ops: self.counts.get(STG_OPS),
        }
    }
}

/// A point-in-time copy of [`MteStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MteStatsSnapshot {
    /// Bulk data reads performed (`read_bytes*`). Scalar accesses
    /// (`load_*`/`store_*`) are not counted, so the per-element path
    /// carries no bookkeeping at all.
    pub loads: u64,
    /// Bulk data writes performed (`write_bytes*`/`fill*`).
    pub stores: u64,
    /// Synchronous tag-check faults raised.
    pub sync_faults: u64,
    /// Asynchronous tag-check faults latched.
    pub async_faults: u64,
    /// Random tag generations (`irg`).
    pub irg_ops: u64,
    /// Tag loads (`ldg`).
    pub ldg_ops: u64,
    /// Granules tagged by `stg`/`st2g`/`stzg`/range stores.
    pub stg_ops: u64,
}

impl MteStatsSnapshot {
    /// Counter-wise difference `self - earlier`, saturating at zero.
    #[must_use]
    pub fn since(&self, earlier: &MteStatsSnapshot) -> MteStatsSnapshot {
        MteStatsSnapshot {
            loads: self.loads.saturating_sub(earlier.loads),
            stores: self.stores.saturating_sub(earlier.stores),
            sync_faults: self.sync_faults.saturating_sub(earlier.sync_faults),
            async_faults: self.async_faults.saturating_sub(earlier.async_faults),
            irg_ops: self.irg_ops.saturating_sub(earlier.irg_ops),
            ldg_ops: self.ldg_ops.saturating_sub(earlier.ldg_ops),
            stg_ops: self.stg_ops.saturating_sub(earlier.stg_ops),
        }
    }

    /// Total faults of both kinds.
    pub fn total_faults(&self) -> u64 {
        self.sync_faults + self.async_faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counts() {
        let stats = MteStats::default();
        stats.count_load();
        stats.count_load();
        stats.count_store();
        stats.count_sync_fault();
        stats.count_async_fault();
        stats.count_irg();
        stats.count_ldg();
        stats.count_stg(4);
        let snap = stats.snapshot();
        assert_eq!(snap.loads, 2);
        assert_eq!(snap.stores, 1);
        assert_eq!(snap.total_faults(), 2);
        assert_eq!(snap.irg_ops, 1);
        assert_eq!(snap.ldg_ops, 1);
        assert_eq!(snap.stg_ops, 4);
    }

    #[test]
    fn since_subtracts_saturating() {
        let a = MteStatsSnapshot {
            loads: 10,
            ..Default::default()
        };
        let b = MteStatsSnapshot {
            loads: 4,
            stores: 7,
            ..Default::default()
        };
        let d = a.since(&b);
        assert_eq!(d.loads, 6);
        assert_eq!(d.stores, 0, "saturates rather than underflows");
    }
}
