//! Per-layer work counts read from the program's public stats.
//!
//! Counts taken over a fixed op count on a fresh single-threaded fixture
//! repeat exactly, so a later change can cite them as counts rather than
//! as speed-ups.

use jni_rt::Vm;

use crate::report::Report;

/// Cumulative counters of one VM (or the sum over a fleet's VMs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// `mte-sim`: random tag generations.
    pub irg: u64,
    /// `mte-sim`: tag loads.
    pub ldg: u64,
    /// `mte-sim`: granules tagged by `stg` and friends.
    pub stg_granules: u64,
    /// `mte-sim`: tag-check faults, sync and async.
    pub tag_faults: u64,
    /// `mte4jni`: `Get*` interpositions.
    pub acquires: u64,
    /// `mte4jni`: releases that freed the tag.
    pub tag_frees: u64,
    /// `mte4jni`: acquires redeemed from the per-thread borrow stash.
    pub stash_hits: u64,
    /// `mte4jni`: failed compare-and-swap attempts on table entries.
    pub cas_retries: u64,
    /// `mte4jni`: entries freed by a stash flush or eviction.
    pub stash_flush_frees: u64,
    /// `mte4jni`: entries force-freed at a GC safepoint.
    pub safepoint_purge_frees: u64,
    /// `heap`: pins taken by the pin ledger.
    pub pins: u64,
    /// `heap`: sweep cycles.
    pub sweeps: u64,
    /// `heap`: objects allocated.
    pub allocs: u64,
    /// `jni`: tag-check faults contained at the trampoline.
    pub contained_faults: u64,
}

impl Counts {
    pub fn of(vm: &Vm) -> Counts {
        let mte = vm.heap().memory().stats().snapshot();
        let heap = vm.heap().stats();
        let counters = vm.protection().counters();
        let counter = |name: &str| {
            counters
                .iter()
                .find(|(k, _)| *k == name)
                .map_or(0, |&(_, v)| v)
        };
        Counts {
            irg: mte.irg_ops,
            ldg: mte.ldg_ops,
            stg_granules: mte.stg_ops,
            tag_faults: mte.total_faults(),
            acquires: counter("acquires"),
            tag_frees: counter("tag_frees"),
            stash_hits: counter("atomic_stash_hits"),
            cas_retries: counter("atomic_cas_retries"),
            stash_flush_frees: counter("atomic_stash_flush_frees"),
            safepoint_purge_frees: counter("safepoint_purge_frees"),
            pins: heap.pins_total,
            sweeps: heap.sweeps,
            allocs: heap.allocated_total,
            contained_faults: vm.containment_stats().contained_faults,
        }
    }

    /// Sum over several VMs.
    pub fn of_all<'v>(vms: impl IntoIterator<Item = &'v Vm>) -> Counts {
        vms.into_iter()
            .map(Counts::of)
            .fold(Counts::default(), |a, b| a.zip(b, u64::wrapping_add))
    }

    /// Counter-wise `self - earlier`.
    pub fn since(self, earlier: Counts) -> Counts {
        self.zip(earlier, u64::wrapping_sub)
    }

    fn zip(self, o: Counts, f: fn(u64, u64) -> u64) -> Counts {
        Counts {
            irg: f(self.irg, o.irg),
            ldg: f(self.ldg, o.ldg),
            stg_granules: f(self.stg_granules, o.stg_granules),
            tag_faults: f(self.tag_faults, o.tag_faults),
            acquires: f(self.acquires, o.acquires),
            tag_frees: f(self.tag_frees, o.tag_frees),
            stash_hits: f(self.stash_hits, o.stash_hits),
            cas_retries: f(self.cas_retries, o.cas_retries),
            stash_flush_frees: f(self.stash_flush_frees, o.stash_flush_frees),
            safepoint_purge_frees: f(self.safepoint_purge_frees, o.safepoint_purge_frees),
            pins: f(self.pins, o.pins),
            sweeps: f(self.sweeps, o.sweeps),
            allocs: f(self.allocs, o.allocs),
            contained_faults: f(self.contained_faults, o.contained_faults),
        }
    }

    /// Sets the per-layer count metrics for `ops` ops (requests, on
    /// serving).
    pub fn report(&self, ops: u64, report: &mut Report) {
        let per_op = |v: u64| v as f64 / ops.max(1) as f64;
        let per_kop = |v: u64| 1000.0 * per_op(v);
        let stash_hit_ratio = if self.acquires == 0 {
            0.0
        } else {
            self.stash_hits as f64 / self.acquires as f64
        };
        for (name, value) in [
            ("mte-sim.irg_per_op", per_op(self.irg)),
            ("mte-sim.ldg_per_op", per_op(self.ldg)),
            ("mte-sim.stg_granules_per_op", per_op(self.stg_granules)),
            ("mte4jni.acquires_per_op", per_op(self.acquires)),
            ("mte4jni.tag_frees_per_op", per_op(self.tag_frees)),
            ("mte4jni.stash_hit_ratio", stash_hit_ratio),
            ("mte4jni.cas_retries_per_op", per_op(self.cas_retries)),
            ("heap.pins_per_op", per_op(self.pins)),
            ("heap.sweeps_per_kreq", per_kop(self.sweeps)),
            ("heap.allocs_per_req", per_op(self.allocs)),
            (
                "mte4jni.safepoint_purge_frees_per_kreq",
                per_kop(self.safepoint_purge_frees),
            ),
            (
                "mte4jni.stash_flush_frees_per_kreq",
                per_kop(self.stash_flush_frees),
            ),
            ("jni.contained_faults", self.contained_faults as f64),
        ] {
            report.set(name, value);
        }
    }
}
