//! The simulated runtime instance.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use art_heap::{GcScanner, GcScannerConfig, Heap, HeapConfig, JavaThread};
use mte_sim::TcfMode;
use telemetry::{HistKey, HistSlot, JniInterface, LatencyOp, SizeClass, Snapshot};

use crate::containment::{Containment, ContainmentConfig, ContainmentStats, FaultPolicy, Tombstone};
use crate::env::JniEnv;
use crate::protection::{NoProtection, Protection};
use crate::trampoline::NativeKind;

/// Acquire and release histogram slots: (primary or fallback scheme) ×
/// (acquire or release) × interface × payload size class.
const BORROW_SLOTS: usize = 2 * 2 * JniInterface::ALL.len() * (SizeClass::Large as usize + 1);

/// Runtime configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VmConfig {
    /// Heap geometry, alignment and `PROT_MTE` mapping.
    pub heap: HeapConfig,
    /// Process-wide MTE check mode, applied to every attached thread
    /// (the `prctl(PR_SET_TAGGED_ADDR_CTRL, PR_MTE_TCF_*)` analogue).
    pub check_mode: TcfMode,
    /// Whether CheckJNI usage validation (outstanding acquisitions,
    /// interface pairing) is enabled on every environment.
    pub check_jni: bool,
    /// What to do when a tag-check fault crosses the trampoline boundary.
    pub fault_policy: FaultPolicy,
}

impl Default for VmConfig {
    /// Stock configuration: default heap, checking disabled, faults
    /// abort as stock MTE delivery would.
    fn default() -> Self {
        VmConfig {
            heap: HeapConfig::stock_art(),
            check_mode: TcfMode::None,
            check_jni: false,
            fault_policy: FaultPolicy::Abort,
        }
    }
}

/// A simulated Android Runtime: heap + protection scheme + MTE mode.
///
/// # Example
///
/// ```
/// use jni_rt::{Vm, NativeKind};
///
/// # fn main() -> jni_rt::Result<()> {
/// let vm = Vm::builder().build(); // no protection
/// let thread = vm.attach_thread("main");
/// let env = vm.env(&thread);
/// let array = env.new_int_array_from(&[1, 2, 3])?;
/// let sum = env.call_native("sum_native", NativeKind::Normal, |env| {
///     let elems = env.get_primitive_array_critical(&array)?;
///     let mem = env.native_mem();
///     let mut sum = 0;
///     for i in 0..elems.len() as isize {
///         sum += elems.read_i32(&mem, i)?;
///     }
///     env.release_primitive_array_critical(&array, elems, Default::default())?;
///     Ok(sum)
/// })?;
/// assert_eq!(sum, 6);
/// # Ok(())
/// # }
/// ```
pub struct Vm {
    heap: Heap,
    protection: Arc<dyn Protection>,
    fallback: Option<Arc<dyn Protection>>,
    containment: Containment,
    config: VmConfig,
    borrow_latency: [HistSlot; BORROW_SLOTS],
    trampoline_latency: [HistSlot; 3],
}

impl Vm {
    /// Starts building a VM.
    pub fn builder() -> VmBuilder {
        VmBuilder::new()
    }

    /// The Java heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The active protection scheme.
    pub fn protection(&self) -> &Arc<dyn Protection> {
        &self.protection
    }

    /// The degradation target: the scheme quarantined methods (and
    /// tag-exhausted acquires) fall back to, when one is installed.
    pub fn fallback_protection(&self) -> Option<&Arc<dyn Protection>> {
        self.fallback.as_ref()
    }

    /// The containment subsystem: quarantine table, tombstones, and
    /// degradation counters.
    pub fn containment(&self) -> &Containment {
        &self.containment
    }

    /// Current containment counters (shorthand for
    /// `vm.containment().stats()`).
    pub fn containment_stats(&self) -> ContainmentStats {
        self.containment.stats()
    }

    /// Retained tombstones, oldest first.
    pub fn tombstones(&self) -> Vec<Tombstone> {
        self.containment.tombstones()
    }

    /// Forces `method` into quarantine: every subsequent acquire made
    /// inside a `call_native(method, …)` frame routes through the
    /// fallback scheme. No-op without a fallback installed.
    pub fn quarantine_method(&self, method: &'static str) {
        self.containment.quarantine(method);
    }

    /// The runtime configuration.
    pub fn config(&self) -> VmConfig {
        self.config
    }

    /// Attaches a new Java thread: managed state, process-wide check mode
    /// inherited, `TCO` set (checks dormant until a trampoline clears it).
    pub fn attach_thread(&self, name: impl Into<Arc<str>>) -> JavaThread {
        JavaThread::with_mode(name, self.config.check_mode)
    }

    /// Creates the JNI environment for `thread`.
    pub fn env<'a>(&'a self, thread: &'a JavaThread) -> JniEnv<'a> {
        JniEnv::new(self, thread)
    }

    /// This VM's counters and every latency histogram it holds with a
    /// sample. The counters are read from the owners that keep them,
    /// under `scheme.<name>.…` keys: the simulated MTE hardware counters
    /// (`…mte.loads`, `…mte.sync_faults`, …), whatever
    /// [`Protection::counters`] reports, the heap's pin and GC totals
    /// (`…heap.pins_total`, …) and the containment counters, all under
    /// the primary scheme's name; and the fallback scheme's own
    /// [`Protection::counters`], if one is installed, under the
    /// fallback's name. The histograms are the VM's acquire, release and
    /// trampoline timings and its heap's compaction pauses. A pure read:
    /// every call sums the owners' exact tallies afresh.
    pub fn snapshot(&self) -> Snapshot {
        let mte = self.heap.memory().stats().snapshot();
        let hs = self.heap.stats();
        let cs = self.containment.stats();
        let own = [
            ("mte.loads", mte.loads),
            ("mte.stores", mte.stores),
            ("mte.sync_faults", mte.sync_faults),
            ("mte.async_faults", mte.async_faults),
            ("mte.irg_ops", mte.irg_ops),
            ("mte.ldg_ops", mte.ldg_ops),
            ("mte.stg_ops", mte.stg_ops),
            ("heap.pinned_objects", hs.pinned_objects as u64),
            ("heap.pins_total", hs.pins_total),
            ("heap.unpins_total", hs.unpins_total),
            ("heap.compactions", hs.compactions),
            ("heap.moved_objects", hs.moved_objects_total),
            ("heap.moved_bytes", hs.moved_bytes_total),
            ("heap.world_gate_waits", hs.world_gate_waits),
            ("containment.contained_faults", cs.contained_faults),
            ("containment.transient_retries", cs.transient_retries),
            ("containment.degraded_quarantine", cs.degraded_quarantine),
            ("containment.degraded_tag_exhaustion", cs.degraded_tag_exhaustion),
            ("containment.quarantined_methods", cs.quarantined_methods),
        ];
        let scheme = self.protection.name();
        let mut snap = Snapshot {
            counters: own
                .into_iter()
                .chain(self.protection.counters())
                .map(|(key, value)| (format!("scheme.{scheme}.{key}"), value))
                .collect(),
            histograms: Vec::new(),
        };
        if let Some(fallback) = &self.fallback {
            let scheme = fallback.name();
            snap.counters.extend(
                fallback
                    .counters()
                    .into_iter()
                    .map(|(key, value)| (format!("scheme.{scheme}.{key}"), value)),
            );
        }
        self.borrow_latency
            .iter()
            .chain(&self.trampoline_latency)
            .filter_map(HistSlot::summary)
            .chain(self.heap.compaction_pauses())
            .for_each(|h| snap.add_histogram(h));
        snap
    }

    /// The scheme a borrow routes through: the primary protection, or
    /// the degradation fallback for quarantined/degraded borrows.
    pub(crate) fn scheme_for(&self, via_fallback: bool) -> &Arc<dyn Protection> {
        if via_fallback {
            self.fallback
                .as_ref()
                .expect("fallback routing requires a fallback scheme")
        } else {
            &self.protection
        }
    }

    /// Records an acquire or release (`op`) on `interface` of a
    /// `size`-class payload, through the primary scheme or the fallback.
    pub(crate) fn record_borrow(
        &self,
        via_fallback: bool,
        op: LatencyOp,
        interface: JniInterface,
        size: SizeClass,
        elapsed: Duration,
    ) {
        debug_assert!(matches!(op, LatencyOp::Acquire | LatencyOp::Release));
        let row = usize::from(via_fallback) * 2 + usize::from(op == LatencyOp::Release);
        let slot = (row * JniInterface::ALL.len() + usize::from(interface.index()))
            * (SizeClass::Large as usize + 1)
            + size as usize;
        let key = || HistKey {
            tenant: None,
            scheme: self.scheme_for(via_fallback).name(),
            interface: interface.label(),
            size_class: size,
            op,
        };
        self.borrow_latency[slot].record(key, elapsed);
    }

    /// Records one `kind` trampoline (no payload, so one size class).
    pub(crate) fn record_trampoline(&self, kind: NativeKind, elapsed: Duration) {
        let key = || HistKey {
            tenant: None,
            scheme: self.protection.name(),
            interface: kind.label(),
            size_class: SizeClass::Tiny,
            op: LatencyOp::Trampoline,
        };
        self.trampoline_latency[kind as usize].record(key, elapsed);
    }

    /// Starts a correctly configured background GC scanner: it inherits
    /// the process check mode but keeps `TCO` set, as a runtime-internal
    /// thread must under MTE4JNI.
    pub fn start_gc(&self, interval: Duration) -> GcScanner {
        GcScanner::start(
            &self.heap,
            GcScannerConfig {
                interval,
                mode: self.config.check_mode,
                tco: true,
                ..GcScannerConfig::default()
            },
        )
    }

    /// Starts a background scanner whose cycles run the compacting
    /// collector instead of the plain sweep ([`Heap::compact`]): pinned
    /// objects are left in place, everything else slides down, and the
    /// protection scheme's [`Protection::on_safepoint`] hook first
    /// retires any per-object state (e.g. tag-table entries) it still
    /// holds for an object about to move.
    pub fn start_compacting_gc(&self, interval: Duration) -> GcScanner {
        GcScanner::start(
            &self.heap,
            GcScannerConfig {
                interval,
                mode: self.config.check_mode,
                tco: true,
                compact: true,
                ..GcScannerConfig::default()
            },
        )
    }
}

impl fmt::Debug for Vm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vm")
            .field("scheme", &self.protection.name())
            .field("check_mode", &self.config.check_mode)
            .field("heap", &self.config.heap)
            .finish()
    }
}

/// Builder for [`Vm`].
#[derive(Debug)]
pub struct VmBuilder {
    heap: HeapConfig,
    check_mode: TcfMode,
    check_jni: bool,
    fault_policy: FaultPolicy,
    containment: ContainmentConfig,
    protection: Option<Arc<dyn Protection>>,
    fallback: Option<Arc<dyn Protection>>,
}

impl VmBuilder {
    fn new() -> VmBuilder {
        VmBuilder {
            heap: HeapConfig::stock_art(),
            check_mode: TcfMode::None,
            check_jni: false,
            fault_policy: FaultPolicy::Abort,
            containment: ContainmentConfig::default(),
            protection: None,
            fallback: None,
        }
    }

    /// Sets the heap configuration.
    pub fn heap_config(mut self, heap: HeapConfig) -> VmBuilder {
        self.heap = heap;
        self
    }

    /// Sets the process-wide MTE check mode.
    pub fn check_mode(mut self, mode: TcfMode) -> VmBuilder {
        self.check_mode = mode;
        self
    }

    /// Enables CheckJNI usage validation (outstanding acquisitions,
    /// release interface pairing — paper §6.3).
    pub fn check_jni(mut self, enabled: bool) -> VmBuilder {
        self.check_jni = enabled;
        self
    }

    /// Installs the protection scheme (default: [`NoProtection`]).
    pub fn protection(mut self, protection: Arc<dyn Protection>) -> VmBuilder {
        self.protection = Some(protection);
        self
    }

    /// Sets the fault policy (default: [`FaultPolicy::Abort`]).
    pub fn fault_policy(mut self, policy: FaultPolicy) -> VmBuilder {
        self.fault_policy = policy;
        self
    }

    /// Installs the degradation fallback scheme (typically guarded
    /// copy): quarantined methods and tag-exhausted acquires route here
    /// instead of failing.
    pub fn fallback_protection(mut self, fallback: Arc<dyn Protection>) -> VmBuilder {
        self.fallback = Some(fallback);
        self
    }

    /// Tunes quarantine thresholds and retry bounds.
    pub fn containment_config(mut self, config: ContainmentConfig) -> VmBuilder {
        self.containment = config;
        self
    }

    /// Builds the VM. The heap's safepoint hook is wired to the
    /// protection scheme so every sweep or compaction lets the scheme
    /// retire entries it still holds for the collector's candidates
    /// (e.g. MTE4JNI tag-table entries) before the collector acts on
    /// them.
    pub fn build(self) -> Vm {
        let heap = Heap::new(self.heap);
        let protection = self.protection.unwrap_or_else(|| Arc::new(NoProtection));
        heap.set_safepoint_hook({
            let protection = Arc::clone(&protection);
            let fallback = self.fallback.clone();
            let mem = Arc::clone(heap.memory());
            move |sp| {
                protection.on_safepoint(&mem, sp);
                if let Some(fb) = &fallback {
                    fb.on_safepoint(&mem, sp);
                }
            }
        });
        Vm {
            heap,
            protection,
            fallback: self.fallback,
            containment: Containment::new(self.containment),
            config: VmConfig {
                heap: self.heap,
                check_mode: self.check_mode,
                check_jni: self.check_jni,
                fault_policy: self.fault_policy,
            },
            borrow_latency: std::array::from_fn(|_| HistSlot::default()),
            trampoline_latency: Default::default(),
        }
    }
}

impl Default for VmBuilder {
    fn default() -> Self {
        VmBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_vm_has_no_protection() {
        let vm = Vm::builder().build();
        assert_eq!(vm.protection().name(), "no-protection");
        assert_eq!(vm.config().check_mode, TcfMode::None);
    }

    #[test]
    fn attached_threads_inherit_check_mode() {
        let vm = Vm::builder().check_mode(TcfMode::Sync).build();
        let t = vm.attach_thread("worker");
        assert_eq!(t.mte().mode(), TcfMode::Sync);
        assert!(t.mte().tco(), "dormant until a trampoline clears TCO");
    }

    #[test]
    fn gc_scanner_on_protected_vm_never_faults() {
        let vm = Vm::builder()
            .heap_config(HeapConfig::mte4jni())
            .check_mode(TcfMode::Sync)
            .build();
        let _a = vm.heap().alloc_int_array(128).unwrap();
        let gc = vm.start_gc(Duration::from_micros(200));
        while gc.cycles() < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = gc.stop();
        assert!(report.faults.is_empty());
    }
}
