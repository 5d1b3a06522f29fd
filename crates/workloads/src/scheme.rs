//! Factory for the protection schemes compared in the evaluation (§5.1),
//! plus the backend axis the runtime's replay, serving and stress VMs
//! range over, the handles naming the schemes such a VM runs, and the
//! quiescence oracle on them.

use std::fmt;
use std::sync::Arc;

use art_heap::HeapConfig;
use guarded_copy::GuardedCopy;
use jni_rt::{ContainmentConfig, FaultPolicy, NoProtection, Protection, Vm};
use mte4jni::{Mte4Jni, TableBackend, TableConfig};
use mte_sim::{MemoryConfig, TcfMode};

/// The protection schemes of the paper's evaluation, plus the Figure 6
/// global-lock ablations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Default production configuration: checking disabled.
    NoProtection,
    /// ART CheckJNI's guarded copy.
    GuardedCopy,
    /// MTE4JNI in the synchronous error-checking mode (lock-free table,
    /// the library default).
    Mte4JniSync,
    /// MTE4JNI in the asynchronous error-checking mode (lock-free
    /// table).
    Mte4JniAsync,
    /// MTE4JNI (sync) with the paper's §4.3 two-tier hash tables — the
    /// paper-faithful ablation against the lock-free default.
    Mte4JniSyncTwoTier,
    /// MTE4JNI (async) with the two-tier hash tables.
    Mte4JniAsyncTwoTier,
    /// MTE4JNI (sync) with the naive global lock instead of the two-tier
    /// scheme.
    Mte4JniSyncGlobalLock,
    /// MTE4JNI (async) with the naive global lock.
    Mte4JniAsyncGlobalLock,
}

impl Scheme {
    /// The four schemes of §5.1, in the paper's order.
    pub const MAIN: [Scheme; 4] = [
        Scheme::NoProtection,
        Scheme::GuardedCopy,
        Scheme::Mte4JniSync,
        Scheme::Mte4JniAsync,
    ];

    /// All schemes, including the Figure 6 table ablations.
    pub const ALL: [Scheme; 8] = [
        Scheme::NoProtection,
        Scheme::GuardedCopy,
        Scheme::Mte4JniSync,
        Scheme::Mte4JniAsync,
        Scheme::Mte4JniSyncTwoTier,
        Scheme::Mte4JniAsyncTwoTier,
        Scheme::Mte4JniSyncGlobalLock,
        Scheme::Mte4JniAsyncGlobalLock,
    ];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::NoProtection => "No_Protection",
            Scheme::GuardedCopy => "Guarded_Copy",
            Scheme::Mte4JniSync => "MTE4JNI+Sync",
            Scheme::Mte4JniAsync => "MTE4JNI+Async",
            Scheme::Mte4JniSyncTwoTier => "MTE4JNI+Sync+two_tier",
            Scheme::Mte4JniAsyncTwoTier => "MTE4JNI+Async+two_tier",
            Scheme::Mte4JniSyncGlobalLock => "MTE4JNI+Sync+global_lock",
            Scheme::Mte4JniAsyncGlobalLock => "MTE4JNI+Async+global_lock",
        }
    }

    /// Whether this is one of the MTE4JNI variants.
    pub fn is_mte(self) -> bool {
        !matches!(self, Scheme::NoProtection | Scheme::GuardedCopy)
    }

    /// Builds a fully configured VM for this scheme with the paper's
    /// defaults (16 hash tables).
    pub fn build_vm(self) -> Vm {
        self.build_vm_with_tables(16)
    }

    /// Builds the VM with an explicit hash-table count (used by the `k`
    /// sweep ablation; ignored by non-MTE schemes).
    pub fn build_vm_with_tables(self, table_count: usize) -> Vm {
        // The headline MTE4JNI schemes run the library-default lock-free
        // table; the `TwoTier` variants keep the paper's §4.3 hash
        // tables as the paper-faithful ablation, and `GlobalLock` keeps
        // the naive baseline.
        let mte = |mode: TcfMode, backend: TableBackend| {
            Vm::builder()
                .heap_config(HeapConfig::mte4jni())
                .check_mode(mode)
                .protection(Arc::new(Mte4Jni::with_config(TableConfig {
                    table_count,
                    backend,
                    ..TableConfig::default()
                })))
                .build()
        };
        match self {
            Scheme::NoProtection => Vm::builder()
                .heap_config(HeapConfig::stock_art())
                .protection(Arc::new(NoProtection::new()))
                .build(),
            Scheme::GuardedCopy => Vm::builder()
                .heap_config(HeapConfig::stock_art())
                .protection(Arc::new(GuardedCopy::new()))
                .build(),
            Scheme::Mte4JniSync => mte(TcfMode::Sync, TableBackend::LockFree),
            Scheme::Mte4JniAsync => mte(TcfMode::Async, TableBackend::LockFree),
            Scheme::Mte4JniSyncTwoTier => mte(TcfMode::Sync, TableBackend::TwoTier),
            Scheme::Mte4JniAsyncTwoTier => mte(TcfMode::Async, TableBackend::TwoTier),
            Scheme::Mte4JniSyncGlobalLock => mte(TcfMode::Sync, TableBackend::Global),
            Scheme::Mte4JniAsyncGlobalLock => mte(TcfMode::Async, TableBackend::Global),
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The backend axis: which tag table MTE4JNI runs over, or guarded copy
/// in its place. Trace replay, the serving fleet and the stress
/// harness all range over it; any two MTE backends must be
/// interchangeable (DESIGN §14).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// MTE4JNI over the lock-free atomic-entry table (the default).
    LockFree,
    /// MTE4JNI over the paper's two-tier locking table.
    TwoTier,
    /// MTE4JNI over the global-lock baseline table.
    Global,
    /// The guarded-copy scheme as the primary (no MTE).
    Guarded,
}

/// Contained faults on one native method before the contained VM of
/// [`Backend::build_vm`] quarantines it: low, so quarantine happens
/// within a stress schedule's handful of rounds.
const QUARANTINE_THRESHOLD: u32 = 2;
/// Transient-failure retries inside acquire and release on the
/// contained VM of [`Backend::build_vm`].
const TRANSIENT_RETRIES: u32 = 4;

impl Backend {
    /// Every backend, report order.
    pub const ALL: [Backend; 4] = [
        Backend::LockFree,
        Backend::TwoTier,
        Backend::Global,
        Backend::Guarded,
    ];

    /// Stable label, used on command lines and in reports.
    pub fn label(self) -> &'static str {
        match self {
            Backend::LockFree => "lock-free",
            Backend::TwoTier => "two-tier",
            Backend::Global => "global",
            Backend::Guarded => "guarded",
        }
    }

    /// Parses [`Self::label`] (case-insensitive).
    pub fn parse(s: &str) -> Option<Backend> {
        Backend::ALL
            .into_iter()
            .find(|b| b.label().eq_ignore_ascii_case(s))
    }

    /// The tag table MTE4JNI runs over; `None` for guarded copy.
    pub fn table(self) -> Option<TableBackend> {
        match self {
            Backend::LockFree => Some(TableBackend::LockFree),
            Backend::TwoTier => Some(TableBackend::TwoTier),
            Backend::Global => Some(TableBackend::Global),
            Backend::Guarded => None,
        }
    }

    /// Builds the VM a tenant or a containment schedule runs over
    /// `memory`. An MTE backend gives the contained MTE4JNI VM: sync
    /// checks, a guarded-copy fallback, [`FaultPolicy::Contain`], a
    /// quarantine threshold of 2 and 4 transient retries. Guarded gives
    /// a stock-ART VM with guarded copy as the primary.
    pub fn build_vm(self, memory: MemoryConfig) -> (Vm, VmSchemes) {
        let guarded = Arc::new(GuardedCopy::new());
        let Some(backend) = self.table() else {
            let vm = Vm::builder()
                .heap_config(HeapConfig {
                    memory,
                    ..HeapConfig::stock_art()
                })
                .protection(Arc::clone(&guarded) as Arc<dyn Protection>)
                .build();
            return (
                vm,
                VmSchemes {
                    mte: None,
                    guarded: Some(guarded),
                },
            );
        };
        let mte = Arc::new(Mte4Jni::with_config(TableConfig {
            backend,
            ..TableConfig::default()
        }));
        let vm = Vm::builder()
            .heap_config(HeapConfig {
                memory,
                ..HeapConfig::mte4jni()
            })
            .check_mode(TcfMode::Sync)
            .protection(Arc::clone(&mte) as Arc<dyn Protection>)
            .fallback_protection(Arc::clone(&guarded) as Arc<dyn Protection>)
            .fault_policy(FaultPolicy::Contain)
            .containment_config(ContainmentConfig {
                quarantine_threshold: QUARANTINE_THRESHOLD,
                transient_retries: TRANSIENT_RETRIES,
            })
            .build();
        (
            vm,
            VmSchemes {
                mte: Some(mte),
                guarded: Some(guarded),
            },
        )
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The schemes a VM runs, kept so an oracle can read their tracking
/// state (the [`Vm`] itself only exposes `Arc<dyn Protection>`).
#[derive(Debug)]
pub struct VmSchemes {
    /// The MTE4JNI scheme, if the VM runs one.
    pub mte: Option<Arc<Mte4Jni>>,
    /// The guarded-copy scheme, primary or fallback, if the VM runs one.
    pub guarded: Option<Arc<GuardedCopy>>,
}

impl VmSchemes {
    /// The quiescence oracle (DESIGN §15). Runs a safepoint sweep on
    /// `vm`, the VM these schemes belong to, so an entry a release
    /// abandoned after persistent faults is purged first; then checks
    /// that no table entry is stale, that every fresh acquire was freed
    /// once by a release or a purge, that no guarded-copy shadow or
    /// native byte leaked, that nothing is still pinned and that pins
    /// balance unpins. Returns the violations; empty means quiescent.
    pub fn quiesce(&self, vm: &Vm) -> Vec<String> {
        let _ = vm.heap().sweep();
        let mut v = Vec::new();
        if let Some(mte) = &self.mte {
            let tracked = mte.table().tracked_objects();
            if tracked != 0 {
                v.push(format!("{tracked} stale table entries after quiescence"));
            }
            v.extend(mte.funnel_violation());
        }
        if let Some(guarded) = &self.guarded {
            let shadows = guarded.tracked_shadows();
            if shadows != 0 {
                v.push(format!("{shadows} guarded-copy shadows leaked"));
            }
        }
        let in_use = vm.heap().native_alloc().bytes_in_use();
        if in_use != 0 {
            v.push(format!("{in_use} native bytes leaked"));
        }
        let hs = vm.heap().stats();
        if hs.pinned_objects != 0 {
            v.push(format!("{} objects still pinned", hs.pinned_objects));
        }
        if hs.pins_total != hs.unpins_total {
            v.push(format!(
                "{} pins but {} unpins",
                hs.pins_total, hs.unpins_total
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scheme_builds_a_vm() {
        for scheme in Scheme::ALL {
            let vm = scheme.build_vm();
            let t = vm.attach_thread("probe");
            let env = vm.env(&t);
            let a = env.new_int_array_from(&[1, 2, 3]).unwrap();
            let elems = env.get_primitive_array_critical(&a).unwrap();
            let mem = env.native_mem();
            // In-bounds access works everywhere (from managed-looking
            // thread: checks dormant outside call_native).
            assert_eq!(elems.read_i32(&mem, 2).unwrap(), 3, "{scheme}");
            env.release_primitive_array_critical(&a, elems, Default::default())
                .unwrap();
        }
    }

    #[test]
    fn scheme_properties() {
        assert!(!Scheme::NoProtection.is_mte());
        assert!(!Scheme::GuardedCopy.is_mte());
        assert!(Scheme::Mte4JniSync.is_mte());
        assert!(Scheme::Mte4JniSyncTwoTier.is_mte());
        assert!(Scheme::Mte4JniAsyncGlobalLock.is_mte());
        assert_eq!(Scheme::MAIN.len(), 4);
        assert_eq!(Scheme::ALL.len(), 8);
    }

    #[test]
    fn backend_labels_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.label()), Some(b));
            assert_eq!(Backend::parse(&b.label().to_uppercase()), Some(b));
        }
        assert_eq!(Backend::parse("nope"), None);
    }

    #[test]
    fn mte_vms_use_the_paper_heap_config() {
        let vm = Scheme::Mte4JniSync.build_vm();
        assert_eq!(vm.heap().config().alignment, 16);
        assert!(vm.heap().config().prot_mte);
        assert_eq!(vm.config().check_mode, TcfMode::Sync);
        let vm = Scheme::GuardedCopy.build_vm();
        assert_eq!(vm.heap().config().alignment, 8);
        assert!(!vm.heap().config().prot_mte);
    }
}
