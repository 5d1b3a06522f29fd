//! Factory for the protection schemes compared in the evaluation (§5.1).

use std::fmt;
use std::sync::Arc;

use art_heap::HeapConfig;
use guarded_copy::GuardedCopy;
use jni_rt::{NoProtection, Vm};
use mte4jni::{Mte4Jni, TableBackend, TableConfig};
use mte_sim::TcfMode;

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
