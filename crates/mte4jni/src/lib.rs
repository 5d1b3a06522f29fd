//! **MTE4JNI** — the paper's contribution (CGO '25): an MTE-based JNI
//! checking method that protects Java heap memory from illicit native code
//! access.
//!
//! The scheme interposes on every JNI interface that returns a raw pointer
//! to a Java heap object (Table 1) and consists of three parts (§3):
//!
//! 1. **Memory tag allocation** ([`TagTable::acquire`], Algorithm 1):
//!    before the pointer is returned, a random 4-bit tag is generated with
//!    `irg` and applied to every granule of the object with `st2g`/`stg`;
//!    the pointer is returned carrying the same tag in bits 56–59.
//!    Concurrent acquirers of the same object share one tag through a
//!    per-object **reference count**. The paper finds the count via `k`
//!    hash tables guarded by a **two-tier locking scheme** (table locks +
//!    per-object locks, [`TwoTierTable`]); the production default is the
//!    lock-free [`AtomicEntryTable`], which packs count + tag + state
//!    into one CAS-able word per object (DESIGN.md §13).
//! 2. **Memory tag release** ([`TagTable::release`], Algorithm 2): the
//!    matching release interface looks the entry up by the object's
//!    start address, decrements the count, and at zero re-zeroes the
//!    memory tags so stale tags cannot alias future allocations.
//! 3. **Thread-level MTE enabling** (§3.3): tag checking must apply only
//!    to threads executing native code, because GC and other runtime
//!    threads access the same objects with untagged pointers. The scheme
//!    reports [`Protection::uses_thread_mte`]` = true`, which makes the
//!    JNI trampolines flip the per-thread `TCO` register around native
//!    sections.
//!
//! The naive single **global lock** variant the paper compares against in
//! Figure 6 is provided as [`GlobalLockTable`].
//!
//! # Example
//!
//! ```
//! use mte4jni::{mte4jni_vm, TableConfig};
//! use mte_sim::TcfMode;
//! use jni_rt::NativeKind;
//!
//! # fn main() {
//! let vm = mte4jni_vm(TcfMode::Sync, TableConfig::default());
//! let thread = vm.attach_thread("main");
//! let env = vm.env(&thread);
//! let array = env.new_int_array(18).unwrap();
//!
//! let err = env
//!     .call_native("test_ofb", NativeKind::Normal, |env| {
//!         let elems = env.get_primitive_array_critical(&array)?;
//!         let mem = env.native_mem();
//!         elems.write_i32(&mem, 21, 0xBAD)?; // out of bounds: faults HERE
//!         env.release_primitive_array_critical(&array, elems, Default::default())
//!     })
//!     .unwrap_err();
//! assert!(err.as_tag_check().is_some());
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atomic_table;
pub mod entry;
mod scheme;
mod table;

pub use atomic_table::AtomicEntryTable;
pub use scheme::{mte4jni_vm, Mte4Jni, Mte4JniStats};
pub use table::{
    GlobalLockTable, ReleaseOutcome, TableBackend, TableConfig, TagTable, TwoTierTable,
};

// Re-exported so downstream code can name the trait without importing
// `jni_rt` separately.
pub use jni_rt::Protection;
