//! # MTE4JNI reproduction
//!
//! A full-system reproduction of *MTE4JNI: A Memory Tagging Method to
//! Protect Java Heap Memory from Illicit Native Code Access* (CGO '25) on
//! a simulated substrate, as a Rust workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`mte_sim`] | ARM MTE hardware simulation: tagged memory, tagged pointers, per-thread `TCO`, sync/async fault modes |
//! | [`art_heap`] | ART-style Java heap: object model, 8/16-byte-aligned allocation, GC scanner threads |
//! | [`jni_rt`] | the JNI layer: `JniEnv` with every Table-1 interface, trampolines, the `Protection` trait |
//! | [`guarded_copy`] | the CheckJNI guarded-copy baseline |
//! | [`mte4jni`] | **the paper's contribution**: two-tier reference-counted tag tables + thread-level MTE |
//! | [`workloads`] | GeekBench-style kernels and the scheme factory |
//! | [`dex_interp`] | a miniature managed-code interpreter: bounds-checked bytecode calling native methods through the real trampolines |
//!
//! This facade crate re-exports everything and hosts the runnable
//! examples and the cross-crate integration tests.
//!
//! ## Quickstart
//!
//! ```
//! use mte4jni_repro::prelude::*;
//!
//! // A runtime protected by MTE4JNI in synchronous mode.
//! let vm = mte4jni::mte4jni_vm(TcfMode::Sync, Default::default());
//! let thread = vm.attach_thread("main");
//! let env = vm.env(&thread);
//!
//! let array = env.new_int_array(18).unwrap();
//! let err = env
//!     .call_native("test_ofb", NativeKind::Normal, |env| {
//!         let elems = env.get_primitive_array_critical(&array)?;
//!         let mem = env.native_mem();
//!         elems.write_i32(&mem, 21, 0xBAD)?; // out of bounds!
//!         env.release_primitive_array_critical(&array, elems, Default::default())
//!     })
//!     .unwrap_err();
//! assert!(err.as_tag_check().is_some(), "caught by the simulated MTE hardware");
//! ```

pub use art_heap;
pub use dex_interp;
pub use guarded_copy;
pub use jni_rt;
pub use mte4jni;
pub use mte_sim;
pub use workloads;

/// The names most programs need, in one import.
pub mod prelude {
    pub use art_heap::{ArrayRef, Heap, HeapConfig, JavaThread, PrimitiveType, StringRef};
    pub use guarded_copy::GuardedCopy;
    pub use jni_rt::{JniEnv, JniError, NativeKind, Protection, ReleaseMode, Vm};
    pub use mte4jni::{mte4jni_vm, Mte4Jni, TableConfig};
    pub use mte_sim::{Tag, TaggedPtr, TcfMode};
    pub use workloads::Scheme;
}
