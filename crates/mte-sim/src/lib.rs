//! Software simulation of the ARM Memory Tagging Extension (MTE).
//!
//! This crate reproduces, in portable Rust, the MTE semantics that the
//! MTE4JNI scheme (CGO '25) depends on:
//!
//! * a flat, byte-addressable [`TaggedMemory`] carrying a 4-bit *memory tag*
//!   per 16-byte granule ([`GRANULE`]),
//! * [`TaggedPtr`], a 64-bit pointer with a 4-bit *pointer tag* in bits
//!   56–59 that is inherited through pointer arithmetic,
//! * the tag-manipulation instructions `irg`, `ldg`, `stg`, `st2g` and
//!   `stzg` as methods on [`TaggedMemory`],
//! * per-thread check control ([`MteThread`]): the `TCO` (tag check
//!   override) register and the synchronous / asynchronous tag-check fault
//!   modes ([`TcfMode`]), including the TFSR-style latch that defers
//!   asynchronous faults to the next simulated syscall,
//! * `PROT_MTE` page protection ([`TaggedMemory::mprotect_mte`]) — tag
//!   checks apply only to pages mapped with `PROT_MTE`,
//! * logcat-style fault reports ([`TagCheckFault`]) whose backtrace
//!   precision differs between sync and async modes exactly as the paper's
//!   Figure 4 illustrates.
//!
//! # Example
//!
//! ```
//! use mte_sim::{MemoryConfig, MteThread, TaggedMemory, TcfMode};
//!
//! # fn main() -> Result<(), mte_sim::MemError> {
//! let mem = TaggedMemory::new(MemoryConfig::default());
//! let thread = MteThread::new("worker");
//! thread.set_mode(TcfMode::Sync);
//! thread.set_tco(false); // enable checks on this thread
//!
//! // Map a page with PROT_MTE and tag one granule.
//! let addr = mem.base();
//! mem.mprotect_mte(addr, 4096, true)?;
//! let tag = thread.irg();
//! let ptr = mte_sim::TaggedPtr::from_addr(addr).with_tag(tag);
//! mem.stg(ptr, tag)?;
//!
//! // Accesses through the matching pointer succeed...
//! mem.store_u32(&thread, ptr, 0xdead_beef)?;
//! assert_eq!(mem.load_u32(&thread, ptr)?, 0xdead_beef);
//!
//! // ...but an access 16 bytes past the tagged granule faults.
//! assert!(mem.load_u32(&thread, ptr.wrapping_add(16)).is_err());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block_alloc;
mod error;
mod fault;
pub mod inject;
mod memory;
mod nalloc;
mod pointer;
pub mod reference;
mod stats;
pub mod sync;
mod tag;
mod thread;

pub use block_alloc::BlockAllocator;
pub use error::MemError;
pub use fault::{AccessKind, Backtrace, FaultAttribution, FaultKind, Frame, TagCheckFault};
pub use memory::{MemoryConfig, PlaneView, TaggedMemory};
pub use nalloc::NativeAllocator;
pub use pointer::TaggedPtr;
pub use reference::ScalarMemory;
pub use stats::{MteStats, MteStatsSnapshot};
pub use tag::{Tag, GRANULE, PAGE_SIZE, TAG_BITS, TAGS_PER_WORD};
pub use thread::{FrameGuard, MteThread, TcfMode};

/// Convenience alias for results whose error type is [`MemError`].
pub type Result<T> = std::result::Result<T, MemError>;
