//! The hooks word: one process-wide `AtomicU32` that says whether any
//! per-access hook can do work. Bit 31 ([`TRACE_BIT`]) is set while a
//! [`trace`](crate::trace) sink is installed; the low 31 bits count the
//! threads with an armed fault injector (`mte_sim::inject`).
//!
//! A checked native element access (`jni_rt::NativeArray::read_*` /
//! `write_*`) loads this word once. While it is zero neither hook can
//! fire (no sink to emit to, and no thread — the accessing one included
//! — armed), so the access runs without the injection draw and the
//! trace emit. While it is nonzero the access takes the hooked path,
//! where each hook reads its own half of the word again.
//!
//! `Relaxed` suffices for the armed count: it publishes no data (each
//! thread reads only its own injector), and a thread always observes
//! its own increment, so an armed thread never sees zero. The trace bit
//! is flipped `SeqCst`, as the sink install it announces is.

use std::sync::atomic::{AtomicU32, Ordering};

/// Set while a trace sink is installed.
pub const TRACE_BIT: u32 = 1 << 31;

static HOOKS: AtomicU32 = AtomicU32::new(0);

/// The hooks word: zero when no per-access hook can fire.
#[inline(always)]
pub fn word() -> u32 {
    HOOKS.load(Ordering::Relaxed)
}

/// Threads whose fault injector is armed.
#[inline(always)]
pub fn armed() -> u32 {
    word() & !TRACE_BIT
}

/// Counts one more armed thread; pair with [`disarm`].
pub fn arm() {
    HOOKS.fetch_add(1, Ordering::Relaxed);
}

/// Counts one armed thread fewer.
pub fn disarm() {
    HOOKS.fetch_sub(1, Ordering::Relaxed);
}

/// Sets or clears [`TRACE_BIT`], leaving the armed count alone.
pub(crate) fn set_tracing(on: bool) {
    if on {
        HOOKS.fetch_or(TRACE_BIT, Ordering::SeqCst);
    } else {
        HOOKS.fetch_and(!TRACE_BIT, Ordering::SeqCst);
    }
}
