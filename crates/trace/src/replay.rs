//! The replayer: re-drives a decoded trace against a freshly built VM
//! under a chosen protection backend and reduces the run to a
//! deterministic outcome [`Digest`].
//!
//! The replay VM is constructed from the trace header alone (check mode,
//! CheckJNI, fault policy, injection plan) with the backend as the free
//! axis, so the same event log can be driven through the paper's
//! two-tier table, the lock-free table, the global-lock baseline, or
//! the guarded-copy fallback and the outcomes compared (DESIGN §14).
//!
//! Determinism rules:
//!
//! * Recorded events are applied in their global sequence order, on one
//!   OS thread, using one [`JniEnv`] per recorded thread id.
//! * Containment reactions in the log (`Tombstone`, `Quarantined`,
//!   `Degraded`) are **never** re-driven — the replay VM produces its
//!   own when the replayed accesses fault.
//! * When a live tag-check fault unwinds the replayed native frame
//!   early, the rest of the recorded frame is skipped (it never ran in
//!   the recording either — those records carry the fault outcomes).
//! * A frame that ends abnormally (replay error, or a recorded non-OK
//!   exit) force-releases its still-open borrows with `JNI_ABORT`, the
//!   same funnel a dropped `CriticalGuard` uses. A `CheckJniAbort` from
//!   that cleanup *is* a detection — it is exactly where the
//!   guarded-copy scheme reports corruption — while a `StaleRelease`
//!   (the MTE containment pass already reclaimed the borrow) is not.
//!   Cleanup is excluded from the event hash.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use art_heap::{ArrayRef, HeapConfig, PrimitiveType, StringRef};
use guarded_copy::GuardedCopy;
use jni_rt::tracecode;
use jni_rt::{
    FaultPolicy, JniEnv, JniError, NativeArray, NativeUtf, Protection, ReleaseMode, Vm,
};
use mte4jni::{Mte4Jni, TableConfig};
use mte_sim::inject::{FaultPlan, InjectCounters};
use mte_sim::{MemError, TcfMode};
use parking_lot::Mutex;
use telemetry::trace::{outcome, TraceEvent};
use telemetry::JniInterface;
use workloads::{Backend, VmSchemes};

use crate::codec::{
    Trace, TraceHeader, TraceRecord, K_ACCESS, K_ACQUIRE, K_ALLOC_ARRAY, K_ALLOC_STRING,
    K_CALL_ENTER, K_CALL_EXIT, K_COMPACT, K_CSTR, K_REGION, K_RELEASE, K_SWEEP,
};

/// A structural problem with the trace that prevents replay (distinct
/// from divergent *outcomes*, which land in the digest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The header carries a code this replayer cannot decode.
    BadHeader {
        /// What was wrong.
        what: String,
    },
    /// An event is malformed or arrived where it cannot apply.
    BadEvent {
        /// Sequence number of the offending event.
        seq: u64,
        /// What was wrong.
        what: String,
    },
    /// An event from another thread appeared inside a native frame.
    CrossThreadFrame {
        /// Sequence number of the offending event.
        seq: u64,
    },
    /// The trace ends inside a native frame.
    MissingExit {
        /// The frame's native method.
        method: String,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::BadHeader { what } => write!(f, "bad trace header: {what}"),
            ReplayError::BadEvent { seq, what } => write!(f, "bad event #{seq}: {what}"),
            ReplayError::CrossThreadFrame { seq } => {
                write!(f, "event #{seq}: cross-thread event inside a native frame")
            }
            ReplayError::MissingExit { method } => {
                write!(f, "trace ends inside native frame {method:?}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Builds the replay VM described by `header` with `backend` as the
/// scheme axis: an MTE backend runs MTE4JNI with a guarded-copy
/// fallback, guarded runs guarded copy alone. The recorder uses the
/// same factory (with [`Backend::TwoTier`]) so recorded heap addresses
/// match replayed ones.
pub fn build_vm(header: &TraceHeader, backend: Backend) -> Result<(Vm, VmSchemes), ReplayError> {
    let tcf = match header.tcf_mode {
        0 => TcfMode::None,
        1 => TcfMode::Sync,
        2 => TcfMode::Async,
        c => return Err(ReplayError::BadHeader { what: format!("tcf mode code {c}") }),
    };
    let policy = match header.fault_policy {
        0 => FaultPolicy::Abort,
        1 => FaultPolicy::Contain,
        c => return Err(ReplayError::BadHeader { what: format!("fault policy code {c}") }),
    };
    let guarded = Arc::new(GuardedCopy::new());
    let Some(table) = backend.table() else {
        let vm = Vm::builder()
            .heap_config(HeapConfig::stock_art())
            .check_jni(header.check_jni)
            .fault_policy(policy)
            .protection(guarded.clone() as Arc<dyn Protection>)
            .build();
        return Ok((vm, VmSchemes { mte: None, guarded: Some(guarded) }));
    };
    let mte = Arc::new(Mte4Jni::with_config(TableConfig {
        backend: table,
        ..TableConfig::default()
    }));
    let vm = Vm::builder()
        .heap_config(HeapConfig::mte4jni())
        .check_mode(tcf)
        .check_jni(header.check_jni)
        .fault_policy(policy)
        .protection(mte.clone() as Arc<dyn Protection>)
        .fallback_protection(guarded.clone() as Arc<dyn Protection>)
        .build();
    Ok((vm, VmSchemes { mte: Some(mte), guarded: Some(guarded) }))
}

/// Outcome of one replayed native frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameOutcome {
    /// The native method name.
    pub method: String,
    /// Whether the scheme detected an illicit access in this frame
    /// (trampoline outcome, or a `CheckJniAbort` from borrow cleanup).
    pub detected: bool,
    /// The replayed trampoline outcome code.
    pub outcome: u8,
}

/// The deterministic reduction of one replay run.
#[derive(Clone, Debug)]
pub struct Digest {
    /// Backend the trace was replayed under.
    pub backend: &'static str,
    /// FNV-1a hash over `(seq, kind, outcome)` of every applied event
    /// plus replayed read values and GC stats.
    pub event_hash: u64,
    /// FNV-1a hash over the final payload bytes of every identity
    /// object, in recorded-address order. Only meaningful across
    /// backends that share a heap layout (the MTE set).
    pub payload_hash: u64,
    /// Per-frame outcomes in execution order.
    pub frames: Vec<FrameOutcome>,
    /// Faults contained at the trampoline.
    pub contained_faults: u64,
    /// Tombstones as `(seq, method, fault address, attributed
    /// `JniInterface` index — `u8::MAX` when unattributed)`.
    pub tombstones: Vec<(u64, String, u64, u8)>,
    /// Methods quarantined by the end of the run (sorted).
    pub quarantined: Vec<String>,
    /// Objects still pinned after the run (conservation: must be 0).
    pub pinned_objects: usize,
    /// Scheme entries still tracked (conservation: must be 0).
    pub stale_entries: usize,
    /// Replay-side borrows never closed (conservation: must be 0).
    pub outstanding: usize,
    /// What the quiescence oracle ([`VmSchemes::quiesce`]) found wrong
    /// with the replay VM after the run (conservation: must be empty).
    pub quiescence: Vec<String>,
}

impl Digest {
    /// Differences that the **strict** oracle (MTE backend vs MTE
    /// backend) does not allow. Empty means equivalent.
    pub fn strict_diff(&self, other: &Digest) -> Vec<String> {
        let mut d = self.detection_diff(other);
        if self.event_hash != other.event_hash {
            d.push(format!(
                "event hash {:016x} != {:016x}",
                self.event_hash, other.event_hash
            ));
        }
        if self.payload_hash != other.payload_hash {
            d.push(format!(
                "payload hash {:016x} != {:016x}",
                self.payload_hash, other.payload_hash
            ));
        }
        if self.frames != other.frames {
            for (i, (a, b)) in self.frames.iter().zip(&other.frames).enumerate() {
                if a != b {
                    d.push(format!("frame {i} ({}): outcome {} != {}", a.method, a.outcome, b.outcome));
                }
            }
        }
        if self.contained_faults != other.contained_faults {
            d.push(format!(
                "contained faults {} != {}",
                self.contained_faults, other.contained_faults
            ));
        }
        if self.tombstones != other.tombstones {
            d.push(format!(
                "tombstones {:?} != {:?}",
                self.tombstones, other.tombstones
            ));
        }
        if self.quarantined != other.quarantined {
            d.push(format!(
                "quarantined {:?} != {:?}",
                self.quarantined, other.quarantined
            ));
        }
        if self.outstanding != other.outstanding {
            d.push(format!("outstanding {} != {}", self.outstanding, other.outstanding));
        }
        d
    }

    /// Differences that the **detection** oracle (MTE vs guarded copy)
    /// does not allow: each frame must reach the same detection verdict.
    /// Tag values, contained-fault counts, quarantine state, and payload
    /// hashes are the documented allowance — the schemes detect through
    /// different mechanisms (trampoline containment vs release-time
    /// canary check), but must agree on *whether* each frame's illicit
    /// access was caught.
    pub fn detection_diff(&self, other: &Digest) -> Vec<String> {
        let mut d = Vec::new();
        if self.frames.len() != other.frames.len() {
            d.push(format!(
                "frame count {} != {}",
                self.frames.len(),
                other.frames.len()
            ));
            return d;
        }
        for (i, (a, b)) in self.frames.iter().zip(&other.frames).enumerate() {
            if a.method != b.method {
                d.push(format!("frame {i}: method {:?} != {:?}", a.method, b.method));
            } else if a.detected != b.detected {
                d.push(format!(
                    "frame {i} ({}): detected {} != {}",
                    a.method, a.detected, b.detected
                ));
            }
        }
        d
    }

    /// Violated conservation laws for this run in isolation: everything
    /// the quiescence oracle reports, plus unreleased replay borrows.
    pub fn conservation_violations(&self) -> Vec<String> {
        let mut v = self.quiescence.clone();
        if self.outstanding != 0 {
            v.push(format!("{} borrow(s) never closed", self.outstanding));
        }
        v
    }

    /// Frames whose illicit access was detected.
    pub fn detections(&self) -> usize {
        self.frames.iter().filter(|f| f.detected).count()
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>9}: events {:016x} payload {:016x} frames {} detections {} contained {} tombstones {} quarantined {} pins {} stale {} open {}",
            self.backend,
            self.event_hash,
            self.payload_hash,
            self.frames.len(),
            self.detections(),
            self.contained_faults,
            self.tombstones.len(),
            self.quarantined.len(),
            self.pinned_objects,
            self.stale_entries,
            self.outstanding,
        )
    }
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
}

/// A replayed Java object, keyed by its recorded identity address.
enum Handle {
    Array(ArrayRef),
    Str(StringRef),
}

/// The acquired native view behind one recorded pointer.
enum View {
    Array(NativeArray),
    Utf(NativeUtf),
}

impl View {
    fn ptr(&self) -> mte_sim::TaggedPtr {
        match self {
            View::Array(a) => a.ptr(),
            View::Utf(u) => u.ptr(),
        }
    }
}

/// A live replay borrow, keyed by the *recorded* raw pointer.
struct Borrowed {
    view: View,
    obj: u64,
    interface: JniInterface,
}

/// Immutable replay context.
struct Rt<'v, 'e> {
    events: &'v [TraceRecord],
    vm: &'v Vm,
    envs: &'v [JniEnv<'e>],
}

/// Mutable replay state.
struct St {
    pos: usize,
    objects: HashMap<u64, Handle>,
    borrows: HashMap<u64, Borrowed>,
    /// Per-frame stack of recorded pointers opened in that frame.
    opened: Vec<Vec<u64>>,
    frames: Vec<FrameOutcome>,
    event_hash: u64,
    failure: Option<ReplayError>,
}

impl St {
    fn new() -> St {
        St {
            pos: 0,
            objects: HashMap::new(),
            borrows: HashMap::new(),
            opened: Vec::new(),
            frames: Vec::new(),
            event_hash: FNV_BASIS,
            failure: None,
        }
    }

    fn fold_event(&mut self, seq: u64, kind: u8, out: u8) {
        fold(&mut self.event_hash, seq);
        fold(&mut self.event_hash, u64::from(kind));
        fold(&mut self.event_hash, u64::from(out));
    }

    fn fold_value(&mut self, v: u64) {
        fold(&mut self.event_hash, v);
    }
}

/// Interns replayed method names: `call_native` requires `&'static str`
/// frame names, and traces reuse a small set of them.
fn intern(name: &str) -> &'static str {
    static POOL: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut pool = POOL.lock();
    if let Some(s) = pool.iter().find(|s| **s == name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    pool.push(leaked);
    leaked
}

/// Synthesizes a string with the recorded UTF-16 unit count and
/// modified-UTF-8 byte length, so the replayed heap and transcoding
/// buffers have identical footprints. (`U+0800` costs 3 bytes per unit,
/// `U+00E9` 2, ASCII 1 — any recorded `(units, bytes)` is reachable.)
fn synthesize_string(utf16_len: u64, utf8_len: u64) -> String {
    let units = utf16_len as usize;
    let mut extra = (utf8_len as usize).saturating_sub(units);
    let mut s = String::with_capacity(utf8_len as usize);
    let mut remaining = units;
    while extra >= 2 && remaining > 0 {
        s.push('\u{0800}');
        extra -= 2;
        remaining -= 1;
    }
    if extra >= 1 && remaining > 0 {
        s.push('\u{00E9}');
        remaining -= 1;
    }
    for _ in 0..remaining {
        s.push('a');
    }
    s
}

/// Deterministic filler for replayed `Set*Region` values (the recording
/// does not carry region payloads; every backend synthesizes the same
/// stream, keyed by the event's sequence number).
fn synth_value(seq: u64, i: u64) -> u64 {
    let mut x = seq
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i)
        .wrapping_add(0x2545_f491_4f6c_dd1d);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x
}

struct InjectGuard;

impl InjectGuard {
    fn install(plan: FaultPlan, seed: u64) -> InjectGuard {
        mte_sim::inject::install(plan, seed, Arc::new(InjectCounters::default()));
        InjectGuard
    }
}

impl Drop for InjectGuard {
    fn drop(&mut self) {
        mte_sim::inject::clear();
    }
}

/// Replays `trace` against a fresh VM under `backend` and reduces the
/// run to its [`Digest`].
///
/// # Errors
///
/// [`ReplayError`] for structurally broken traces; divergent *outcomes*
/// are data, not errors, and land in the digest.
pub fn replay(trace: &Trace, backend: Backend) -> Result<Digest, ReplayError> {
    let (vm, schemes) = build_vm(&trace.header, backend)?;
    let ntids = trace
        .events
        .iter()
        .map(|r| r.tid as usize + 1)
        .max()
        .unwrap_or(1);
    let threads: Vec<art_heap::JavaThread> = (0..ntids)
        .map(|i| vm.attach_thread(format!("replay-{i}")))
        .collect();
    let envs: Vec<JniEnv<'_>> = threads.iter().map(|t| vm.env(t)).collect();
    let rt = Rt { events: &trace.events, vm: &vm, envs: &envs };
    let mut st = St::new();
    {
        // Re-arm the recording's injection plan with the recorded seed:
        // the draw sequence is a pure function of the checked-access
        // sequence, which the replay reproduces.
        let _inject = trace.header.plan.map(|p| InjectGuard::install(p, trace.header.seed));
        run_events(&rt, &mut st)?;
    }
    // A trace may end without a GC event. The digest's stale-entry and
    // conservation laws are defined at a safepoint, which the oracle
    // runs first: the sweep purges any entry a release abandoned after
    // persistent faults. (Injection is disarmed again — the guard
    // dropped with the block above — so the purge cannot fault.)
    let quiescence = schemes.quiesce(&vm);
    let stale_entries = schemes.mte.as_ref().map_or(0, |m| m.stats().tracked_objects)
        + schemes.guarded.as_ref().map_or(0, |g| g.tracked_shadows());
    let pinned_objects = vm.heap().stats().pinned_objects;

    let mut payload_hash = FNV_BASIS;
    let mut entries: Vec<(&u64, &Handle)> = st.objects.iter().collect();
    entries.sort_by_key(|(addr, _)| **addr);
    for (addr, handle) in entries {
        fold(&mut payload_hash, *addr);
        let obj = match handle {
            Handle::Array(a) => a.as_object(),
            Handle::Str(s) => s.as_object(),
        };
        let mut buf = vec![0u8; obj.byte_len()];
        match vm.heap().read_payload(obj, &mut buf) {
            Ok(()) => {
                for b in &buf {
                    payload_hash = (payload_hash ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
                }
            }
            Err(_) => fold(&mut payload_hash, u64::MAX),
        }
    }

    let cs = vm.containment_stats();
    let tombstones = vm
        .tombstones()
        .iter()
        .map(|t| {
            let interface = t
                .fault
                .attribution
                .as_ref()
                .map_or(u8::MAX, |a| a.interface.index());
            (t.seq, t.method.to_owned(), t.fault.pointer.addr(), interface)
        })
        .collect();
    let quarantined = vm
        .containment()
        .quarantined_methods()
        .iter()
        .map(|m| (*m).to_owned())
        .collect();
    Ok(Digest {
        backend: backend.label(),
        event_hash: st.event_hash,
        payload_hash,
        frames: st.frames,
        contained_faults: cs.contained_faults,
        tombstones,
        quarantined,
        pinned_objects,
        stale_entries,
        outstanding: st.borrows.len(),
        quiescence,
    })
}

fn run_events(rt: &Rt<'_, '_>, st: &mut St) -> Result<(), ReplayError> {
    while st.pos < rt.events.len() {
        let rec = &rt.events[st.pos];
        st.pos += 1;
        let tid = rec.tid as usize;
        match &rec.event {
            TraceEvent::CallEnter { method, kind } => {
                let method = method.clone();
                run_frame(rt, st, tid, rec.seq, &method, *kind)?;
            }
            TraceEvent::CallExit { .. } => {
                return Err(ReplayError::BadEvent {
                    seq: rec.seq,
                    what: "CallExit without an open frame".into(),
                });
            }
            TraceEvent::Sweep { .. } => apply_sweep(rt, st, rec.seq),
            TraceEvent::Compact { .. } => apply_compact(rt, st, rec.seq),
            // Containment reactions are reproduced, not re-driven.
            TraceEvent::Tombstone { .. }
            | TraceEvent::Quarantined { .. }
            | TraceEvent::Degraded { .. } => {}
            event => {
                // Top level: there is no frame to contain a live fault,
                // so fold-and-continue is all that can be done.
                let _ = apply_event(rt, st, tid, rec.seq, event);
            }
        }
    }
    Ok(())
}

fn apply_sweep(rt: &Rt<'_, '_>, st: &mut St, seq: u64) {
    let stats = rt.vm.heap().sweep();
    st.fold_event(seq, K_SWEEP, outcome::OK);
    st.fold_value(stats.swept as u64);
}

fn apply_compact(rt: &Rt<'_, '_>, st: &mut St, seq: u64) {
    let stats = rt.vm.heap().compact();
    st.fold_event(seq, K_COMPACT, outcome::OK);
    st.fold_value(stats.moved_objects as u64);
    st.fold_value(stats.reclaimed_dead as u64);
}

fn run_frame(
    rt: &Rt<'_, '_>,
    st: &mut St,
    tid: usize,
    enter_seq: u64,
    method: &str,
    kind_code: u8,
) -> Result<(), ReplayError> {
    let kind = tracecode::kind_from_code(kind_code).ok_or_else(|| ReplayError::BadEvent {
        seq: enter_seq,
        what: format!("native kind code {kind_code}"),
    })?;
    let env = rt
        .envs
        .get(tid)
        .ok_or_else(|| ReplayError::BadEvent { seq: enter_seq, what: "tid out of range".into() })?;
    let name = intern(method);
    st.fold_event(enter_seq, K_CALL_ENTER, outcome::OK);
    for b in name.bytes() {
        st.fold_value(u64::from(b));
    }
    st.opened.push(Vec::new());

    let mut exit: Option<(u64, u8)> = None;
    let result: jni_rt::Result<()> = env.call_native(name, kind, |_| {
        loop {
            if st.pos >= rt.events.len() {
                st.failure = Some(ReplayError::MissingExit { method: name.to_owned() });
                return Ok(());
            }
            let rec = &rt.events[st.pos];
            if rec.tid as usize != tid {
                st.failure = Some(ReplayError::CrossThreadFrame { seq: rec.seq });
                return Ok(());
            }
            st.pos += 1;
            match &rec.event {
                TraceEvent::CallExit { outcome: rec_out } => {
                    exit = Some((rec.seq, *rec_out));
                    return Ok(());
                }
                TraceEvent::CallEnter { method, kind } => {
                    let method = method.clone();
                    if let Err(e) = run_frame(rt, st, tid, rec.seq, &method, *kind) {
                        st.failure = Some(e);
                        return Ok(());
                    }
                }
                TraceEvent::Sweep { .. } => apply_sweep(rt, st, rec.seq),
                TraceEvent::Compact { .. } => apply_compact(rt, st, rec.seq),
                TraceEvent::Tombstone { .. }
                | TraceEvent::Quarantined { .. }
                | TraceEvent::Degraded { .. } => {}
                // A live tag-check fault propagates out of the closure,
                // exactly like the recorded app's `?`, so the replay
                // trampoline runs the same containment path.
                event => apply_event(rt, st, tid, rec.seq, event)?,
            }
        }
    });

    let opened = st.opened.pop().unwrap_or_default();
    if let Some(failure) = st.failure.take() {
        return Err(failure);
    }
    let (exit_seq, recorded_out) = match exit {
        Some(x) => x,
        // The replayed frame unwound before the recorded exit (a live
        // fault): the rest of the recorded frame never ran here either.
        None => skip_to_exit(rt, st, method)?,
    };
    let replay_out = tracecode::result_outcome(&result);
    st.fold_event(exit_seq, K_CALL_EXIT, replay_out);
    let mut detected = outcome::is_detection(replay_out);

    if result.is_err() || recorded_out != outcome::OK {
        // Abnormal end: force-release this frame's still-open borrows so
        // pins/tables/shadows balance. Guarded copy detects corruption
        // exactly here (release-time canary check); the MTE containment
        // pass already reclaimed its borrows, so a StaleRelease is the
        // expected no-op, not a detection.
        for ptr in opened {
            if let Some(b) = st.borrows.remove(&ptr) {
                if let Err(JniError::CheckJniAbort(_)) =
                    do_release(env, &st.objects, &b, ReleaseMode::Abort)
                {
                    detected = true;
                }
            }
        }
    } else if let Some(parent) = st.opened.last_mut() {
        // Borrows deliberately left open across the frame (JNI_COMMIT
        // patterns) become the enclosing frame's to clean up.
        parent.extend(opened.into_iter().filter(|p| st.borrows.contains_key(p)));
    }

    st.frames.push(FrameOutcome {
        method: method.to_owned(),
        detected,
        outcome: replay_out,
    });
    Ok(())
}

/// Consumes the rest of the current recorded frame (tracking nesting)
/// and returns the recorded exit `(seq, outcome)`.
fn skip_to_exit(rt: &Rt<'_, '_>, st: &mut St, method: &str) -> Result<(u64, u8), ReplayError> {
    let mut depth = 0usize;
    while st.pos < rt.events.len() {
        let rec = &rt.events[st.pos];
        st.pos += 1;
        match &rec.event {
            TraceEvent::CallEnter { .. } => depth += 1,
            TraceEvent::CallExit { outcome } => {
                if depth == 0 {
                    return Ok((rec.seq, *outcome));
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    Err(ReplayError::MissingExit { method: method.to_owned() })
}

/// Applies one data event. Folds the replayed outcome into the event
/// hash; returns `Err` **only** for live tag-check faults, which must
/// unwind the enclosing `call_native` closure for containment to run.
fn apply_event(
    rt: &Rt<'_, '_>,
    st: &mut St,
    tid: usize,
    seq: u64,
    event: &TraceEvent,
) -> jni_rt::Result<()> {
    let env = match rt.envs.get(tid) {
        Some(env) => env,
        None => return Ok(()),
    };
    match event {
        TraceEvent::AllocArray { addr, elem, len } => {
            let out = match tracecode::elem_from_code(*elem) {
                Some(ty) => {
                    let r = alloc_array(env, ty, *len as usize);
                    let out = tracecode::result_outcome(&r);
                    if let Ok(a) = r {
                        st.objects.insert(*addr, Handle::Array(a));
                    }
                    out
                }
                None => outcome::OTHER,
            };
            st.fold_event(seq, K_ALLOC_ARRAY, out);
            Ok(())
        }
        TraceEvent::AllocString { addr, utf16_len, utf8_len } => {
            let s = synthesize_string(*utf16_len, *utf8_len);
            let r = env.new_string(&s);
            let out = tracecode::result_outcome(&r);
            if let Ok(sr) = r {
                st.objects.insert(*addr, Handle::Str(sr));
            }
            st.fold_event(seq, K_ALLOC_STRING, out);
            Ok(())
        }
        TraceEvent::Acquire { obj, interface, ptr, .. } => {
            match do_acquire(env, &st.objects, *obj, *interface) {
                Ok((view, iface)) => {
                    st.fold_event(seq, K_ACQUIRE, outcome::OK);
                    if *ptr != 0 {
                        st.borrows.insert(*ptr, Borrowed { view, obj: *obj, interface: iface });
                        if let Some(top) = st.opened.last_mut() {
                            top.push(*ptr);
                        }
                    } else {
                        // The recording failed this acquire but the
                        // replay succeeded: close the surplus borrow so
                        // conservation still holds.
                        let b = Borrowed { view, obj: *obj, interface: iface };
                        let _ = do_release(env, &st.objects, &b, ReleaseMode::Abort);
                    }
                    Ok(())
                }
                Err(None) => {
                    st.fold_event(seq, K_ACQUIRE, outcome::UNMAPPED);
                    Ok(())
                }
                Err(Some(e)) => {
                    st.fold_event(seq, K_ACQUIRE, tracecode::jni_outcome(&e));
                    if e.as_tag_check().is_some() { Err(e) } else { Ok(()) }
                }
            }
        }
        TraceEvent::Release { ptr, mode, .. } => {
            let Some(mode) = tracecode::mode_from_code(*mode) else {
                st.fold_event(seq, K_RELEASE, outcome::OTHER);
                return Ok(());
            };
            let r = match st.borrows.get(ptr) {
                Some(b) => do_release(env, &st.objects, b, mode),
                None => {
                    st.fold_event(seq, K_RELEASE, outcome::UNMAPPED);
                    return Ok(());
                }
            };
            let out = tracecode::result_outcome(&r);
            st.fold_event(seq, K_RELEASE, out);
            let ends = mode != ReleaseMode::Commit
                && matches!(r, Ok(()) | Err(JniError::CheckJniAbort(_)));
            if ends {
                st.borrows.remove(ptr);
            }
            match r {
                Err(e) if e.as_tag_check().is_some() => Err(e),
                _ => Ok(()),
            }
        }
        TraceEvent::Access { base, offset, width, write, value, .. } => {
            let Some(b) = st.borrows.get(base) else {
                st.fold_event(seq, K_ACCESS, outcome::UNMAPPED);
                return Ok(());
            };
            let mem = env.native_mem();
            // The recorder logs `offset = index * width`; re-derive the
            // index and go back through the same typed view accessor.
            let idx = (*offset / i64::from(*width)) as isize;
            let r: Result<u64, MemError> = match &b.view {
                View::Array(na) => {
                    if *write {
                        match width {
                            1 => na.write_u8(&mem, idx, *value as u8).map(|()| 0),
                            2 => na.write_u16(&mem, idx, *value as u16).map(|()| 0),
                            4 => na.write_i32(&mem, idx, *value as u32 as i32).map(|()| 0),
                            _ => na.write_i64(&mem, idx, *value as i64).map(|()| 0),
                        }
                    } else {
                        match width {
                            1 => na.read_u8(&mem, idx).map(u64::from),
                            2 => na.read_u16(&mem, idx).map(u64::from),
                            4 => na.read_i32(&mem, idx).map(|v| v as u32 as u64),
                            _ => na.read_i64(&mem, idx).map(|v| v as u64),
                        }
                    }
                }
                // UTF views only expose traced byte reads.
                View::Utf(nu) => nu.read_byte(&mem, idx).map(u64::from),
            };
            let out = tracecode::mem_result_outcome(&r);
            st.fold_event(seq, K_ACCESS, out);
            match r {
                Ok(v) => {
                    st.fold_value(v);
                    Ok(())
                }
                Err(e @ MemError::TagCheck(_)) => Err(JniError::Mem(e)),
                Err(_) => Ok(()),
            }
        }
        TraceEvent::CStr { base, .. } => {
            let r = match st.borrows.get(base) {
                Some(Borrowed { view: View::Utf(nu), .. }) => {
                    nu.read_c_string(&env.native_mem())
                }
                _ => {
                    st.fold_event(seq, K_CSTR, outcome::UNMAPPED);
                    return Ok(());
                }
            };
            let out = tracecode::mem_result_outcome(&r);
            st.fold_event(seq, K_CSTR, out);
            match r {
                Ok(bytes) => {
                    st.fold_value(bytes.len() as u64);
                    Ok(())
                }
                Err(e @ MemError::TagCheck(_)) => Err(JniError::Mem(e)),
                Err(_) => Ok(()),
            }
        }
        TraceEvent::Region { obj, interface, start, len, write, .. } => {
            let out = match (JniInterface::from_index(*interface), st.objects.get(obj)) {
                (Some(JniInterface::StringRegion), Some(Handle::Str(s))) => {
                    let mut buf = vec![0u16; *len as usize];
                    tracecode::result_outcome(&env.get_string_region(s, *start as usize, &mut buf))
                }
                (Some(JniInterface::ArrayRegion), Some(Handle::Array(a))) => {
                    let r = if *write {
                        set_region(env, a, *start as usize, *len as usize, seq)
                    } else {
                        get_region(env, a, *start as usize, *len as usize)
                    };
                    tracecode::result_outcome(&r)
                }
                _ => outcome::UNMAPPED,
            };
            st.fold_event(seq, K_REGION, out);
            Ok(())
        }
        // Handled by the callers; listed for exhaustiveness.
        TraceEvent::CallEnter { .. }
        | TraceEvent::CallExit { .. }
        | TraceEvent::Sweep { .. }
        | TraceEvent::Compact { .. }
        | TraceEvent::Tombstone { .. }
        | TraceEvent::Quarantined { .. }
        | TraceEvent::Degraded { .. } => Ok(()),
    }
}

/// Performs the recorded acquire. `Err(None)` means the event does not
/// map onto a replay object ([`outcome::UNMAPPED`]).
fn do_acquire(
    env: &JniEnv<'_>,
    objects: &HashMap<u64, Handle>,
    obj: u64,
    interface_code: u8,
) -> Result<(View, JniInterface), Option<JniError>> {
    let Some(interface) = JniInterface::from_index(interface_code) else {
        return Err(None);
    };
    let Some(handle) = objects.get(&obj) else {
        return Err(None);
    };
    let view = match (interface, handle) {
        (JniInterface::PrimitiveArrayCritical, Handle::Array(a)) => {
            env.get_primitive_array_critical(a).map(View::Array)
        }
        (JniInterface::ArrayElements, Handle::Array(a)) => {
            acquire_elements(env, a).map(View::Array)
        }
        (JniInterface::StringCritical, Handle::Str(s)) => {
            env.get_string_critical(s).map(View::Array)
        }
        (JniInterface::StringChars, Handle::Str(s)) => env.get_string_chars(s).map(View::Array),
        (JniInterface::StringUtfChars, Handle::Str(s)) => {
            env.get_string_utf_chars(s).map(View::Utf)
        }
        _ => return Err(None),
    };
    match view {
        Ok(v) => Ok((v, interface)),
        Err(e) => Err(Some(e)),
    }
}

/// Routes a release through the same typed interface the acquire used.
fn do_release(
    env: &JniEnv<'_>,
    objects: &HashMap<u64, Handle>,
    b: &Borrowed,
    mode: ReleaseMode,
) -> jni_rt::Result<()> {
    match (&b.view, objects.get(&b.obj)) {
        (View::Array(na), Some(Handle::Array(a))) => match b.interface {
            JniInterface::PrimitiveArrayCritical => {
                env.release_primitive_array_critical(a, na.clone(), mode)
            }
            JniInterface::ArrayElements => release_elements(env, a, na.clone(), mode),
            _ => Err(JniError::StaleRelease { pointer: na.ptr().raw() }),
        },
        (View::Array(na), Some(Handle::Str(s))) => match b.interface {
            JniInterface::StringCritical => env.release_string_critical(s, na.clone()),
            JniInterface::StringChars => env.release_string_chars(s, na.clone()),
            _ => Err(JniError::StaleRelease { pointer: na.ptr().raw() }),
        },
        (View::Utf(nu), Some(Handle::Str(s))) => env.release_string_utf_chars(s, nu.clone()),
        (view, _) => Err(JniError::StaleRelease { pointer: view.ptr().raw() }),
    }
}

fn alloc_array(env: &JniEnv<'_>, ty: PrimitiveType, len: usize) -> jni_rt::Result<ArrayRef> {
    match ty {
        PrimitiveType::Byte => env.new_byte_array(len),
        PrimitiveType::Char => env.new_char_array(len),
        PrimitiveType::Short => env.new_short_array(len),
        PrimitiveType::Int => env.new_int_array(len),
        PrimitiveType::Long => env.new_long_array(len),
        PrimitiveType::Float => env.new_float_array(len),
        PrimitiveType::Double => env.new_double_array(len),
        // No JNI surface allocates boolean arrays here; byte has the
        // same 1-byte layout.
        PrimitiveType::Boolean => env.new_byte_array(len),
    }
}

fn acquire_elements(env: &JniEnv<'_>, a: &ArrayRef) -> jni_rt::Result<NativeArray> {
    match a.element_type() {
        PrimitiveType::Byte | PrimitiveType::Boolean => env.get_byte_array_elements(a),
        PrimitiveType::Char => env.get_char_array_elements(a),
        PrimitiveType::Short => env.get_short_array_elements(a),
        PrimitiveType::Int => env.get_int_array_elements(a),
        PrimitiveType::Long => env.get_long_array_elements(a),
        PrimitiveType::Float => env.get_float_array_elements(a),
        PrimitiveType::Double => env.get_double_array_elements(a),
    }
}

fn release_elements(
    env: &JniEnv<'_>,
    a: &ArrayRef,
    na: NativeArray,
    mode: ReleaseMode,
) -> jni_rt::Result<()> {
    match a.element_type() {
        PrimitiveType::Byte | PrimitiveType::Boolean => env.release_byte_array_elements(a, na, mode),
        PrimitiveType::Char => env.release_char_array_elements(a, na, mode),
        PrimitiveType::Short => env.release_short_array_elements(a, na, mode),
        PrimitiveType::Int => env.release_int_array_elements(a, na, mode),
        PrimitiveType::Long => env.release_long_array_elements(a, na, mode),
        PrimitiveType::Float => env.release_float_array_elements(a, na, mode),
        PrimitiveType::Double => env.release_double_array_elements(a, na, mode),
    }
}

fn get_region(env: &JniEnv<'_>, a: &ArrayRef, start: usize, len: usize) -> jni_rt::Result<()> {
    match a.element_type() {
        PrimitiveType::Byte | PrimitiveType::Boolean => {
            env.get_byte_array_region(a, start, &mut vec![0i8; len])
        }
        PrimitiveType::Char => env.get_char_array_region(a, start, &mut vec![0u16; len]),
        PrimitiveType::Short => env.get_short_array_region(a, start, &mut vec![0i16; len]),
        PrimitiveType::Int => env.get_int_array_region(a, start, &mut vec![0i32; len]),
        PrimitiveType::Long => env.get_long_array_region(a, start, &mut vec![0i64; len]),
        PrimitiveType::Float => env.get_float_array_region(a, start, &mut vec![0f32; len]),
        PrimitiveType::Double => env.get_double_array_region(a, start, &mut vec![0f64; len]),
    }
}

fn set_region(
    env: &JniEnv<'_>,
    a: &ArrayRef,
    start: usize,
    len: usize,
    seq: u64,
) -> jni_rt::Result<()> {
    let vals = |f: &dyn Fn(u64) -> u64| -> Vec<u64> {
        (0..len as u64).map(|i| f(synth_value(seq, i))).collect()
    };
    match a.element_type() {
        PrimitiveType::Byte | PrimitiveType::Boolean => {
            let v: Vec<i8> = vals(&|x| x).iter().map(|&x| x as i8).collect();
            env.set_byte_array_region(a, start, &v)
        }
        PrimitiveType::Char => {
            let v: Vec<u16> = vals(&|x| x).iter().map(|&x| x as u16).collect();
            env.set_char_array_region(a, start, &v)
        }
        PrimitiveType::Short => {
            let v: Vec<i16> = vals(&|x| x).iter().map(|&x| x as i16).collect();
            env.set_short_array_region(a, start, &v)
        }
        PrimitiveType::Int => {
            let v: Vec<i32> = vals(&|x| x).iter().map(|&x| x as i32).collect();
            env.set_int_array_region(a, start, &v)
        }
        PrimitiveType::Long => {
            let v: Vec<i64> = vals(&|x| x).iter().map(|&x| x as i64).collect();
            env.set_long_array_region(a, start, &v)
        }
        PrimitiveType::Float => {
            // Finite values only: NaN payload canonicalization must not
            // introduce cross-run drift.
            let v: Vec<f32> = vals(&|x| x).iter().map(|&x| (x % 4096) as f32).collect();
            env.set_float_array_region(a, start, &v)
        }
        PrimitiveType::Double => {
            let v: Vec<f64> = vals(&|x| x).iter().map(|&x| (x % 4096) as f64).collect();
            env.set_double_array_region(a, start, &v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_synthesis_matches_recorded_footprint() {
        for (units, bytes) in [(0u64, 0u64), (5, 5), (5, 7), (4, 12), (3, 4), (2, 6)] {
            let s = synthesize_string(units, bytes);
            let u = art_heap::utf16_units(&s);
            assert_eq!(u.len() as u64, units, "utf16 of {s:?}");
            assert_eq!(
                art_heap::encode_modified_utf8(&u).len() as u64,
                bytes,
                "utf8 of {s:?}"
            );
        }
    }

    #[test]
    fn bad_header_codes_are_rejected() {
        let header = TraceHeader {
            label: "x".into(),
            scheme: "mte4jni".into(),
            tcf_mode: 7,
            check_jni: false,
            fault_policy: 0,
            seed: 0,
            plan: None,
        };
        let err = build_vm(&header, Backend::TwoTier).expect_err("must reject");
        assert!(err.to_string().contains("tcf mode code 7"), "{err}");
    }

    #[test]
    fn empty_trace_replays_to_a_clean_digest() {
        let trace = Trace {
            header: TraceHeader {
                label: "empty".into(),
                scheme: "mte4jni".into(),
                tcf_mode: 1,
                check_jni: false,
                fault_policy: 1,
                seed: 0,
                plan: None,
            },
            events: Vec::new(),
        };
        for b in Backend::ALL {
            let d = replay(&trace, b).expect("replays");
            assert!(d.conservation_violations().is_empty(), "{b}: {d:?}");
            assert!(d.frames.is_empty());
        }
    }
}
