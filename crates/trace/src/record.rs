//! Recording: a [`TraceSink`] that captures the runtime's event stream,
//! plus the fixed-seed corpus scenarios committed under `corpus/`.
//!
//! Corpus scenarios build their recording VM through
//! [`replay::build_vm`] with [`Backend::TwoTier`] — the exact factory
//! the replayer uses — so recording the same scenario twice (or
//! replaying its trace on the two-tier backend) reproduces the heap
//! addresses bit-for-bit.

use std::sync::Arc;

use jni_rt::{JniEnv, NativeKind, ReleaseMode};
use mte_sim::inject::{self, FaultPlan, InjectCounters};
use parking_lot::{Mutex, MutexGuard};
use telemetry::trace::{self, TraceEvent, TraceSink};

use workloads::Backend;

use crate::codec::{Trace, TraceHeader, TraceRecord};
use crate::replay;

/// Collects emitted events in global order, assigning sequence numbers
/// under its own lock (as the [`TraceSink`] contract requires).
#[derive(Default)]
pub struct Recorder {
    events: Mutex<Vec<TraceRecord>>,
}

impl Recorder {
    /// Events captured so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.events.lock())
    }
}

impl TraceSink for Recorder {
    fn emit(&self, tid: u32, event: TraceEvent) {
        let mut events = self.events.lock();
        let seq = events.len() as u64;
        events.push(TraceRecord { seq, tid, event });
    }
}

/// Serializes recording sessions: the trace sink is process-wide, so two
/// concurrent sessions would interleave their streams.
static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// RAII recording session: installs a fresh [`Recorder`] as the global
/// trace sink on construction, uninstalls it on [`finish`] (or drop).
/// Holding the session also holds a process-wide lock, so concurrent
/// tests cannot contaminate each other's traces.
///
/// [`finish`]: RecordingSession::finish
pub struct RecordingSession {
    recorder: Arc<Recorder>,
    _guard: MutexGuard<'static, ()>,
}

impl RecordingSession {
    /// Starts recording: every traced runtime event from any thread now
    /// lands in this session.
    pub fn start() -> RecordingSession {
        let guard = SESSION_LOCK.lock();
        let recorder = Arc::new(Recorder::default());
        trace::install(recorder.clone());
        RecordingSession { recorder, _guard: guard }
    }

    /// The live recorder (for mid-session inspection).
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// Stops recording and packages the captured stream under `header`.
    pub fn finish(self, header: TraceHeader) -> Trace {
        trace::uninstall();
        Trace { header, events: self.recorder.take() }
    }
}

impl Drop for RecordingSession {
    fn drop(&mut self) {
        trace::uninstall();
    }
}

fn mte_header(label: &str, seed: u64, plan: Option<FaultPlan>) -> TraceHeader {
    TraceHeader {
        label: label.to_owned(),
        scheme: "mte4jni".to_owned(),
        tcf_mode: 1, // TcfMode::Sync
        check_jni: false,
        fault_policy: 1, // FaultPolicy::Contain
        seed,
        plan,
    }
}

/// Records one fixed-seed run of a named [`workloads`] kernel under the
/// two-tier MTE4JNI scheme with synchronous checks.
pub fn record_workload(name: &str, seed: u64, scale: u32) -> Result<Trace, String> {
    let spec = workloads::find_workload(name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let header = mte_header(&format!("workload:{}", spec.name), seed, None);
    let (vm, _schemes) =
        replay::build_vm(&header, Backend::TwoTier).map_err(|e| e.to_string())?;
    let session = RecordingSession::start();
    let thread = vm.attach_thread("recorder");
    let env = vm.env(&thread);
    (spec.run)(&env, seed, scale).map_err(|e| format!("workload {name:?} failed: {e}"))?;
    vm.heap().sweep();
    Ok(session.finish(header))
}

/// One frame of well-behaved critical-section arithmetic, through the
/// traced [`jni_rt::NativeArray`] accessors.
fn clean_frame(env: &JniEnv<'_>, name: &'static str, seed: u64, len: usize) -> jni_rt::Result<u64> {
    env.call_native(name, NativeKind::Normal, |env| {
        let a = env.new_int_array(len)?;
        let elems = env.get_primitive_array_critical(&a)?;
        let mem = env.native_mem();
        for j in 0..len {
            elems.write_i32(&mem, j as isize, (seed as u32).wrapping_mul(j as u32 + 1) as i32)?;
        }
        let mut sum = 0u64;
        for j in 0..len {
            sum = sum.wrapping_add(u64::from(elems.read_i32(&mem, j as isize)? as u32));
        }
        env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)?;
        Ok(sum)
    })
}

/// Records the paper's §5.2 scenario under `FaultPolicy::Contain`: an
/// 18-int array acquired through `GetPrimitiveArrayCritical` and written
/// 12 bytes past its payload. The stray store takes a synchronous tag
/// check fault, the trampoline contains it, and a tombstone with the
/// faulting borrow's attribution lands in the trace.
pub fn record_oob_contain(seed: u64) -> Trace {
    let header = mte_header("oob-contain", seed, None);
    let (vm, _schemes) =
        replay::build_vm(&header, Backend::TwoTier).expect("header is well-formed");
    let session = RecordingSession::start();
    let thread = vm.attach_thread("recorder");
    let env = vm.env(&thread);
    for i in 0..3usize {
        let _ = clean_frame(&env, "Lib.checksum", seed, 12 + i * 4);
    }
    let _ = env.call_native("Lib.oobWrite", NativeKind::Normal, |env| {
        let a = env.new_int_array(18)?;
        let elems = env.get_primitive_array_critical(&a)?;
        let mem = env.native_mem();
        for j in 0..18 {
            elems.write_i32(&mem, j, seed as i32 ^ j as i32)?;
        }
        // The bug: element index 21 of an 18-element array.
        elems.write_i32(&mem, 21, 0x0BAD_F00D)?;
        env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
    });
    let _ = clean_frame(&env, "Lib.checksum", seed ^ 0xff, 16);
    vm.heap().sweep();
    session.finish(header)
}

/// Records critical-section traffic under a deterministic spurious
/// tag-check injection plan. Enough frames run that the repeated
/// contained faults cross the quarantine threshold, so the trace also
/// carries `Quarantined`/`Degraded` transitions and guarded-copy
/// fallback traffic.
pub fn record_spurious(seed: u64) -> Trace {
    let plan = FaultPlan { spurious_check_ppm: 25_000, ..FaultPlan::default() };
    let header = mte_header("spurious-inject", seed, Some(plan));
    let (vm, _schemes) =
        replay::build_vm(&header, Backend::TwoTier).expect("header is well-formed");
    let session = RecordingSession::start();
    inject::install(plan, seed, Arc::new(InjectCounters::default()));
    let thread = vm.attach_thread("recorder");
    let env = vm.env(&thread);
    for round in 0..24u64 {
        let _ = clean_frame(
            &env,
            "Spurious.touch",
            seed.wrapping_add(round),
            8 + (round % 4) as usize * 4,
        );
    }
    inject::clear();
    vm.heap().sweep();
    session.finish(header)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_captures_and_uninstalls() {
        let session = RecordingSession::start();
        trace::emit(|| TraceEvent::Sweep { swept: 3, pinned: 1 });
        trace::emit(|| TraceEvent::Compact { moved: 2, reclaimed: 1 });
        assert_eq!(session.recorder().len(), 2);
        let t = session.finish(TraceHeader {
            label: "unit".into(),
            scheme: "none".into(),
            tcf_mode: 0,
            check_jni: false,
            fault_policy: 0,
            seed: 0,
            plan: None,
        });
        assert!(!trace::active());
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[0].seq, 0);
        assert_eq!(t.events[1].seq, 1);
        assert_eq!(
            t.events[1].event,
            TraceEvent::Compact { moved: 2, reclaimed: 1 }
        );
    }

    #[test]
    fn dropped_session_uninstalls() {
        {
            let _session = RecordingSession::start();
            assert!(trace::active());
        }
        assert!(!trace::active());
    }
}
