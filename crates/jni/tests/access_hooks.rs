//! A `NativeMem` is taken once per native frame, but what an access
//! does is decided at the access: the `telemetry::hooks` word (trace
//! sink installed, injectors armed) and the thread's `TCO` and TCF mode
//! are read on every element access, never latched when the view was
//! made.

use std::sync::{Arc, Mutex, MutexGuard};

use jni_rt::{NativeArray, NativeKind, NativeMem, ReleaseMode};
use mte4jni::{mte4jni_vm, TableConfig};
use mte_sim::inject::{self, FaultPlan, InjectCounters, InjectPoint};
use mte_sim::{MemError, TcfMode};
use telemetry::hooks;
use telemetry::trace::{self, outcome, TraceEvent, TraceSink};

/// The hooks word, the trace sink and the injector count are
/// process-wide: the tests of this binary take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Keeps the `Access` events of the recorded stream.
#[derive(Default)]
struct Accesses(Mutex<Vec<TraceEvent>>);

impl TraceSink for Accesses {
    fn emit(&self, _tid: u32, event: TraceEvent) {
        if matches!(event, TraceEvent::Access { .. }) {
            self.0.lock().unwrap().push(event);
        }
    }
}

/// Runs `body` in a native frame on a critical borrow of a fresh
/// 8-int (two-granule) array of a synchronous MTE4JNI VM, with the
/// frame's one `NativeMem`.
fn in_frame(body: impl FnOnce(&NativeArray, &NativeMem<'_>)) {
    let vm = mte4jni_vm(TcfMode::Sync, TableConfig::default());
    let t = vm.attach_thread("main");
    let env = vm.env(&t);
    let array = env.new_int_array(8).unwrap();
    env.call_native("hooks", NativeKind::Normal, |env| {
        let elems = env.get_primitive_array_critical(&array)?;
        body(&elems, &env.native_mem());
        env.release_primitive_array_critical(&array, elems, ReleaseMode::Abort)
    })
    .unwrap();
}

#[test]
fn a_sink_installed_after_the_view_was_made_sees_every_later_access() {
    let _serial = serial();
    let sink = Arc::new(Accesses::default());
    let mut base = 0;
    in_frame(|a, mem| {
        base = a.ptr().raw();
        a.read_i32(mem, 0).unwrap();
        trace::install(sink.clone());
        a.read_i32(mem, 1).unwrap();
        a.write_i32(mem, 2, 7).unwrap();
        trace::uninstall();
        a.read_i32(mem, 3).unwrap();
    });
    let access = |offset, write, value| TraceEvent::Access {
        base,
        offset,
        width: 4,
        write,
        value,
        outcome: outcome::OK,
    };
    let expected = vec![access(4, false, 0), access(8, true, 7)];
    assert_eq!(*sink.0.lock().unwrap(), expected);
}

#[test]
fn an_injector_armed_mid_frame_faults_the_next_access() {
    let _serial = serial();
    let counters = Arc::new(InjectCounters::default());
    let plan = FaultPlan {
        spurious_check_ppm: 1_000_000,
        ..FaultPlan::default()
    };
    in_frame(|a, mem| {
        a.read_i32(mem, 0).unwrap();
        inject::install(plan, 1, Arc::clone(&counters));
        let read = a.read_i32(mem, 0);
        let write = a.write_i32(mem, 1, 7);
        inject::clear();
        assert!(matches!(read, Err(MemError::TagCheck(_))), "{read:?}");
        assert!(matches!(write, Err(MemError::TagCheck(_))), "{write:?}");
        a.read_i32(mem, 0).unwrap();
    });
    assert_eq!(counters.get(InjectPoint::Check), 2);
}

#[test]
fn tco_and_mode_toggled_mid_frame_apply_to_the_next_access() {
    let _serial = serial();
    in_frame(|a, mem| {
        // The first element of the granule past the 32-byte payload.
        let past = |mem| a.read_i32(mem, 8);
        let faults = |r: Result<i32, MemError>| matches!(r, Err(MemError::TagCheck(_)));
        let t = mem.thread();
        assert!(faults(past(mem)));
        t.set_tco(true);
        past(mem).unwrap();
        t.set_tco(false);
        assert!(faults(past(mem)));
        t.set_mode(TcfMode::None);
        past(mem).unwrap();
        t.set_mode(TcfMode::Async);
        past(mem).unwrap();
        assert!(t.take_pending_fault().is_some(), "async mode latched it");
        t.set_mode(TcfMode::Sync);
        assert!(faults(past(mem)));
    });
}

#[test]
fn the_trace_bit_and_the_armed_count_keep_out_of_each_others_way() {
    let _serial = serial();
    let plan = FaultPlan::uniform(1);
    let counters = || Arc::new(InjectCounters::default());
    assert_eq!(hooks::word(), 0);
    trace::install(Arc::new(Accesses::default()));
    inject::install(plan, 1, counters());
    assert!(trace::active());
    assert_eq!(hooks::armed(), 1);
    trace::uninstall();
    assert!(!trace::active());
    assert_eq!(hooks::armed(), 1, "clearing the trace bit kept the count");
    trace::install(Arc::new(Accesses::default()));
    std::thread::spawn(move || {
        inject::install(plan, 2, counters());
        assert_eq!(hooks::armed(), 2);
        // No clear(): the thread-local destructor disarms it.
    })
    .join()
    .unwrap();
    assert_eq!(hooks::armed(), 1, "the exited thread is uncounted");
    assert!(trace::active(), "arming and disarming kept the trace bit");
    inject::clear();
    assert_eq!(hooks::word(), hooks::TRACE_BIT);
    trace::uninstall();
    assert_eq!(hooks::word(), 0);
}
