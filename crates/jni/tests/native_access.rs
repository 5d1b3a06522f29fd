//! The `NativeArray` element accessors as native code calls them, under
//! MTE4JNI with synchronous checking: every access emits exactly one
//! trace event that describes it, and a wild index yields a typed error,
//! never a panic.

use std::sync::{Arc, Mutex, MutexGuard};

use jni_rt::{JniEnv, NativeArray, NativeKind, NativeMem, ReleaseMode, Vm};
use mte4jni::{mte4jni_vm, TableConfig};
use mte_sim::{MemError, TcfMode};
use telemetry::trace::{self, outcome, TraceEvent, TraceSink};

/// The trace sink is process-global: the tests of this binary take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn sync_vm() -> Vm {
    mte4jni_vm(TcfMode::Sync, TableConfig::default())
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

fn access(base: u64, offset: i64, width: u8, write: bool, value: u64, outcome: u8) -> TraceEvent {
    TraceEvent::Access {
        base,
        offset,
        width,
        write,
        value,
        outcome,
    }
}

/// Borrows a 32-byte (two-granule) array for each element accessor width
/// (`i8` … `f64`) and runs `body` on it with that width's name.
fn each_width(env: &JniEnv<'_>, mut body: impl FnMut(&NativeArray, &NativeMem<'_>, &str)) {
    let arrays = [
        ("i8", env.new_byte_array(32).unwrap()),
        ("u8", env.new_byte_array(32).unwrap()),
        ("u16", env.new_char_array(16).unwrap()),
        ("i16", env.new_short_array(16).unwrap()),
        ("i32", env.new_int_array(8).unwrap()),
        ("i64", env.new_long_array(4).unwrap()),
        ("f32", env.new_float_array(8).unwrap()),
        ("f64", env.new_double_array(4).unwrap()),
    ];
    for (name, array) in &arrays {
        env.call_native("elements", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(array)?;
            body(&elems, &env.native_mem(), name);
            env.release_primitive_array_critical(array, elems, ReleaseMode::Abort)
        })
        .unwrap();
    }
}

/// One read and one write of element `index` through the accessor of
/// width `name`; the write stores `0x5A` and the read's value is dropped.
fn read_write(
    a: &NativeArray,
    mem: &NativeMem<'_>,
    name: &str,
    index: isize,
) -> [Result<(), MemError>; 2] {
    match name {
        "i8" => [
            a.read_i8(mem, index).map(drop),
            a.write_i8(mem, index, 0x5A),
        ],
        "u8" => [
            a.read_u8(mem, index).map(drop),
            a.write_u8(mem, index, 0x5A),
        ],
        "u16" => [
            a.read_u16(mem, index).map(drop),
            a.write_u16(mem, index, 0x5A),
        ],
        "i16" => [
            a.read_i16(mem, index).map(drop),
            a.write_i16(mem, index, 0x5A),
        ],
        "i32" => [
            a.read_i32(mem, index).map(drop),
            a.write_i32(mem, index, 0x5A),
        ],
        "i64" => [
            a.read_i64(mem, index).map(drop),
            a.write_i64(mem, index, 0x5A),
        ],
        "f32" => [
            a.read_f32(mem, index).map(drop),
            a.write_f32(mem, index, f32::from_bits(0x5A)),
        ],
        "f64" => [
            a.read_f64(mem, index).map(drop),
            a.write_f64(mem, index, f64::from_bits(0x5A)),
        ],
        _ => unreachable!("{name}"),
    }
}

/// Bytes per element of the accessor width `name`.
fn width(name: &str) -> u8 {
    name[1..].parse::<u8>().unwrap() / 8
}

#[test]
fn every_element_access_emits_one_access_event_with_its_outcome() {
    let _serial = serial();
    let vm = sync_vm();
    let t = vm.attach_thread("main");
    let env = vm.env(&t);
    let sink = Arc::new(Accesses::default());
    trace::install(sink.clone());
    let mut expected = Vec::new();
    each_width(&env, |a, mem, name| {
        let w = width(name);
        // In bounds: element 1.
        let [r, wr] = read_write(a, mem, name, 1);
        r.unwrap();
        wr.unwrap();
        let base = a.ptr().raw();
        expected.push(access(base, i64::from(w), w, false, 0, outcome::OK));
        expected.push(access(base, i64::from(w), w, true, 0x5A, outcome::OK));
        // The first element of the granule past the 32-byte payload.
        let past = 32 / isize::from(w);
        for r in read_write(a, mem, name, past) {
            assert!(matches!(r, Err(MemError::TagCheck(_))), "{name}: {r:?}");
        }
        expected.push(access(base, 32, w, false, 0, outcome::FAULT_SYNC));
        expected.push(access(base, 32, w, true, 0x5A, outcome::FAULT_SYNC));
    });
    trace::uninstall();
    assert_eq!(*sink.0.lock().unwrap(), expected);
}

#[test]
fn a_huge_index_returns_a_mem_error_instead_of_overflowing() {
    let _serial = serial();
    let vm = sync_vm();
    let t = vm.attach_thread("main");
    let env = vm.env(&t);
    each_width(&env, |a, mem, name| {
        // `isize::MAX` elements of any width past `a` is an address
        // outside the array's granules (C's wrapping pointer arithmetic).
        for r in read_write(a, mem, name, isize::MAX) {
            assert!(r.is_err(), "{name}: {r:?}");
        }
    });
}
