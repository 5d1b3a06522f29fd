//! Developer-tooling demo: CheckJNI usage validation plus the tag-map
//! inspector — the "debug build" experience the paper argues MTE4JNI
//! enables ("a secure runtime environment to detect vulnerabilities
//! during the development phase", §1).
//!
//! Run with `cargo run --example runtime_doctor` for the live demo, or
//! point it at a recorded event trace to get a per-object borrow/tag
//! history instead:
//!
//! ```text
//! cargo run --example runtime_doctor -- crates/trace/corpus/oob_contain.trc
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use mte4jni_repro::prelude::*;
use telemetry::trace::TraceEvent;
use trace::Trace;

fn outcome_name(code: u8) -> &'static str {
    match code {
        0 => "ok",
        1 => "FAULT(sync)",
        2 => "FAULT(async)",
        3 => "CONTAINED",
        4 => "CHECKJNI-ABORT",
        5 => "stale-release",
        6 => "bounds",
        7 => "oom",
        8 => "transient",
        9 => "tag-exhausted",
        10 => "critical-violation",
        11 => "wrong-type",
        12 => "unmapped",
        _ => "other",
    }
}

fn interface_name(code: u8) -> String {
    telemetry::JniInterface::from_index(code)
        .map_or_else(|| format!("interface#{code}"), |i| i.get_name().to_owned())
}

/// The tag nibble a raw (tag-carrying) pointer travels with.
fn tag_of(raw_ptr: u64) -> u64 {
    (raw_ptr >> 56) & 0xf
}

/// Doctor mode over a recorded trace: reconstructs each object's
/// borrow/tag history from the event stream alone.
fn dump_trace(path: &str) {
    let t = match Trace::load(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    };
    let h = &t.header;
    println!(
        "trace {:?}: scheme {} (tcf {}, check_jni {}, policy {}), seed {}, {} event(s)",
        h.label, h.scheme, h.tcf_mode, h.check_jni, h.fault_policy, h.seed,
        t.events.len()
    );
    if let Some(plan) = &h.plan {
        println!("fault-injection plan: {plan:?}");
    }

    // Object identity = recorded allocation address. Accesses name only
    // the borrowed pointer, so track which object each live raw pointer
    // belongs to as the stream replays.
    let mut order: Vec<u64> = Vec::new();
    let mut history: HashMap<u64, Vec<String>> = HashMap::new();
    let mut ptr_owner: HashMap<u64, u64> = HashMap::new();
    let mut frame: Vec<String> = vec!["<top>".to_owned()];
    let mut note = |order: &mut Vec<u64>, obj: u64, line: String| {
        history.entry(obj).or_insert_with(|| {
            order.push(obj);
            Vec::new()
        });
        history.get_mut(&obj).expect("just inserted").push(line);
    };

    for r in &t.events {
        let seq = r.seq;
        match &r.event {
            TraceEvent::AllocArray { addr, elem, len } => {
                let ty = PrimitiveType::ALL
                    .get(*elem as usize)
                    .map_or_else(|| "?".to_owned(), |t| t.to_string());
                note(&mut order, *addr, format!("#{seq} alloc {ty}[{len}]"));
            }
            TraceEvent::AllocString { addr, utf16_len, utf8_len } => note(
                &mut order,
                *addr,
                format!("#{seq} alloc string ({utf16_len} utf16 units, {utf8_len} utf8 bytes)"),
            ),
            TraceEvent::CallEnter { method, .. } => frame.push(method.clone()),
            TraceEvent::CallExit { outcome } => {
                let m = frame.pop().unwrap_or_default();
                if *outcome != 0 {
                    println!("frame {m}: exited {}", outcome_name(*outcome));
                }
            }
            TraceEvent::Acquire { obj, interface, ptr, outcome } => {
                if *ptr != 0 {
                    ptr_owner.insert(*ptr, *obj);
                }
                note(&mut order, *obj, format!(
                    "#{seq} {} in {} -> tag {:#x} [{}]",
                    interface_name(*interface),
                    frame.last().map_or("<top>", |s| s.as_str()),
                    tag_of(*ptr),
                    outcome_name(*outcome),
                ));
            }
            TraceEvent::Release { ptr, obj, interface, mode, outcome } => {
                ptr_owner.remove(ptr);
                let mode = match mode {
                    0 => "copy-back",
                    1 => "commit",
                    _ => "abort",
                };
                note(&mut order, *obj, format!(
                    "#{seq} release {} ({mode}) [{}]",
                    interface_name(*interface),
                    outcome_name(*outcome),
                ));
            }
            TraceEvent::Access { base, offset, width, write, outcome, .. } => {
                if let Some(obj) = ptr_owner.get(base).copied() {
                    // Clean accesses are bulk traffic; faults are the story.
                    if *outcome != 0 {
                        note(&mut order, obj, format!(
                            "#{seq} {} {width}B at offset {offset} [{}]",
                            if *write { "WRITE" } else { "read" },
                            outcome_name(*outcome),
                        ));
                    }
                }
            }
            TraceEvent::CStr { base, len, outcome } => {
                if let Some(obj) = ptr_owner.get(base).copied() {
                    note(&mut order, obj, format!(
                        "#{seq} c-string walk ({len} bytes) [{}]",
                        outcome_name(*outcome)
                    ));
                }
            }
            TraceEvent::Region { obj, interface, start, len, write, outcome } => {
                note(&mut order, *obj, format!(
                    "#{seq} {} {} [{start}..{}) [{}]",
                    if *write { "set-region" } else { "get-region" },
                    interface_name(*interface),
                    start + len,
                    outcome_name(*outcome),
                ));
            }
            TraceEvent::Tombstone { seq: ts, method, fault_addr, interface, released } => {
                println!(
                    "tombstone #{ts} in {method}: fault at {fault_addr:#x} via {}, {released} borrow(s) force-released",
                    interface_name(*interface)
                );
            }
            TraceEvent::Quarantined { method } => {
                println!("method {method} quarantined -> guarded-copy fallback");
            }
            TraceEvent::Degraded { reason } => {
                println!("acquire degraded to fallback (reason {reason})");
            }
            TraceEvent::Sweep { swept, pinned } => {
                println!("gc sweep: {swept} reclaimed, {pinned} spared by pins");
            }
            TraceEvent::Compact { moved, reclaimed } => {
                println!("gc compact: {moved} moved, {reclaimed} reclaimed");
            }
        }
    }

    println!("\nper-object borrow/tag history ({} object(s)):", order.len());
    for addr in order {
        println!("  object {addr:#x}:");
        for line in &history[&addr] {
            println!("    {line}");
        }
    }
}

fn main() {
    if let Some(path) = std::env::args().nth(1) {
        dump_trace(&path);
        return;
    }
    // A development VM: MTE4JNI in sync mode + CheckJNI usage validation.
    let scheme = Arc::new(Mte4Jni::new());
    let vm = Vm::builder()
        .heap_config(HeapConfig::mte4jni())
        .check_mode(TcfMode::Sync)
        .check_jni(true)
        .protection(scheme.clone())
        .build();
    let thread = vm.attach_thread("main");
    let env = vm.env(&thread);

    // --- 1. Watch tags appear and disappear in the tag map. ---
    let a = env.new_int_array(64).unwrap(); // 256 B payload = 16 granules
    let b = env.new_int_array(64).unwrap();
    let window = a.addr();
    let window_len = 48 * 16; // 48 granules around the two objects

    println!("tag map before any JNI borrow (all untagged):");
    println!("{}\n", vm.heap().memory().tag_map(window, window_len).unwrap());

    env.call_native("hold_both", NativeKind::Normal, |env| {
        let ea = env.get_primitive_array_critical(&a)?;
        let eb = env.get_primitive_array_critical(&b)?;
        println!("tag map while native code holds both arrays:");
        println!(
            "{}\n",
            env.heap().memory().tag_map(window, window_len).unwrap()
        );
        println!(
            "(array A tagged {}, array B tagged {}; headers stay '.')\n",
            ea.ptr().tag(),
            eb.ptr().tag()
        );
        env.release_primitive_array_critical(&b, eb, ReleaseMode::Abort)?;
        env.release_primitive_array_critical(&a, ea, ReleaseMode::Abort)
    })
    .unwrap();

    // Each last release zeroes its object's tags at once (Algorithm 2).
    println!("tag map after both releases (tags zeroed — Algorithm 2):");
    println!("{}\n", vm.heap().memory().tag_map(window, window_len).unwrap());

    // --- 2. CheckJNI catches a release through the wrong interface. ---
    let s = env.new_string("hello").unwrap();
    let chars = env.get_string_chars(&s).unwrap();
    match env.release_string_critical(&s, chars) {
        Err(e) => println!("CheckJNI caught a pairing bug:\n  {e}\n"),
        Ok(()) => unreachable!("the ledger must reject the mismatched release"),
    }

    // --- 3. ...and reports leaked acquisitions. ---
    let leaked = env.get_int_array_elements(&a).unwrap();
    let _ = &leaked; // native code "forgets" to release
    for o in env.outstanding_acquisitions() {
        println!(
            "CheckJNI leak report: pointer {:#x} from {} was never released",
            o.pointer,
            o.interface.get_name()
        );
    }

    // --- 4. The scheme's own counters (`Vm::snapshot` reports them
    // under `scheme.<name>.…`). ---
    // `safepoint_purge_frees` counts entries a GC safepoint force-freed,
    // the second term of the funnel conservation law
    //   acquires - shared_acquires == tag_frees + safepoint_purge_frees.
    println!("\nscheme counters:");
    for (name, value) in scheme.counters() {
        println!("  {name}: {value}");
    }
}
