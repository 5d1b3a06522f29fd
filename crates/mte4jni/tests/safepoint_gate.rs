//! A compacting collector racing short-lived borrowers.
//!
//! Waves of short-lived threads borrow one array, read it, release it,
//! and exit while a compacting collector cycles underneath them. Every
//! compaction takes the exclusive world hold, purges its unpinned
//! candidates and slides objects down; a borrowed array is pinned and
//! must keep its address and tag. Afterwards every layer must agree on
//! the quiescent state, with no safepoint needed to reach it.

use std::sync::Arc;
use std::time::Duration;

use art_heap::HeapConfig;
use jni_rt::{NativeKind, Protection, ReleaseMode, Vm};
use mte4jni::Mte4Jni;
use mte_sim::{Tag, TcfMode};

#[test]
fn short_lived_borrowers_racing_compaction_leave_no_stale_state() {
    let scheme = Arc::new(Mte4Jni::new());
    let vm = Vm::builder()
        .heap_config(HeapConfig::mte4jni())
        .check_mode(TcfMode::Sync)
        .protection(scheme.clone())
        .build();
    let a = {
        let t = vm.attach_thread("setup");
        let env = vm.env(&t);
        env.new_int_array_from(&[3; 64]).unwrap()
    };

    // A compacting collector cycling every few hundred microseconds.
    let gc = vm.start_compacting_gc(Duration::from_micros(200));

    for wave in 0..16 {
        std::thread::scope(|s| {
            for i in 0..4 {
                let vm = &vm;
                let a = a.clone();
                s.spawn(move || {
                    let t = vm.attach_thread(format!("w{wave}-{i}"));
                    let env = vm.env(&t);
                    for _ in 0..8 {
                        env.call_native("reader", NativeKind::Normal, |env| {
                            let elems = env.get_primitive_array_critical(&a)?;
                            let mem = env.native_mem();
                            let mut sum = 0;
                            for j in 0..64 {
                                sum += elems.read_i32(&mem, j)?;
                            }
                            assert_eq!(sum, 3 * 64);
                            env.release_primitive_array_critical(
                                &a,
                                elems,
                                ReleaseMode::CopyBack,
                            )
                        })
                        .unwrap();
                    }
                });
            }
        });
    }

    let report = gc.stop();
    assert!(report.cycles > 0, "the collector actually ran");
    assert!(report.faults.is_empty(), "GC scans never fault under MTE4JNI");

    // Every borrow ended with its release: nothing tracked, tags zeroed.
    assert_eq!(scheme.stats().tracked_objects, 0, "no stale entries survive");
    assert_eq!(
        vm.heap().memory().raw_tag_at(a.data_addr()).unwrap(),
        Tag::UNTAGGED
    );

    // The funnel conservation law holds across every release/purge race.
    let stats = scheme.stats();
    let purge_frees = scheme
        .counters()
        .iter()
        .find(|(n, _)| *n == "safepoint_purge_frees")
        .map_or(0, |&(_, v)| v);
    assert_eq!(
        stats.acquires - stats.shared_acquires,
        stats.tag_frees + purge_frees,
        "funnel conservation law"
    );
}
