//! The compaction safepoint against the tag table.
//!
//! Every compaction takes the exclusive world hold and purges the table
//! entries of its unpinned candidates before anything moves, so the
//! table never tracks an object the collector relocates. The first test
//! checks that invariant directly on every backend; the second races
//! waves of short-lived borrowers against a compacting collector, where
//! a borrowed array is pinned and must keep its address and tag, and
//! afterwards every layer must agree on the quiescent state.

use std::sync::Arc;
use std::time::Duration;

use art_heap::HeapConfig;
use jni_rt::{NativeKind, Protection, ReleaseMode, Vm};
use mte4jni::{Mte4Jni, TableBackend, TableConfig};
use mte_sim::{Tag, TaggedPtr, TcfMode};

fn safepoint_purge_frees(scheme: &Mte4Jni) -> u64 {
    scheme
        .counters()
        .iter()
        .find(|(n, _)| *n == "safepoint_purge_frees")
        .map_or(0, |&(_, v)| v)
}

#[test]
fn compaction_purges_an_abandoned_entry_before_moving_its_object() {
    for backend in [TableBackend::LockFree, TableBackend::TwoTier, TableBackend::Global] {
        let scheme = Arc::new(Mte4Jni::with_config(TableConfig {
            backend,
            ..TableConfig::default()
        }));
        let vm = Vm::builder()
            .heap_config(HeapConfig::mte4jni())
            .check_mode(TcfMode::Sync)
            .protection(scheme.clone())
            .build();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let garbage = env.new_int_array(16).unwrap();
        let upper = env.new_int_array(16).unwrap();
        let old = upper.data_addr();
        // An abandoned release on an unpinned object: the entry is
        // tracked and the payload tagged, but nothing pins the array.
        // `Borrow` has no destructor, so dropping the token without a
        // release leaks the table reference.
        let borrow = scheme
            .table()
            .acquire(
                vm.heap().memory(),
                t.mte(),
                TaggedPtr::from_addr(old),
                old + upper.byte_len() as u64,
            )
            .unwrap();
        drop(borrow);
        assert_eq!(scheme.stats().tracked_objects, 1, "{backend:?}");
        drop(garbage);

        let stats = vm.heap().compact();
        assert_eq!(stats.moved_objects, 1, "{backend:?}");
        assert!(upper.data_addr() < old, "{backend:?}: slid into the gap");
        assert_eq!(scheme.stats().tracked_objects, 0, "{backend:?}");
        assert_eq!(safepoint_purge_frees(&scheme), 1, "{backend:?}");
        assert_eq!(
            vm.heap().memory().raw_tag_at(upper.data_addr()).unwrap(),
            Tag::UNTAGGED,
            "{backend:?}: the moved payload carries no stale tag"
        );
    }
}

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
    assert_eq!(
        stats.acquires - stats.shared_acquires,
        stats.tag_frees + safepoint_purge_frees(&scheme),
        "funnel conservation law"
    );
}
