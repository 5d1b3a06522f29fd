//! Multi-threaded integration tests: the §3 challenges end to end under
//! real parallelism, for every scheme.

use std::sync::Arc;
use std::time::Duration;

use mte4jni_repro::prelude::*;

fn hammer(vm: &Vm, threads: usize, rounds: usize, shared: Option<&ArrayRef>) {
    std::thread::scope(|s| {
        for worker in 0..threads {
            let vm = &*vm;
            let setup = vm.attach_thread("alloc");
            let env = vm.env(&setup);
            let array = match shared {
                Some(a) => a.clone(),
                None => env.new_int_array_from(&vec![worker as i32; 256]).expect("alloc"),
            };
            s.spawn(move || {
                let thread = vm.attach_thread(format!("hammer-{worker}"));
                let env = vm.env(&thread);
                for round in 0..rounds {
                    env.call_native("hammer", NativeKind::Normal, |env| {
                        let elems = env.get_primitive_array_critical(&array)?;
                        let mem = env.native_mem();
                        let i = (round % elems.len()) as isize;
                        let v = elems.read_i32(&mem, i)?;
                        elems.write_i32(&mem, i, v.wrapping_add(1))?;
                        env.release_primitive_array_critical(
                            &array,
                            elems,
                            ReleaseMode::CopyBack,
                        )
                    })
                    .expect("in-bounds access never faults");
                }
            });
        }
    });
}

#[test]
fn every_scheme_survives_concurrent_private_arrays() {
    for scheme in Scheme::ALL {
        let vm = scheme.build_vm();
        hammer(&vm, 8, 200, None);
        // Guarded copy must have returned every shadow buffer.
        assert_eq!(
            vm.heap().native_alloc().bytes_in_use(),
            0,
            "{scheme}: native buffers leaked"
        );
    }
}

#[test]
fn every_scheme_survives_concurrent_shared_array() {
    for scheme in Scheme::ALL {
        let vm = scheme.build_vm();
        let setup = vm.attach_thread("setup");
        let env = vm.env(&setup);
        let shared = env.new_int_array(256).expect("alloc");
        hammer(&vm, 8, 200, Some(&shared));
        if scheme.is_mte() {
            // Tags fully released once all borrows ended.
            assert_eq!(
                vm.heap().memory().raw_tag_at(shared.data_addr()).unwrap(),
                Tag::UNTAGGED,
                "{scheme}"
            );
        }
    }
}

#[test]
fn gc_runs_quietly_under_every_mte_scheme() {
    for scheme in [Scheme::Mte4JniSync, Scheme::Mte4JniAsync] {
        let vm = scheme.build_vm();
        let gc = vm.start_gc(Duration::from_micros(100));
        // Churn garbage while native threads hold tagged borrows.
        let setup = vm.attach_thread("setup");
        let env = vm.env(&setup);
        for _ in 0..50 {
            let _garbage = env.new_int_array(64).expect("alloc");
        }
        hammer(&vm, 4, 100, None);
        while gc.cycles() < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = gc.stop();
        assert!(report.faults.is_empty(), "{scheme}: GC faulted");
    }
}

#[test]
fn concurrent_faulty_thread_does_not_poison_others() {
    // One thread performs OOB accesses (and keeps getting faults) while
    // seven others do correct work — tag state must stay consistent.
    let vm = Scheme::Mte4JniSync.build_vm();
    let setup = vm.attach_thread("setup");
    let env = vm.env(&setup);
    let shared = env.new_int_array(1024).expect("alloc");
    std::thread::scope(|s| {
        for worker in 0..8 {
            let vm = &vm;
            let shared = shared.clone();
            s.spawn(move || {
                let thread = vm.attach_thread(format!("w{worker}"));
                let env = vm.env(&thread);
                for _ in 0..100 {
                    let result = env.call_native("mixed", NativeKind::Normal, |env| {
                        let elems = env.get_primitive_array_critical(&shared)?;
                        let mem = env.native_mem();
                        let r = if worker == 0 {
                            // The buggy thread reads far out of bounds.
                            elems.read_i32(&mem, 5000).map(drop)
                        } else {
                            elems.read_i32(&mem, 5).map(drop)
                        };
                        // Always release, even after a fault (keeps the
                        // refcount balanced like a catch block would).
                        env.release_primitive_array_critical(
                            &shared,
                            elems,
                            ReleaseMode::CopyBack,
                        )?;
                        r.map_err(Into::into)
                    });
                    if worker == 0 {
                        assert!(result.is_err(), "buggy thread must fault");
                    } else {
                        assert!(result.is_ok(), "correct thread must not fault");
                    }
                }
            });
        }
    });
    assert_eq!(
        vm.heap().memory().raw_tag_at(shared.data_addr()).unwrap(),
        Tag::UNTAGGED,
        "all borrows released despite the faults"
    );
}

#[test]
fn many_objects_across_all_tables_concurrently() {
    // Spread objects over all 16 hash tables and hammer them from many
    // threads; afterwards the tag table must be empty.
    let scheme = Arc::new(Mte4Jni::new());
    let vm = Vm::builder()
        .heap_config(HeapConfig::mte4jni())
        .check_mode(TcfMode::Sync)
        .protection(scheme.clone())
        .build();
    let setup = vm.attach_thread("setup");
    let env = vm.env(&setup);
    let arrays: Vec<ArrayRef> = (0..64)
        .map(|i| env.new_int_array_from(&[i; 32]).expect("alloc"))
        .collect();
    std::thread::scope(|s| {
        for worker in 0..8usize {
            let vm = &vm;
            let arrays = &arrays;
            s.spawn(move || {
                let thread = vm.attach_thread(format!("t{worker}"));
                let env = vm.env(&thread);
                for round in 0..300usize {
                    let array = &arrays[(worker * 13 + round * 7) % arrays.len()];
                    env.call_native("spread", NativeKind::Normal, |env| {
                        let elems = env.get_primitive_array_critical(array)?;
                        let mem = env.native_mem();
                        let _ = elems.read_i32(&mem, 31)?;
                        env.release_primitive_array_critical(
                            array,
                            elems,
                            ReleaseMode::CopyBack,
                        )
                    })
                    .expect("correct program");
                }
            });
        }
    });
    let stats = scheme.stats();
    assert_eq!(stats.tracked_objects, 0);
    assert_eq!(stats.acquires, 8 * 300);
    assert_eq!(stats.releases, 8 * 300);
}
