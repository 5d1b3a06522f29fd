//! Cross-crate property-based tests: scheme equivalence on correct
//! programs and detection guarantees on incorrect ones.

use proptest::prelude::*;

use mte4jni_repro::prelude::*;

/// A random but *correct* native program: a sequence of in-bounds reads
/// and writes against one array.
#[derive(Clone, Debug)]
enum Op {
    Read(usize),
    Write(usize, i32),
}

fn run_program(scheme: Scheme, init: &[i32], ops: &[Op]) -> Vec<i32> {
    let vm = scheme.build_vm();
    let thread = vm.attach_thread("prop");
    let env = vm.env(&thread);
    let a = env.new_int_array_from(init).expect("alloc");
    env.call_native("prop_program", NativeKind::Normal, |env| {
        let elems = env.get_primitive_array_critical(&a)?;
        let mem = env.native_mem();
        for op in ops {
            match *op {
                Op::Read(i) => {
                    let _ = elems.read_i32(&mem, i as isize)?;
                }
                Op::Write(i, v) => elems.write_i32(&mem, i as isize, v)?,
            }
        }
        env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
    })
    .expect("correct programs never fault");
    let t2 = vm.attach_thread("check");
    vm.heap().int_array_as_vec(&t2, &a).expect("read back")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any in-bounds program produces identical final array contents under
    /// every scheme — protection is transparent to correct code.
    #[test]
    fn schemes_are_transparent_to_correct_programs(
        init in prop::collection::vec(any::<i32>(), 1..64),
        seed in any::<u64>(),
    ) {
        let ops = {
            // Derive ops deterministically from the seed so all schemes see
            // the same program.
            let mut rng = seed;
            let mut ops = Vec::new();
            for _ in 0..24 {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let i = (rng >> 33) as usize % init.len();
                if rng & 1 == 0 {
                    ops.push(Op::Read(i));
                } else {
                    ops.push(Op::Write(i, (rng >> 13) as i32));
                }
            }
            ops
        };
        let expected = run_program(Scheme::NoProtection, &init, &ops);
        for scheme in [Scheme::GuardedCopy, Scheme::Mte4JniSync, Scheme::Mte4JniAsync] {
            prop_assert_eq!(&run_program(scheme, &init, &ops), &expected, "{}", scheme);
        }
    }

    /// Every write landing at least one granule past the payload faults
    /// under MTE4JNI+Sync.
    #[test]
    fn sync_mte_catches_any_past_granule_write(
        len in 1usize..256,
        past in 4usize..4096,
    ) {
        let vm = Scheme::Mte4JniSync.build_vm();
        let thread = vm.attach_thread("prop");
        let env = vm.env(&thread);
        let a = env.new_int_array(len).expect("alloc");
        // First index whose granule lies fully past the tagged range.
        let first_untagged = (len * 4).div_ceil(16) * 16 / 4;
        let index = first_untagged + past;
        let err = env
            .call_native("oob", NativeKind::Normal, |env| {
                let elems = env.get_primitive_array_critical(&a)?;
                let mem = env.native_mem();
                elems.write_i32(&mem, index as isize, 1)?;
                env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
            })
            .expect_err("past-granule write must fault");
        prop_assert!(err.as_tag_check().is_some());
    }

    /// Guarded copy detects every write inside its red zones, at the
    /// exact byte offset.
    #[test]
    fn guarded_copy_locates_red_zone_writes(
        len in 1usize..64,
        zone_off in 0usize..512,
        front in any::<bool>(),
    ) {
        let vm = Scheme::GuardedCopy.build_vm();
        let thread = vm.attach_thread("prop");
        let env = vm.env(&thread);
        let a = env.new_byte_array(len).expect("alloc");
        let offset: isize = if front {
            -1 - zone_off as isize
        } else {
            (len + zone_off) as isize
        };
        let err = env
            .call_native("rz", NativeKind::Normal, |env| {
                let elems = env.get_primitive_array_critical(&a)?;
                let mem = env.native_mem();
                // XOR so the write always differs from the canary byte.
                let old = elems.read_u8(&mem, offset)?;
                elems.write_u8(&mem, offset, old ^ 0xFF)?;
                env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
            })
            .expect_err("in-zone write must be detected");
        let report = err.as_abort().expect("abort report");
        prop_assert_eq!(report.corruption_offset, Some(offset));
    }

    /// Balanced acquire/release sequences always leave the array untagged
    /// and untracked, regardless of interleaving depth.
    #[test]
    fn balanced_borrows_always_clean_up(depth in 1usize..24) {
        let vm = Scheme::Mte4JniSync.build_vm();
        let thread = vm.attach_thread("prop");
        let env = vm.env(&thread);
        let a = env.new_int_array(32).expect("alloc");
        env.call_native("nest", NativeKind::Normal, |env| {
            let mut borrows = Vec::new();
            for _ in 0..depth {
                borrows.push(env.get_primitive_array_critical(&a)?);
            }
            let mem = env.native_mem();
            for b in &borrows {
                let _ = b.read_i32(&mem, 31)?;
            }
            for b in borrows.into_iter().rev() {
                env.release_primitive_array_critical(&a, b, ReleaseMode::CopyBack)?;
            }
            Ok(())
        })
        .expect("balanced borrows are correct");
        // The final release zeroed the tags.
        prop_assert_eq!(
            vm.heap().memory().raw_tag_at(a.data_addr()).unwrap(),
            Tag::UNTAGGED
        );
    }

    /// Region interfaces enforce the JVM bounds check for any start/len
    /// combination.
    #[test]
    fn regions_enforce_bounds_for_all_inputs(
        len in 0usize..64,
        start in 0usize..128,
        count in 0usize..128,
    ) {
        let vm = Scheme::NoProtection.build_vm();
        let thread = vm.attach_thread("prop");
        let env = vm.env(&thread);
        let a = env.new_int_array(len).expect("alloc");
        let mut buf = vec![0i32; count];
        let result = env.get_int_array_region(&a, start, &mut buf);
        if start + count <= len {
            prop_assert!(result.is_ok());
        } else {
            let is_bounds_err = matches!(
                result,
                Err(JniError::Heap(art_heap::HeapError::IndexOutOfBounds { .. }))
            );
            prop_assert!(is_bounds_err);
        }
    }
}
