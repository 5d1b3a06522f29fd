//! The detection matrix: every offense class against every scheme, with
//! the expected outcome from the paper (§2.3 limitations, §5.2 results).

use mte4jni_repro::prelude::*;

/// What a scheme did about an offense.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    /// Program ran to completion, corruption unnoticed.
    Undetected,
    /// Caught at release time by red-zone verification (guarded copy).
    AtRelease,
    /// Caught by an MTE tag check (sync: at the access; async: latched).
    TagCheck,
    /// Rejected as a stale release.
    StaleRelease,
}

fn classify(result: Result<(), JniError>) -> Outcome {
    match result {
        Ok(()) => Outcome::Undetected,
        Err(JniError::CheckJniAbort(_)) => Outcome::AtRelease,
        Err(JniError::StaleRelease { .. }) => Outcome::StaleRelease,
        Err(e) if e.as_tag_check().is_some() => Outcome::TagCheck,
        Err(e) => panic!("unexpected error class: {e}"),
    }
}

/// What became of the `int[8]` allocated directly after the victim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Neighbour {
    /// Every byte of its header and payload is unchanged.
    Intact,
    /// The offense changed at least one byte of it.
    Corrupted,
}

/// Runs one offense in a fresh VM: acquire an `int[18]`, perform the
/// offense, log (surfacing latched async faults), release. Reports the
/// outcome and whether the object allocated after the victim survived.
fn run_offense(
    scheme: Scheme,
    offense: impl FnOnce(&JniEnv<'_>, &jni_rt::NativeArray) -> Result<(), JniError>,
) -> (Outcome, Neighbour) {
    let vm = scheme.build_vm();
    let thread = vm.attach_thread("matrix");
    let env = vm.env(&thread);
    // Padding so negative-index offenses stay inside the simulated heap.
    let _padding = env.new_int_array(64).expect("alloc padding");
    let array = env.new_int_array(18).expect("alloc");
    let neighbour = env.new_int_array(8).expect("alloc neighbour");
    let snapshot = || {
        let mut bytes = [0u8; art_heap::HEADER_SIZE + 8 * 4];
        let ptr = TaggedPtr::from_addr(neighbour.addr());
        vm.heap().memory().read_bytes_unchecked(ptr, &mut bytes).expect("in range");
        bytes
    };
    let before = snapshot();
    let result = env.call_native("offense", NativeKind::Normal, |env| {
        let elems = env.get_primitive_array_critical(&array)?;
        offense(env, &elems)?;
        env.log("done")?;
        env.release_primitive_array_critical(&array, elems, ReleaseMode::CopyBack)
    });
    let neighbour = if snapshot() == before { Neighbour::Intact } else { Neighbour::Corrupted };
    (classify(result), neighbour)
}

#[test]
fn near_oob_write_matrix() {
    // Write at index 21 of int[18]: inside the red zone, outside the tag,
    // and 12 bytes past the payload, inside the next object. Unprotected,
    // the neighbour is corrupted silently; guarded copy's store lands in
    // the shadow's red zone and aborts at release; sync MTE faults at the
    // store; async MTE latches the fault but lets the store land.
    let offense = |env: &JniEnv<'_>, a: &jni_rt::NativeArray| {
        a.write_i32(&env.native_mem(), 21, 1).map_err(Into::into)
    };
    use {Neighbour::*, Outcome::*};
    assert_eq!(run_offense(Scheme::NoProtection, offense), (Undetected, Corrupted));
    assert_eq!(run_offense(Scheme::GuardedCopy, offense), (AtRelease, Intact));
    assert_eq!(run_offense(Scheme::Mte4JniSync, offense), (TagCheck, Intact));
    assert_eq!(run_offense(Scheme::Mte4JniAsync, offense), (TagCheck, Corrupted));
}

#[test]
fn near_oob_read_matrix() {
    // §2.3 limitation 1: guarded copy cannot see reads.
    let offense = |env: &JniEnv<'_>, a: &jni_rt::NativeArray| {
        a.read_i32(&env.native_mem(), 21).map(drop).map_err(Into::into)
    };
    use {Neighbour::*, Outcome::*};
    assert_eq!(run_offense(Scheme::NoProtection, offense), (Undetected, Intact));
    assert_eq!(run_offense(Scheme::GuardedCopy, offense), (Undetected, Intact));
    assert_eq!(run_offense(Scheme::Mte4JniSync, offense), (TagCheck, Intact));
    assert_eq!(run_offense(Scheme::Mte4JniAsync, offense), (TagCheck, Intact));
}

#[test]
fn negative_index_write_matrix() {
    // Underflow into the front red zone / the object header granule.
    // (Index -8 = 32 bytes before the payload: past the 16-byte header,
    // i.e. memory not covered by the MTE4JNI payload tag either — but
    // tagged memory starts at the payload, so the untagged granule below
    // mismatches the tagged pointer.)
    let offense = |env: &JniEnv<'_>, a: &jni_rt::NativeArray| {
        a.write_i32(&env.native_mem(), -8, 1).map_err(Into::into)
    };
    use {Neighbour::*, Outcome::*};
    assert_eq!(run_offense(Scheme::NoProtection, offense), (Undetected, Intact));
    assert_eq!(run_offense(Scheme::GuardedCopy, offense), (AtRelease, Intact));
    assert_eq!(run_offense(Scheme::Mte4JniSync, offense), (TagCheck, Intact));
    assert_eq!(run_offense(Scheme::Mte4JniAsync, offense), (TagCheck, Intact));
}

#[test]
fn far_oob_write_matrix() {
    // §2.3 limitation 2: a write that skips past the red zones entirely.
    // Guarded copy's default red zone is 512 B; index 4096 writes 16 KiB
    // past the 72-byte payload.
    let offense = |env: &JniEnv<'_>, a: &jni_rt::NativeArray| {
        a.write_i32(&env.native_mem(), 4096, 1).map_err(Into::into)
    };
    use {Neighbour::*, Outcome::*};
    assert_eq!(run_offense(Scheme::NoProtection, offense), (Undetected, Intact));
    assert_eq!(run_offense(Scheme::GuardedCopy, offense), (Undetected, Intact));
    assert_eq!(run_offense(Scheme::Mte4JniSync, offense), (TagCheck, Intact));
    assert_eq!(run_offense(Scheme::Mte4JniAsync, offense), (TagCheck, Intact));
}

#[test]
fn use_after_release_matrix() {
    // Native code stashes the raw pointer and uses it after Release*.
    for (scheme, expect) in [
        (Scheme::NoProtection, Outcome::Undetected),
        // Guarded copy freed the shadow buffer; the dangling pointer still
        // points into the native arena, so the write lands unnoticed.
        (Scheme::GuardedCopy, Outcome::Undetected),
        // Every MTE4JNI backend zeroes the tags at the last release
        // (Algorithm 2): the stale tagged pointer mismatches at once.
        (Scheme::Mte4JniSync, Outcome::TagCheck),
        (Scheme::Mte4JniAsync, Outcome::TagCheck),
        (Scheme::Mte4JniSyncTwoTier, Outcome::TagCheck),
        (Scheme::Mte4JniAsyncTwoTier, Outcome::TagCheck),
    ] {
        let vm = scheme.build_vm();
        let thread = vm.attach_thread("uar");
        let env = vm.env(&thread);
        let array = env.new_int_array(18).expect("alloc");
        let result = env.call_native("use_after_release", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&array)?;
            let stale = elems.ptr();
            env.release_primitive_array_critical(&array, elems, ReleaseMode::CopyBack)?;
            let mem = env.native_mem();
            mem.write_u32(stale, 7)?; // dangling use
            env.log("used after release")?;
            Ok(())
        });
        assert_eq!(classify(result), expect, "{scheme}");
    }
}

#[test]
fn use_after_release_is_caught_after_the_safepoint() {
    // The safepoint purge only touches tracked entries: a GC between the
    // release and the dangling use neither re-tags the array nor hides
    // the mismatch, so the stale pointer still faults.
    for scheme in [Scheme::Mte4JniSync, Scheme::Mte4JniAsync] {
        let vm = scheme.build_vm();
        let thread = vm.attach_thread("uar-swept");
        let env = vm.env(&thread);
        let array = env.new_int_array(18).expect("alloc");
        let mut stale = None;
        env.call_native("release_only", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&array)?;
            stale = Some(elems.ptr());
            env.release_primitive_array_critical(&array, elems, ReleaseMode::CopyBack)
        })
        .expect("clean acquire/release");
        vm.heap().sweep();
        let stale = stale.expect("pointer recorded");
        let result = env.call_native("use_after_sweep", NativeKind::Normal, |env| {
            env.native_mem().write_u32(stale, 7)?; // dangling use
            env.log("used after sweep")?;
            Ok(())
        });
        assert_eq!(classify(result), Outcome::TagCheck, "{scheme}");
    }
}

#[test]
fn use_after_release_is_caught_after_stash_expiry() {
    // No release is deferred per thread: further borrows of another
    // array on the same thread neither delay nor undo the tag free, so
    // the stale pointer faults although no sweep or compaction ran.
    for scheme in [Scheme::Mte4JniSync, Scheme::Mte4JniAsync] {
        let vm = scheme.build_vm();
        let thread = vm.attach_thread("uar-reborrow");
        let env = vm.env(&thread);
        let array = env.new_int_array(18).expect("alloc");
        let decoy = env.new_int_array(4).expect("alloc");
        let result = env.call_native("use_after_reborrow", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&array)?;
            let stale = elems.ptr();
            env.release_primitive_array_critical(&array, elems, ReleaseMode::CopyBack)?;
            for _ in 0..3 {
                let e = env.get_primitive_array_critical(&decoy)?;
                env.release_primitive_array_critical(&decoy, e, ReleaseMode::CopyBack)?;
            }
            env.native_mem().write_u32(stale, 7)?; // dangling use
            env.log("used after reborrow")?;
            Ok(())
        });
        assert_eq!(classify(result), Outcome::TagCheck, "{scheme}");
    }
}

#[test]
fn double_release_is_rejected_or_harmless() {
    // Releasing twice: guarded copy has removed its entry (stale release);
    // MTE4JNI follows Algorithm 2's "no entry → nothing to do".
    for (scheme, expect) in [
        (Scheme::GuardedCopy, Outcome::StaleRelease),
        (Scheme::Mte4JniSync, Outcome::Undetected),
    ] {
        let vm = scheme.build_vm();
        let thread = vm.attach_thread("dr");
        let env = vm.env(&thread);
        let array = env.new_int_array(4).expect("alloc");
        let result = env.call_native("double_release", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&array)?;
            let ptr = elems.ptr();
            env.release_primitive_array_critical(&array, elems, ReleaseMode::CopyBack)?;
            let again = jni_rt::NativeArray::new(ptr, 4, PrimitiveType::Int, false);
            env.release_primitive_array_critical(&array, again, ReleaseMode::CopyBack)
        });
        assert_eq!(classify(result), expect, "{scheme}");
    }
}

#[test]
fn cross_object_granule_attack_depends_on_alignment() {
    // §4.1: under stock 8-byte alignment two objects share a granule, so
    // the neighbour's header is reachable through the victim's tag.
    use std::sync::Arc;
    for (config, caught) in [
        (HeapConfig::misaligned_mte(), false),
        (HeapConfig::mte4jni(), true),
    ] {
        let vm = Vm::builder()
            .heap_config(config)
            .check_mode(TcfMode::Sync)
            .protection(Arc::new(Mte4Jni::new()))
            .build();
        let thread = vm.attach_thread("granule");
        let env = vm.env(&thread);
        let victim = env.new_int_array(1).expect("alloc");
        let neighbour = env.new_int_array(1).expect("alloc");
        let result = env.call_native("granule_attack", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&victim)?;
            let mem = env.native_mem();
            let step = (neighbour.addr() as i64 - victim.data_addr() as i64) / 4;
            elems.write_i32(&mem, step as isize, 0x41414141)?; // smash header
            env.release_primitive_array_critical(&victim, elems, ReleaseMode::CopyBack)
        });
        assert_eq!(
            classify(result) == Outcome::TagCheck,
            caught,
            "alignment {}",
            config.alignment
        );
    }
}

#[test]
fn baseline_misses_adjacent_objects_occasionally() {
    // Two adjacent arrays carry independent random tags, so reaching from
    // one borrowed payload into the other collides with probability 1/15
    // (tag 0 is reserved).
    let vm = Scheme::Mte4JniSync.build_vm();
    let thread = vm.attach_thread("t");
    let env = vm.env(&thread);
    let mut missed = 0;
    for _ in 0..400 {
        let a = env.new_int_array(4).unwrap();
        let b = env.new_int_array(4).unwrap();
        let detected = env
            .call_native("cross", NativeKind::Normal, |env| {
                let ea = env.get_primitive_array_critical(&a)?;
                let eb = env.get_primitive_array_critical(&b)?;
                let mem = env.native_mem();
                let step = (b.data_addr() as i64 - a.data_addr() as i64) / 4;
                let detected = ea.read_i32(&mem, step as isize).is_err();
                env.release_primitive_array_critical(&b, eb, ReleaseMode::Abort)?;
                env.release_primitive_array_critical(&a, ea, ReleaseMode::Abort)?;
                Ok(detected)
            })
            .unwrap();
        if !detected {
            missed += 1;
        }
        vm.heap().sweep();
    }
    // Expected ≈ 400/15 ≈ 27; anywhere in (0, 80) confirms the
    // probabilistic regime without flaking.
    assert!(missed > 0, "the 1/15 collision must eventually occur");
    assert!(missed < 80, "but not much more often than 1/15 ({missed}/400)");
}

#[test]
fn async_faults_can_also_surface_at_trampoline_exit() {
    // No explicit syscall inside the native method: the latched fault
    // must still surface when the trampoline returns to managed code.
    let vm = Scheme::Mte4JniAsync.build_vm();
    let thread = vm.attach_thread("exit");
    let env = vm.env(&thread);
    let array = env.new_int_array(18).expect("alloc");
    let err = env
        .call_native("quiet_corruption", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&array)?;
            let mem = env.native_mem();
            elems.write_i32(&mem, 21, 1)?;
            env.release_primitive_array_critical(&array, elems, ReleaseMode::CopyBack)
        })
        .unwrap_err();
    assert!(err.as_tag_check().is_some());
}
