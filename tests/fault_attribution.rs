//! A tag-check fault is blamed on the live borrow whose pointer tag the
//! faulting pointer carries, not on the borrow whose address happens to
//! lie nearest the fault.

use jni_rt::JniInterface;
use mte4jni_repro::prelude::*;
use mte_sim::{FaultAttribution, MemError};

/// The attribution of the tag-check fault `e` carries.
fn attribution(e: &JniError) -> Option<&FaultAttribution> {
    e.as_tag_check().and_then(|f| f.attribution.as_ref())
}

#[test]
fn an_overflow_is_blamed_on_the_borrow_it_escaped_not_the_nearest_one() {
    let vm = Scheme::Mte4JniSync.build_vm();
    let thread = vm.attach_thread("attribution");
    let env = vm.env(&thread);
    // Allocated back to back: B's payload starts just past A's end.
    let a = env.new_int_array(64).unwrap();
    let b = env.new_int_array(4).unwrap();

    let err = env
        .call_native(
            "overflow",
            NativeKind::Normal,
            |env| -> Result<(), JniError> {
                let ea = env.get_int_array_elements(&a)?;
                // Redraw B's tag until it differs from A's, so the overflow
                // below is certain to fault.
                let eb = loop {
                    let eb = env.get_primitive_array_critical(&b)?;
                    if eb.ptr().tag() != ea.ptr().tag() {
                        break eb;
                    }
                    env.release_primitive_array_critical(&b, eb, ReleaseMode::Abort)?;
                };
                let mem = env.native_mem();
                // One element past A's end: an address nearer B's pointer
                // than A's, reached through A's pointer and so A's tag.
                let past_end = ea.ptr().addr() + 64 * 4;
                assert!(
                    past_end.abs_diff(eb.ptr().addr()) < past_end.abs_diff(ea.ptr().addr()),
                    "the fault must lie nearer B's pointer for the test to mean anything"
                );
                // Both borrows are still live when the fault leaves the
                // trampoline; the environment releases them when it drops.
                ea.write_i32(&mem, 64, 1)?;
                unreachable!("sync MTE faults on the spot")
            },
        )
        .unwrap_err();

    let blamed = attribution(&err).expect("the fault is attributed");
    assert_eq!(blamed.interface, JniInterface::ArrayElements);
    assert_eq!(blamed.scheme, "mte4jni");
}

#[test]
fn a_tag_no_live_borrow_carries_is_left_unattributed() {
    let vm = Scheme::Mte4JniSync.build_vm();
    let thread = vm.attach_thread("attribution");
    let env = vm.env(&thread);
    let a = env.new_int_array(4).unwrap();

    let err = env
        .call_native(
            "forged",
            NativeKind::Normal,
            |env| -> Result<(), JniError> {
                let ea = env.get_primitive_array_critical(&a)?;
                let mem = env.native_mem();
                // A pointer to A's payload under a tag no borrow was given.
                let forged_tag = Tag::new((ea.ptr().tag().value() % 15) + 1).unwrap();
                let forged = ea.ptr().with_tag(forged_tag);
                let fault = mem.read_u32(forged).unwrap_err();
                assert!(matches!(fault, MemError::TagCheck(_)));
                // A's borrow is still live when the fault leaves.
                Err(fault.into())
            },
        )
        .unwrap_err();

    assert!(err.as_tag_check().is_some(), "{err:?}");
    assert_eq!(
        attribution(&err),
        None,
        "no live borrow carries the forged tag"
    );
}

#[test]
fn borrows_that_share_the_tag_but_not_the_interface_leave_it_unattributed() {
    let vm = Scheme::Mte4JniSync.build_vm();
    let thread = vm.attach_thread("attribution");
    let env = vm.env(&thread);
    let a = env.new_int_array(4).unwrap();

    let err = env
        .call_native(
            "ambiguous",
            NativeKind::Normal,
            |env| -> Result<(), JniError> {
                // One object borrowed twice: the second acquire shares the
                // first one's tag.
                let elements = env.get_int_array_elements(&a)?;
                let critical = env.get_primitive_array_critical(&a)?;
                assert_eq!(critical.ptr().tag(), elements.ptr().tag());
                let mem = env.native_mem();
                critical.write_i32(&mem, 64, 1)?;
                unreachable!("sync MTE faults on the spot")
            },
        )
        .unwrap_err();

    assert!(err.as_tag_check().is_some(), "{err:?}");
    assert_eq!(
        attribution(&err),
        None,
        "two interfaces carry the tag: no guess"
    );
}
