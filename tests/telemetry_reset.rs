//! `telemetry::reset()` zeroes histograms in place: a VM that resolved
//! its latency handles before the reset keeps recording into the
//! histograms a later snapshot reads.
//!
//! Telemetry state is process-global, so this file holds exactly one
//! test: sharing a binary with other telemetry-enabling tests would race
//! on the counts.

use mte4jni_repro::prelude::*;
use telemetry::{LatencyOp, SizeClass};

fn copy_once(env: &JniEnv<'_>, a: &ArrayRef) {
    env.call_native("touch", NativeKind::Normal, |env| {
        let elems = env.get_primitive_array_critical(a)?;
        env.release_primitive_array_critical(a, elems, ReleaseMode::Abort)
    })
    .unwrap();
}

#[test]
fn reset_keeps_a_live_vms_handles_recording() {
    telemetry::reset();
    telemetry::set_enabled(true);

    let vm = Scheme::Mte4JniSync.build_vm();
    let thread = vm.attach_thread("reset");
    let env = vm.env(&thread);
    let a = env.new_int_array_from(&[1, 2, 3, 4]).unwrap();

    copy_once(&env, &a);
    telemetry::reset();
    assert!(
        telemetry::Snapshot::collect().histograms.is_empty(),
        "a reset snapshot shows no histogram"
    );
    copy_once(&env, &a);

    let snap = telemetry::Snapshot::collect();
    let count = |op| {
        snap.histograms
            .iter()
            .find(|h| {
                h.key.tenant.is_none()
                    && h.key.scheme == "mte4jni"
                    && h.key.interface == "PrimitiveArrayCritical"
                    && h.key.size_class == SizeClass::Tiny
                    && h.key.op == op
            })
            .map(|h| h.count)
    };
    assert_eq!(count(LatencyOp::Acquire), Some(1), "{:?}", snap.histograms);
    assert_eq!(count(LatencyOp::Release), Some(1));

    telemetry::set_enabled(false);
    telemetry::reset();
}
