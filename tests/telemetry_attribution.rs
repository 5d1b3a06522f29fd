//! End-to-end per-interface telemetry attribution for one MTE4JNI OOB
//! scenario: acquire → tag ops → sync fault → release, all visible in a
//! single [`telemetry::Snapshot`]: events keyed by `JniInterface`, tag
//! instructions and faults in the scheme's published `MteStats`.
//!
//! Telemetry state is process-global (one set of event counts, one
//! counter registry), so this file holds exactly one test: sharing a
//! binary with other telemetry-enabling tests would race on the counts.

use mte4jni_repro::prelude::*;

#[test]
fn oob_scenario_attributes_events_to_primitive_array_critical() {
    telemetry::reset();
    telemetry::set_enabled(true);

    let vm = Scheme::Mte4JniSync.build_vm();
    let thread = vm.attach_thread("attribution");
    let env = vm.env(&thread);
    let a = env.new_int_array_from(&[1, 2, 3, 4]).unwrap();

    env.call_native("oob", NativeKind::Normal, |env| {
        let elems = env.get_primitive_array_critical(&a)?;
        let mem = env.native_mem();
        elems.write_i32(&mem, 0, 7)?; // in bounds: tag check passes
        let oob = elems.write_i32(&mem, 100, 9); // 400 B past the end
        assert!(oob.is_err(), "sync MTE faults on the spot");
        env.release_primitive_array_critical(&a, elems, ReleaseMode::Abort)?;
        Ok(())
    })
    .unwrap();

    let snap = vm.telemetry_snapshot();
    assert_eq!(snap.schema_version, telemetry::SCHEMA_VERSION);

    // Interface attribution: the borrow opened and closed under
    // PrimitiveArrayCritical.
    let by_if = &snap.events.by_interface;
    assert!(
        by_if["PrimitiveArrayCritical"] >= 2,
        "acquire + release both attributed: {by_if:?}"
    );

    // The whole causal chain is visible in one snapshot: the borrow's
    // events, and the tag instructions and fault the scheme's MteStats
    // counted exactly.
    let kinds = &snap.events.by_kind;
    assert!(kinds["acquire"] >= 1);
    assert!(kinds["release"] >= 1);
    let counters = &snap.counters;
    assert!(
        counters["scheme.mte4jni.mte.irg_ops"] >= 1,
        "acquire drew a random tag: {counters:?}"
    );
    assert!(
        counters["scheme.mte4jni.mte.stg_ops"] >= 1,
        "tags were written to granules: {counters:?}"
    );
    assert!(
        counters["scheme.mte4jni.mte.sync_faults"] >= 1,
        "the OOB write tripped a synchronous fault: {counters:?}"
    );

    // Scheme counters flow through the shared registry under one prefix.
    assert!(counters["scheme.mte4jni.acquires"] >= 1);
    assert!(counters["scheme.mte4jni.releases"] >= 1);
    // The lock-free default has no table mutex to count; the slab
    // materialized at least one chunk for the first acquire, and each
    // last release freed its tag at once (no safepoint needed).
    assert!(snap.counters["scheme.mte4jni.atomic_slab_chunks"] >= 1);
    assert_eq!(
        snap.counters["scheme.mte4jni.acquires"] - snap.counters["scheme.mte4jni.shared_acquires"],
        snap.counters["scheme.mte4jni.tag_frees"]
    );

    // Latency histograms are keyed by (scheme, interface, size class).
    assert!(
        snap.histograms
            .iter()
            .any(|h| h.key.scheme == "mte4jni" && h.key.interface == "PrimitiveArrayCritical"),
        "histogram keyed to the interface: {:?}",
        snap.histograms.iter().map(|h| h.key).collect::<Vec<_>>()
    );

    telemetry::set_enabled(false);
    telemetry::reset();
}
