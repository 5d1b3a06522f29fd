//! Each stage passes its committed `<stage>.pass.json` fixture and
//! rejects its `<stage>.planted.json` one (a single planted regression)
//! with a message naming the regressed field. The fixtures are real
//! reports trimmed to the fields their stage reads; the throughput,
//! scaling and serving ones are judged against the committed baselines,
//! so re-recording a baseline means re-checking its pass fixture.

use super::*;

fn fixture(name: &str) -> JsonValue {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/gate");
    read(&format!("{dir}/{name}.json")).expect("committed fixture parses")
}

fn rejects(verdict: Verdict, field: &str) {
    let err = verdict.expect_err("the planted regression passed");
    assert!(err.contains(field), "{err:?} does not name {field}");
}

#[test]
fn counts_are_exact_for_the_workload() {
    counts("copy-small", &fixture("counts.pass")).unwrap();
    rejects(
        counts("copy-small", &fixture("counts.planted")),
        "mte-sim.irg_per_op",
    );
    // copy-large copies 4096-int arrays: a copy-small run's granules fail.
    rejects(
        counts("copy-large", &fixture("counts.pass")),
        "mte-sim.stg_granules_per_op",
    );
    rejects(counts("serving", &fixture("counts.pass")), "serving");
}

#[test]
fn throughput_holds_the_baseline_floors() {
    let base = baseline("throughput").unwrap();
    throughput(&fixture("throughput.pass"), &base).unwrap();
    rejects(
        throughput(&fixture("throughput.planted"), &base),
        "checked_read_bytes_gbps_4k",
    );
    // The JNI accessors 10% over `TaggedMemory`'s own checked pairs.
    rejects(
        throughput(&fixture("throughput.planted-native"), &base),
        "native_element_rw_ratio",
    );
}

#[test]
fn scaling_holds_the_baseline_and_the_speedup_floor() {
    let base = baseline("scaling").unwrap();
    scaling(&fixture("scaling.pass"), &base, 2).unwrap();
    rejects(
        scaling(&fixture("scaling.planted"), &base, 2),
        "contended_16_speedup",
    );
}

#[test]
fn fig6_enforces_the_contended_ratio_only_on_two_or_more_cpus() {
    fig6(&fixture("fig6.pass"), 2).unwrap();
    rejects(fig6(&fixture("fig6.planted"), 2), "time_ns");
    fig6(&fixture("fig6.planted"), 1).expect("one CPU reports the ratio without enforcing it");
}

#[test]
fn serving_holds_the_peak_and_the_noisy_neighbor_bound() {
    let base = baseline("serving").unwrap();
    serving(&fixture("serving.pass"), &base).unwrap();
    rejects(
        serving(&fixture("serving.planted"), &base),
        "noisy_p99_ratio_lock_free",
    );
}

#[test]
fn containment_needs_faults_contained_and_quarantined_by_every_scheme() {
    stress(&fixture("containment.pass"), "containment", None).unwrap();
    rejects(
        stress(&fixture("containment.planted"), "containment", None),
        "degraded_quarantine",
    );
}

#[test]
fn serving_isolation_exempts_only_the_detecting_scheme() {
    // The pass fixture's guarded scheme contained nothing.
    let guarded = Some("guarded");
    stress(
        &fixture("serving-isolation.pass"),
        "serving isolation",
        guarded,
    )
    .unwrap();
    let planted = fixture("serving-isolation.planted");
    rejects(
        stress(&planted, "serving isolation", guarded),
        "contained_faults",
    );
}

#[test]
fn compaction_skips_the_pinned_survivor_every_round() {
    compaction(&fixture("compaction.pass")).unwrap();
    rejects(
        compaction(&fixture("compaction.planted")),
        "pinned_skipped_total",
    );
}

#[test]
fn fig5_counts_reconcile_exactly() {
    fig5(&fixture("fig5.pass")).unwrap();
    rejects(fig5(&fixture("fig5.planted")), "heap.pins_total");
}

#[test]
fn the_committed_fig5_recording_passes_its_stage() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fig5.json");
    fig5(&read(path).expect("committed BENCH_fig5.json parses")).unwrap();
}

#[test]
fn effectiveness_matches_every_section_5_2_verdict() {
    let ablations = fixture("ablations.pass");
    effectiveness(&fixture("effectiveness.pass"), &ablations).unwrap();
    rejects(
        effectiveness(&fixture("effectiveness.planted"), &ablations),
        "detected",
    );
}

#[test]
fn a_missing_or_malformed_report_fails_its_stage() {
    rejects(
        run(&["fig5", "no/such/report.json"], 2),
        "no/such/report.json",
    );
    let not_json = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    rejects(run(&["compaction", not_json], 2), "JSON error");
    rejects(compaction(&JsonValue::object()), "bench");
    rejects(run(&["no-such-stage", not_json], 2), "usage");
}

#[test]
fn inlined_rejects_an_out_of_line_copy_of_the_one_word_path() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/gate");
    let listing = |name| read_text(&format!("{dir}/inlined.{name}.nm")).unwrap();
    let pass = listing("pass");
    inlined(&pass).unwrap();
    rejects(inlined(&listing("planted")), "TaggedMemory::load_le");
    // The plane view's one-word functions must inline too.
    rejects(inlined(&listing("planted-view")), "PlaneView::check_word_access");
    // The cold handlers stay out of line, and a listing without them is
    // not of a binary that runs the path.
    let hot = pass.replace("TaggedMemory::tag_mismatch", "TaggedMemory::other");
    rejects(inlined(&hot), "tag_mismatch");
    let hot = pass.replace("TaggedMemory::load_straddle", "TaggedMemory::other");
    rejects(inlined(&hot), "load_straddle");
    rejects(inlined(""), "no out-of-line");
    // The bulk accessors, the span walk, the straddling tails, the
    // hooked element accesses, the armed injection lookup and the hooks
    // word itself are not on the one-word path.
    for symbol in [
        "jni_rt::native::NativeMem::read_bytes",
        "jni_rt::native::NativeUtf::read_byte",
        "jni_rt::native::NativeArray::load_hooked",
        "mte_sim::memory::TaggedMemory::check_access",
        "mte_sim::memory::TaggedMemory::store_straddle",
        "mte_sim::memory::PlaneView::memory",
        "mte_sim::inject::should_fail_armed",
        "telemetry::hooks::HOOKS",
    ] {
        assert!(!on_one_word_path(symbol), "{symbol}");
    }
    for symbol in [
        "jni_rt::native::NativeArray::load_elem",
        "jni_rt::native::NativeMem::write_f64",
        "mte_sim::memory::TaggedMemory::store_u16",
        "mte_sim::memory::TaggedMemory::view",
        "mte_sim::memory::PlaneView::store_lanes",
        "mte_sim::thread::MteThread::checks_enabled",
        "telemetry::hooks::word",
        "mte_sim::inject::should_fail",
    ] {
        assert!(on_one_word_path(symbol), "{symbol}");
    }
}
