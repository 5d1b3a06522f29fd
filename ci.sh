#!/usr/bin/env bash
# CI for the MTE4JNI reproduction.
#
# Assumes the OFFLINE-VENDORED setup described in DESIGN.md §3: there is
# no reachable crates.io registry, all external dependencies are path
# shims under shims/, and .cargo/config.toml pins `net.offline = true`.
# Nothing here may touch the network.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (workspace, all targets) =="
cargo build --offline --workspace --all-targets

echo "== build (benchmark harness) =="
# perfbench/ is a workspace of its own that depends on the repository's
# crates by path, so the workspace build above never compiles it. Build
# it (and its tests) here so a public-API change that breaks the
# benchmark fails CI rather than the benchmark run. Writes only to the
# ignored perfbench/target/.
cargo build --offline --release --manifest-path perfbench/Cargo.toml
cargo test --offline --release --manifest-path perfbench/Cargo.toml --no-run

echo "== perfbench: exact per-op count gate =="
# A traced perfbench run reads each layer's work per op from the
# program's own stats. Counts do not depend on host speed, so this gate
# is exact: one more tag instruction, table acquire or pin per op fails
# it, however fast the host. Each run measures for one second.
for spec in copy-small:4 copy-large:4096; do
    workload="${spec%%:*}"
    granules="${spec##*:}"
    line="$(cargo run --offline -q --release --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 | tail -n 1)"
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$workload" "$granules" "$line" <<'PY'
import json, sys
workload, granules, doc = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
assert doc["correct"] is True, f"{workload}: run not correct"
assert doc["failed"] == 0, f"{workload}: {doc['failed']} failed ops"
want = {
    "mte-sim.irg_per_op": 2,
    "mte-sim.ldg_per_op": 0,
    "mte-sim.stg_granules_per_op": granules,
    "mte4jni.acquires_per_op": 2,
    "mte4jni.tag_frees_per_op": 2,
    "heap.pins_per_op": 2,
    "mte4jni.cas_retries_per_op": 0,
}
got = {k: doc["metrics"][k]["value"] for k in want}
bad = {k: (got[k], v) for k, v in want.items() if got[k] != v}
assert not bad, f"{workload}: per-op counts (got, want) {bad}"
print(f"count gate {workload}:", ", ".join(f"{k}={v:g}" for k, v in got.items()))
PY
    else
        # No python3: at least require a correct run with no failed op.
        echo "$line" | grep -q '"correct": *true'
        echo "$line" | grep -q '"failed": *0[,}]'
        echo "count gate $workload: run correct (python3 unavailable; counts not checked)"
    fi
done

echo "== test (workspace) =="
cargo test --offline --workspace -q

echo "== test: world gate and pin handshake, repeated =="
# Pins take no world-gate hold: they check the gate's compaction flag
# after their increment (DESIGN.md §11). A lost handshake shows as a
# rare interleaving, so the gate's tests (`world::`, with the
# mutator/compactor race) and the pin back-off test run 20 times in
# release, where the race is tightest. Any failed run fails CI.
for run in $(seq 1 20); do
    if ! cargo test --offline -q --release -p art-heap --lib -- \
        world:: a_pin_waits_out_an_active_compaction_pass >/dev/null; then
        echo "world gate tests failed on run $run of 20" >&2
        exit 1
    fi
done
echo "world gate tests: 20 of 20 runs passed"

echo "== clippy =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "clippy not installed; skipping lint stage"
fi

echo "== rustdoc (warnings denied) =="
# Broken, ambiguous or private intra-doc links fail the stage, so an
# item deleted from the code cannot leave a dangling link in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --keep-going

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

echo "== bench smoke: kernel throughput regression gate =="
# Reduced-scale throughput run of the wide-word kernels (DESIGN.md §10),
# written to the temp dir so CI leaves the committed reports as they are.
# Release profile: the committed baseline was measured with optimizations on, and
# debug numbers would gate nothing. This stage runs *before* the long
# stress gates: several minutes of sustained load ahead of it can push
# the host off its boost clocks and fail the comparison for reasons that
# have nothing to do with the kernels.
cargo run --offline -q --release -p bench --bin throughput -- \
    --quick --json "$out" >/dev/null
test -s "$out/BENCH_throughput.json"
baseline="crates/bench/baselines/BENCH_throughput.baseline.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/BENCH_throughput.json" "$baseline" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
cur, ref = doc["summary"], base["summary"]
# Checked-path throughput may not regress more than 20% against the
# committed baseline.
gates = [k for k in ref if k.startswith("checked_") and k.endswith("_gbps_4k")]
assert gates, "baseline summary carries no checked-path gate figures"
for key in gates:
    floor = 0.8 * ref[key]
    assert cur[key] >= floor, (
        f"{key} regressed: {cur[key]:.3f} GB/s < 80% of baseline {ref[key]:.3f}"
    )
# The optimization's acceptance floor: >=4x over the scalar reference on
# 4 KiB checked read/write and on set_tag_range.
for key in ("speedup_read_4k", "speedup_write_4k", "speedup_set_tag_range"):
    assert cur[key] >= 4.0, f"{key} below 4x: {cur[key]:.2f}"
# The one-word scalar path (DESIGN.md §10): checked u32 load+store per
# element against the scalar reference, alternated round by round in
# the same run so the host's speed cancels out (median of 31 per-round
# ratios). Thirty-four quick runs on a 2-vCPU host read 1.04x-1.55x;
# the span-check path this replaced reads 0.46x-0.48x. The floor is 75%
# of the minimum, rounded down to 0.05. It fails a return to the span
# path and a planted +80% slowdown of the one-word path (0.57x-0.64x).
# A planted +26% slowdown (0.82x-1.16x) overlaps the clean range and
# passes; see CHANGES.md.
elem_floor = 0.75
assert cur["speedup_element_rw"] >= elem_floor, (
    f"speedup_element_rw below {elem_floor:.2f}x: {cur['speedup_element_rw']:.3f} "
    f"({cur['element_rw_ns']:.2f} ns vs {cur['scalar_element_rw_ns']:.2f} ns scalar)"
)
print("throughput gate:", ", ".join(f"{k}={cur[k]:.2f}" for k in sorted(gates)),
      f"speedup_element_rw={cur['speedup_element_rw']:.3f}")
# Pin + unpin on one small array (the object's atomic pin count and
# one load of the world gate's compaction flag; no gate hold):
# report-only, no gate.
print(f"throughput report: pin_unpin_ns={cur['pin_unpin_ns']:.1f}")
PY
else
    # No python3: at least require the report and its headline fields.
    grep -q '"speedup_read_4k"' "$out/BENCH_throughput.json"
    echo "throughput report present (python3 unavailable; gate skipped)"
fi

echo "== bench smoke: tag-table thread-scaling gate =="
# The lock-free redesign's regression gate (DESIGN.md §13): quick
# scaling run at 1/4/16 threads with the full-mode op budget (the
# default quick budget is too small to amortize thread spawn/join on a
# loaded host), compared against the committed baseline. Gated:
#   * lock_free contended ops/s within 20% of baseline at 1/4/16;
#   * lock_free >= two_tier_k16 at every measured point, both modes;
#   * contended 16-thread lock_free/two_tier speedup above its floor.
# Like the throughput stage this runs release and ahead of the long
# stress gates (thermal drift).
cargo run --offline -q --release -p bench --bin scaling -- \
    --quick --pairs 20000 --json "$out" >/dev/null
test -s "$out/BENCH_scaling.json"
scaling_baseline="crates/bench/baselines/BENCH_scaling.baseline.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/BENCH_scaling.json" "$scaling_baseline" "$(nproc)" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
def rows(d):
    return {(r["mode"], r["threads"]): r for r in d["rows"]}
cur, ref = rows(doc), rows(base)
for key in [("contended", t) for t in (1, 4, 16)]:
    floor = 0.8 * ref[key]["lock_free"]
    got = cur[key]["lock_free"]
    assert got >= floor, (
        f"lock_free {key} regressed: {got:,.0f} ops/s < 80% of "
        f"baseline {ref[key]['lock_free']:,.0f}"
    )
for key, row in cur.items():
    assert row["lock_free"] >= row["two_tier_k16"], (
        f"lock_free slower than two_tier at {key}: "
        f"{row['lock_free']:,.0f} < {row['two_tier_k16']:,.0f}"
    )
speedup = doc["summary"]["contended_16_speedup"]
ncpu = int(sys.argv[3])
# Every lock-free acquire and release is one CAS on the shared entry
# word, and every pair of the contended shape re-tags the object, so
# the ratio swings with how the host schedules the two-tier mutexes
# (1.67x-5.18x over ten quick runs on a 2-vCPU host; see DESIGN.md §13).
# The floor is 75% of the minimum of those ten runs, rounded down to
# 0.05. The measured ratio is recorded in the committed
# BENCH_scaling.json.
floor = 1.25
assert speedup >= floor, (
    f"contended-16 speedup below {floor:.2f}x (nproc={ncpu}): {speedup:.2f}"
)
print(f"scaling gate: contended-16 lock_free {speedup:.1f}x over two_tier "
      f"(floor {floor:.2f}x, nproc={ncpu})")
PY
else
    grep -q '"contended_16_speedup"' "$out/BENCH_scaling.json"
    echo "scaling report present (python3 unavailable; gate skipped)"
fi

# Exact reconciliation of a schema-4 bench report's independently kept
# counts: the VMs' own counters, summed over every VM the report
# measured (telemetry.counters), against the samples its latency
# histograms timed. Every acquire pins its object once and every release
# unpins it once, whichever scheme served the borrow, so the summed
# heap.pins_total / heap.unpins_total equal the timed acquires /
# releases; each scheme that counts its own acquires and releases counts
# exactly its timed ones. Needs python3.
reconcile_counts() {
    python3 - "$1" <<'PY'
import json, re, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 4, doc["schema_version"]
hists = doc["telemetry"]["histograms"]
per = {}
for key, value in doc["telemetry"]["counters"].items():
    m = re.fullmatch(r"scheme\.([^.]+)\.(.+)", key)
    assert m, f"counter outside a scheme prefix: {key}"
    per.setdefault(m[2], {})[m[1]] = value
def timed(op, scheme=None):
    return sum(h["count"] for h in hists
               if h["op"] == op and scheme in (None, h["scheme"]))
acquires, releases = timed("acquire"), timed("release")
assert acquires > 0, "no timed acquires"
pins = sum(per["heap.pins_total"].values())
unpins = sum(per["heap.unpins_total"].values())
assert pins == acquires, f"{pins} pins counted != {acquires} acquires timed"
assert unpins == releases, f"{unpins} unpins counted != {releases} releases timed"
for scheme, n in sorted(per.get("acquires", {}).items()):
    want = (timed("acquire", scheme), timed("release", scheme))
    got = (n, per["releases"][scheme])
    assert got == want, f"{scheme}: counted (acquires, releases) {got} != timed {want}"
print(f"{doc['bench']} counts reconcile exactly: {pins} pins == timed acquires, "
      f"{unpins} unpins == timed releases; per-scheme acquires/releases for "
      + ", ".join(sorted(per.get("acquires", {}))))
PY
}

echo "== bench smoke: fig6 end-to-end contention gate =="
# The default-backend switch's regression gate (DESIGN.md §15): a
# reduced fig6 run at 16 contended threads through the full JNI funnel,
# written to the temp dir like the other bench smoke reports. The
# acceptance target is lock-free <= two-tier on contended multicore
# hardware. A single-core host serializes the contention the two-tier
# mutexes lose to and run-to-run noise is ~+/-8%, so the ratio is only
# *enforced* on multicore hosts (nproc >= 2), at a 15% ceiling that
# leaves headroom over the noise; single-core runs validate the report
# shape and print the ratios for the record. Release profile, ahead of
# the long stress gates (thermal drift), like the other perf smokes.
cargo run --offline -q --release -p bench --bin fig6 -- \
    --threads 16 --reads 2000 --json "$out" >/dev/null
test -s "$out/BENCH_fig6.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/BENCH_fig6.json" "$(nproc)" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
ncpu = int(sys.argv[2])
enforce = ncpu >= 2
assert doc["bench"] == "fig6"
assert doc["params"]["threads"] == 16, doc["params"]
rows = {(r["sharing"], r["scheme"]): r for r in doc["rows"]}
for mode in ("same_array", "different_arrays"):
    for tcf in ("sync", "async"):
        lf = rows[(mode, f"lock-free {tcf}")]["time_ns"]
        tt = rows[(mode, f"two-tier {tcf}")]["time_ns"]
        if mode == "same_array" and enforce:
            assert lf <= 1.15 * tt, (
                f"lock-free {tcf} end-to-end regressed vs two-tier on the "
                f"contended rows: {lf/1e6:.1f}ms > 115% of {tt/1e6:.1f}ms"
            )
        print(f"fig6 gate: {mode} {tcf}: lock-free {lf/1e6:.1f}ms, "
              f"two-tier {tt/1e6:.1f}ms ({lf/tt:.2f}x)")
if not enforce:
    print(f"fig6 gate: single-core host (nproc={ncpu}) serializes the "
          "contention; ratios reported, not enforced")
PY
    # 16 threads bump their own tally rows while sharing the histograms.
    reconcile_counts "$out/BENCH_fig6.json"
else
    grep -q '"lock-free sync"' "$out/BENCH_fig6.json"
    echo "fig6 report present (python3 unavailable; gate skipped)"
fi

echo "== bench smoke: fig7 + fig8 checksum run =="
# Run-only: both Figure 7/8 binaries assert that every scheme computes
# the no-protection checksum in every pass, so reaching the end of a run
# at the smallest scale with one round checks the sixteen kernels under
# every scheme through the timing harness. No perf threshold.
cargo run --offline -q --release -p bench --bin fig7 -- --scale 1 --iters 1 >/dev/null
cargo run --offline -q --release -p bench --bin fig8 -- --scale 1 --repeats 1 >/dev/null
echo "fig7 and fig8: every scheme's checksums match no protection"

echo "== bench smoke: multi-tenant serving gate =="
# The serving layer's regression gate (DESIGN.md §16): quick fleet run
# over every scheme at 1/4/16 tenants plus the noisy-neighbor rows,
# compared against the committed baseline. The binary itself asserts
# fleet quiescence and neighbor isolation after every measurement, so
# reaching the gate already implies soundness. Per-row req/s on a
# loaded single-core host swings ~±25% run to run, so the throughput
# gate holds the *fleet peak* (stable within ~10%) to ≤ 20% regression;
# the noisy-neighbor p99 ratios are min-of-repeats on both sides of the
# same arrival seed and gated at the 1.5x acceptance bound.
cargo run --offline -q --release -p bench --bin serving -- \
    --quick --json "$out" >/dev/null
test -s "$out/BENCH_serving.json"
serving_baseline="crates/bench/baselines/BENCH_serving.baseline.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/BENCH_serving.json" "$serving_baseline" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
assert doc["bench"] == "serving"
def keys(d):
    return {(r["scheme"], r["tenants"], r["noisy"]) for r in d["rows"]}
assert keys(doc) == keys(base), "serving row set drifted from the baseline"
peak, ref = doc["summary"]["peak_req_s"], base["summary"]["peak_req_s"]
assert peak >= 0.8 * ref, (
    f"fleet peak regressed: {peak:,.0f} req/s < 80% of baseline {ref:,.0f}"
)
rows = {(r["scheme"], r["tenants"], r["noisy"]): r for r in doc["rows"]}
for scheme in ("lock-free", "two-tier", "global"):
    noisy = rows[(scheme, 4, True)]
    assert noisy["t0_health"] == "quarantined", noisy
    assert noisy["contained_faults_t0"] > 0, noisy
ratios = {k: v for k, v in doc["summary"].items() if k.startswith("noisy_p99_ratio_")}
assert ratios, "summary carries no noisy p99 ratios"
for key, ratio in ratios.items():
    assert ratio <= 1.5, f"{key} above the 1.5x acceptance bound: {ratio:.2f}"
# Request histograms carry the tenant as a typed label (schema 3), never
# folded into the scheme string.
hists = doc["telemetry"]["histograms"]
requests = [h for h in hists if h["op"] == "request"]
assert requests, "telemetry carries no request histograms"
assert all(type(h.get("tenant")) is int for h in requests), requests
assert not any("/" in h["scheme"] for h in hists), "a scheme label embeds a tenant"
print("serving gate: peak %.0f req/s, %s" % (
    peak, ", ".join(f"{k.removeprefix('noisy_p99_ratio_')}={v:.2f}x"
                    for k, v in sorted(ratios.items()))))
PY
else
    grep -q '"peak_req_s"' "$out/BENCH_serving.json"
    echo "serving report present (python3 unavailable; gate skipped)"
fi

echo "== deterministic stress (fixed seed, lock-free table) =="
# The redesign's dedicated stress gate: 1000 fixed-seed schedules over
# the lock-free table with fault injection, plus the mutation
# self-check (the run fails unless the deliberately broken
# AtomicEntryTable is caught). Bit-reproducible like the main sweep.
lf_flags=(--scheme lock-free --seed 0xC1 --schedules 1000
    --fault-ppm 2000 --self-check)
cargo run --offline -q -p stress --bin stress -- \
    "${lf_flags[@]}" --json "$out/stress-lf1"
test -s "$out/stress-lf1/STRESS.json"
cargo run --offline -q -p stress --bin stress -- \
    "${lf_flags[@]}" --json "$out/stress-lf2" >/dev/null
cmp "$out/stress-lf1/STRESS.json" "$out/stress-lf2/STRESS.json"
echo "lock-free STRESS.json bit-reproducible across runs"

echo "== deterministic stress (fixed seed) =="
# Fixed-seed schedule sweep over all three schemes with fault injection,
# plus the mutation self-check: the run fails unless the harness catches
# the deliberately broken tables (DESIGN.md §9). Fast: a few seconds.
stress_flags=(--seed 0xC1 --schedules 120 --fault-ppm 2000 --self-check)
cargo run --offline -q -p stress --bin stress -- \
    "${stress_flags[@]}" --json "$out/stress1"
test -s "$out/stress1/STRESS.json"
# Bit-reproducibility: the identical invocation must produce an
# identical report (traces are seeded; the JSON carries no timestamps).
cargo run --offline -q -p stress --bin stress -- \
    "${stress_flags[@]}" --json "$out/stress2" >/dev/null
cmp "$out/stress1/STRESS.json" "$out/stress2/STRESS.json"
echo "STRESS.json bit-reproducible across runs"

echo "== pin-aware lifecycle: fixed-seed stress gate =="
# The object-lifecycle schedules (acquire, drop the last Java handle,
# sweep, release — DESIGN.md §11): 1000 schedules per scheme under fault
# injection. Any reclaimed-while-borrowed object, unbalanced pin, stale
# table entry, or recycled-address tag alias fails the run.
# Bit-reproducible like the other fixed-seed stress gates.
lifecycle_flags=(--lifecycle --seed 0xC1 --schedules 1000 --fault-ppm 2000)
cargo run --offline -q -p stress --bin stress -- \
    "${lifecycle_flags[@]}" --json "$out/lifecycle1"
test -s "$out/lifecycle1/STRESS.json"
grep -q '"workload": "lifecycle"' "$out/lifecycle1/STRESS.json"
cargo run --offline -q -p stress --bin stress -- \
    "${lifecycle_flags[@]}" --json "$out/lifecycle2" >/dev/null
cmp "$out/lifecycle1/STRESS.json" "$out/lifecycle2/STRESS.json"
echo "lifecycle STRESS.json bit-reproducible across runs"

echo "== fault containment: fixed-seed stress gate =="
# Containment schedules (DESIGN.md §12): MTE4JNI VMs under
# FaultPolicy::Contain with a guarded-copy fallback, workers that go out
# of bounds on purpose, and mixed per-point injection including spurious
# tag-check faults. The binary exits nonzero on any oracle violation
# (stale entry, leaked shadow or native byte, unbalanced pin, residual
# tag) — VM survival across all 1000 schedules is the gate.
containment_flags=(--containment --seed 0xC7 --schedules 1000 --rounds 4
    --fault-irg-ppm 2000 --fault-ldg-ppm 2000 --fault-stg-ppm 2000
    --fault-alloc-ppm 2000 --fault-spurious-ppm 2000)
cargo run --offline -q -p stress --bin stress -- \
    "${containment_flags[@]}" --json "$out/contain1"
test -s "$out/contain1/STRESS.json"
grep -q '"workload": "containment"' "$out/contain1/STRESS.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/contain1/STRESS.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
plan = doc["params"]["fault_plan"]
assert all(plan[k] >= 2000 for k in plan), plan
for scheme in doc["schemes"]:
    assert scheme["clean"] and not scheme["violations"], scheme
    assert scheme["contained_faults"] > 0, scheme
    assert scheme["degraded_quarantine"] > 0, scheme
print("containment gate:", ", ".join(
    "%s contained=%d quarantined=%d exhausted=%d"
    % (s["scheme"], s["contained_faults"], s["degraded_quarantine"],
       s["degraded_tag_exhaustion"])
    for s in doc["schemes"]))
PY
else
    grep -q '"contained_faults"' "$out/contain1/STRESS.json"
    echo "containment report present (python3 unavailable; gate skipped)"
fi
# Containment must be as deterministic as the clean schedules: the same
# seed replays the same faults, tombstones, and degradations.
cargo run --offline -q -p stress --bin stress -- \
    "${containment_flags[@]}" --json "$out/contain2" >/dev/null
cmp "$out/contain1/STRESS.json" "$out/contain2/STRESS.json"
echo "containment STRESS.json bit-reproducible across runs"

echo "== serving isolation: fixed-seed stress gate =="
# The multi-tenant isolation oracle (DESIGN.md §16) under the
# deterministic scheduler: every schedule runs a 3-tenant fleet with
# tenant 0 on the mixed containment fault plan plus deliberate
# out-of-bounds traffic, one scheduled worker per tenant. The binary
# exits nonzero unless every *other* tenant finishes everything it
# admitted with zero contained faults and the whole fleet passes the
# quiescence oracle (balanced pins, no stale entries, no leaked
# shadows). Bit-reproducible like the other stress gates.
serving_flags=(--serving --seed 0x5E --schedules 200
    --fault-irg-ppm 2000 --fault-ldg-ppm 2000 --fault-stg-ppm 2000
    --fault-alloc-ppm 2000 --fault-spurious-ppm 2000)
cargo run --offline -q -p stress --bin stress -- \
    "${serving_flags[@]}" --json "$out/serving1"
test -s "$out/serving1/STRESS.json"
grep -q '"workload": "serving"' "$out/serving1/STRESS.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/serving1/STRESS.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
plan = doc["params"]["fault_plan"]
assert all(plan[k] >= 2000 for k in plan), plan
for scheme in doc["schemes"]:
    assert scheme["clean"] and not scheme["violations"], scheme
    if scheme["scheme"] != "guarded":
        assert scheme["contained_faults"] > 0, scheme
        assert scheme["degraded_quarantine"] > 0, scheme
print("serving isolation gate:", ", ".join(
    "%s contained=%d quarantined=%d" % (
        s["scheme"], s["contained_faults"], s["degraded_quarantine"])
    for s in doc["schemes"]))
PY
else
    grep -q '"contained_faults"' "$out/serving1/STRESS.json"
    echo "serving report present (python3 unavailable; gate skipped)"
fi
cargo run --offline -q -p stress --bin stress -- \
    "${serving_flags[@]}" --json "$out/serving2" >/dev/null
cmp "$out/serving1/STRESS.json" "$out/serving2/STRESS.json"
echo "serving STRESS.json bit-reproducible across runs"

echo "== bench smoke: compaction + pinning =="
# Quick fragmentation-under-churn run (sweep-only vs mark-compact around
# a pinned borrow). The binary itself asserts the pinned survivor was
# treated as an obstacle in every compaction pass; the report lands in
# the temp dir like the other bench smoke outputs.
cargo run --offline -q --release -p bench --bin compaction -- \
    --quick --json "$out" >/dev/null
test -s "$out/BENCH_compaction.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/BENCH_compaction.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
s = doc["summary"]
assert doc["bench"] == "compaction"
assert s["pinned_skipped_total"] >= doc["params"]["rounds"], s
assert s["moved_objects_total"] > 0, s
assert s["final_largest_alloc_compact"] >= s["final_largest_alloc_sweep"], s
hists = json.dumps(doc["telemetry"])
assert "gc_pause" in hists, "telemetry must carry the gc_pause histogram"
print("compaction gate: recovery %.2fx, %d moved, %d pinned skips"
      % (s["largest_alloc_recovery"], s["moved_objects_total"],
         s["pinned_skipped_total"]))
PY
else
    grep -q '"pinned_skipped_total"' "$out/BENCH_compaction.json"
    echo "compaction report present (python3 unavailable; gate skipped)"
fi

echo "== bench JSON sanity =="
# A fast fig5 run must emit a parseable, schema-versioned report whose
# summary carries the headline ratios (README "Regenerating" section),
# including the quarantined guarded-copy-fallback column (--degraded).
cargo run --offline -q -p bench --bin fig5 -- \
    --repeats 1 --max-pow 4 --degraded --json "$out" >/dev/null
test -s "$out/BENCH_fig5.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/BENCH_fig5.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 4, doc["schema_version"]
assert doc["bench"] == "fig5"
assert doc["rows"], "rows must be non-empty"
assert "avg_mte_sync_ratio" in doc["summary"], sorted(doc["summary"])
assert "avg_degraded_guarded_ratio" in doc["summary"], sorted(doc["summary"])
assert doc["summary"]["degraded_fallback_ratio"] > 0, doc["summary"]
assert all("degraded_guarded_ratio" in row for row in doc["rows"])
print("BENCH_fig5.json sane:", len(doc["rows"]), "rows (with degraded column)")
PY
    reconcile_counts "$out/BENCH_fig5.json"
else
    # No python3: at least require the schema marker in the raw text.
    grep -q '"schema_version": 4' "$out/BENCH_fig5.json"
    echo "BENCH_fig5.json sane (schema marker present)"
fi

echo "== effectiveness + ablations: detection verdict gate =="
# The §5.2 effectiveness matrix and the tag-conflict ablation, release
# profile (a few seconds together). Gated:
#   * every effectiveness row matches the paper's (scenario, scheme) ->
#     detected verdict, including the stale-tag pair from the
#     release_tags = false ablation;
#   * exactly one tag_conflict row: an OOB read into released (zeroed)
#     memory is never missed, and one into a live, independently tagged
#     neighbour is missed sometimes but well under 1 in 5 (the expected
#     rate is 1/15; the seeded run is deterministic).
cargo run --offline -q --release -p bench --bin effectiveness -- \
    --json "$out" >/dev/null
cargo run --offline -q --release -p bench --bin ablations -- \
    --trials 600 --rz-iters 200 --table-iters 10000 --json "$out" >/dev/null
test -s "$out/BENCH_effectiveness.json"
test -s "$out/BENCH_ablations.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/BENCH_effectiveness.json" "$out/BENCH_ablations.json" <<'PY'
import json, sys
eff = json.load(open(sys.argv[1]))
expected = {
    ("oob_write", "No_Protection"): False,
    ("oob_write", "Guarded_Copy"): True,
    ("oob_write", "MTE4JNI+Sync"): True,
    ("oob_write", "MTE4JNI+Async"): True,
    ("oob_read", "No_Protection"): False,
    ("oob_read", "Guarded_Copy"): False,
    ("oob_read", "MTE4JNI+Sync"): True,
    ("oob_read", "MTE4JNI+Async"): True,
    ("red_zone_skip", "Guarded_Copy (red zone 64 B)"): False,
    ("red_zone_skip", "MTE4JNI+Sync"): True,
    ("alignment_hazard", "stock 8-byte alignment + PROT_MTE"): False,
    ("alignment_hazard", "MTE4JNI 16-byte alignment"): True,
    ("stale_tags", "tags released at refcount 0"): False,
    ("stale_tags", "tags never released"): True,
}
got = {(r["scenario"], r["scheme"]): r["detected"] for r in eff["rows"]}
assert len(eff["rows"]) == len(expected), eff["rows"]
assert got == expected, {k: got.get(k) for k in set(got) | set(expected)
                         if got.get(k) != expected.get(k)}
abl = json.load(open(sys.argv[2]))
rows = [r for r in abl["rows"] if r.get("section") == "tag_conflict"]
assert len(rows) == 1, rows
row = rows[0]
assert row["missed_released"] == 0, row
assert 0 < row["missed_live"] < row["trials"] / 5, row
print("effectiveness gate: %d verdicts match §5.2; tag conflict missed %d/%d live, %d released"
      % (len(expected), row["missed_live"], row["trials"], row["missed_released"]))
PY
else
    # No python3: at least require the stale-tag verdict and a single
    # tag_conflict row that never misses released memory.
    grep -q '"scenario": "stale_tags"' "$out/BENCH_effectiveness.json"
    test "$(grep -c '"section": "tag_conflict"' "$out/BENCH_ablations.json")" -eq 1
    grep -q '"missed_released": 0,' "$out/BENCH_ablations.json"
    echo "effectiveness/ablations reports present (python3 unavailable; verdicts not checked)"
fi

echo "== trace record/replay: determinism + differential gate =="
# DESIGN.md §14: (1) recording the fixed-seed corpus twice must produce
# bit-identical logs — the trace format carries logical timestamps only,
# so any byte of drift is a determinism bug in the runtime itself;
# (2) the committed golden corpus must replay to equivalent outcome
# digests across every table backend (strict among the MTE tables,
# detection-verdict equality vs guarded copy, conservation laws for
# all) — `trace diff` exits nonzero on any divergence; (3) each
# trace's `trace diff` output (hashes and counts only, so deterministic)
# must match its committed golden under crates/trace/corpus/expected/.
trace_bin() { cargo run --offline -q -p trace --bin trace -- "$@"; }
trace_bin record --workload "Asset Compression" --seed 7 --scale 1 \
    --out "$out/wl_a.trc" >/dev/null
trace_bin record --workload "Asset Compression" --seed 7 --scale 1 \
    --out "$out/wl_b.trc" >/dev/null
trace_bin record --scenario oob-contain --seed 11 --out "$out/oob_a.trc" >/dev/null
trace_bin record --scenario oob-contain --seed 11 --out "$out/oob_b.trc" >/dev/null
trace_bin record --scenario spurious-inject --seed 23 --out "$out/sp_a.trc" >/dev/null
trace_bin record --scenario spurious-inject --seed 23 --out "$out/sp_b.trc" >/dev/null
cmp "$out/wl_a.trc" "$out/wl_b.trc"
cmp "$out/oob_a.trc" "$out/oob_b.trc"
cmp "$out/sp_a.trc" "$out/sp_b.trc"
echo "fixed-seed corpus recordings bit-identical across runs"
for trc in crates/trace/corpus/*.trc; do
    name="$(basename "$trc" .trc)"
    trace_bin diff --in "$trc" >"$out/diff_$name.txt"
    diff -u "crates/trace/corpus/expected/$name.txt" "$out/diff_$name.txt"
done
echo "golden corpus equivalent across backends; diff output matches the goldens"
# The runtime_doctor example must keep loading corpus traces: its dump
# must name the contained fault's method and attributed interface.
doctor_out="$(cargo run --offline -q --example runtime_doctor -- \
    crates/trace/corpus/oob_contain.trc)"
grep -q "Lib.oobWrite" <<<"$doctor_out"
grep -q "GetPrimitiveArrayCritical" <<<"$doctor_out"
echo "runtime_doctor reads corpus traces"

echo "== CI green =="
