#!/usr/bin/env bash
# CI for the MTE4JNI reproduction.
#
# Assumes the OFFLINE-VENDORED setup described in DESIGN.md §3: there is
# no reachable crates.io registry, all external dependencies are path
# shims under shims/, and .cargo/config.toml pins `net.offline = true`.
# Nothing here may touch the network.
set -euo pipefail
cd "$(dirname "$0")"

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
# The regression gates (crates/bench/src/bin/gate): one call per stage,
# over the report(s) the stage wrote. A missing or malformed report fails.
gate() { cargo run --offline -q -p bench --bin gate -- "$@"; }

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

echo "== perfbench: one-word access path inlined =="
# A checked element access compiles into the native loop that makes it
# (DESIGN.md §10): the benchmark's release binary, built without LTO,
# may hold no out-of-line copy of a function on the one-word path, and
# must hold the cold handlers it calls. Symbol names do not depend on
# host speed, so this gate is exact.
nm -C perfbench/target/release/perfbench >"$out/perfbench.nm"
gate inlined "$out/perfbench.nm"

echo "== perfbench: exact per-op count gate =="
# A traced perfbench run reads each layer's work per op from the
# program's own stats. Counts do not depend on host speed, so this gate
# is exact: one more tag instruction, table acquire or pin per op fails
# it, however fast the host. Each run measures for one second.
for workload in copy-small copy-large; do
    cargo run --offline -q --release --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 |
        tail -n 1 >"$out/counts-$workload.json"
    gate counts "$workload" "$out/counts-$workload.json"
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
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc (warnings denied) =="
# Broken, ambiguous or private intra-doc links fail the stage, so an
# item deleted from the code cannot leave a dangling link in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --keep-going

echo "== examples =="
# Every example must run to a clean exit. Most assert what they show
# (quickstart's sum and caught write, telemetry_tour's timed acquires
# and releases equal to its VM's pins and unpins). runtime_doctor
# needs a trace and runs with the trace gate below.
for example in quickstart oob_detection image_pipeline multithreaded_sharing telemetry_tour; do
    cargo run --offline -q --example "$example" >/dev/null
done
echo "examples: all five ran clean"

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
gate throughput "$out/BENCH_throughput.json"

echo "== bench smoke: tag-table thread-scaling gate =="
# The lock-free redesign's regression gate (DESIGN.md §13): quick
# scaling run at 1/4/16 threads with the full-mode op budget (the
# default quick budget is too small to amortize thread spawn/join on a
# loaded host), compared against the committed baseline; the gate's
# `scaling` function lists the checks. Like the throughput stage this
# runs release and ahead of the long stress gates (thermal drift).
cargo run --offline -q --release -p bench --bin scaling -- \
    --quick --pairs 20000 --json "$out" >/dev/null
gate scaling "$out/BENCH_scaling.json"

echo "== bench smoke: fig6 end-to-end contention gate =="
# The default-backend switch's regression gate (DESIGN.md §15): a
# reduced fig6 run at 16 contended threads through the full JNI funnel,
# written to the temp dir like the other bench smoke reports. The
# acceptance target is lock-free <= two-tier on contended multicore
# hardware; the gate enforces it only with two or more CPUs available.
# Release profile, ahead of the long stress gates (thermal drift), like
# the other perf smokes.
cargo run --offline -q --release -p bench --bin fig6 -- \
    --threads 16 --reads 2000 --json "$out" >/dev/null
gate fig6 "$out/BENCH_fig6.json"

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
# reaching the gate already implies soundness. The noisy-neighbor p99
# ratios are min-of-repeats on both sides of the same arrival seed.
cargo run --offline -q --release -p bench --bin serving -- \
    --quick --json "$out" >/dev/null
gate serving "$out/BENCH_serving.json"

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
gate containment "$out/contain1/STRESS.json"
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
gate serving-isolation "$out/serving1/STRESS.json"
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
gate compaction "$out/BENCH_compaction.json"

echo "== bench JSON sanity =="
# A fast fig5 run must emit a parseable, schema-versioned report whose
# summary carries the headline ratios (README "Regenerating" section),
# including the quarantined guarded-copy-fallback column.
cargo run --offline -q -p bench --bin fig5 -- \
    --repeats 1 --max-pow 4 --json "$out" >/dev/null
gate fig5 "$out/BENCH_fig5.json"

echo "== effectiveness + ablations: detection verdict gate =="
# The §5.2 effectiveness matrix and the tag-conflict ablation, release
# profile (a few seconds together; the seeded run is deterministic). The
# gate matches every row to the paper's (scenario, scheme) -> detected
# verdict and bounds the tag-conflict misses.
cargo run --offline -q --release -p bench --bin effectiveness -- \
    --json "$out" >/dev/null
cargo run --offline -q --release -p bench --bin ablations -- \
    --trials 600 --rz-iters 200 --table-iters 10000 --json "$out" >/dev/null
gate effectiveness "$out/BENCH_effectiveness.json" "$out/BENCH_ablations.json"

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
