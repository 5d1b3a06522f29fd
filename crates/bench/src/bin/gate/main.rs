//! ci.sh's regression gates: `gate <stage> <report>...` checks what one
//! CI stage wrote, prints the stage's summary and exits 0, or names the
//! failed check and exits 1. A missing or malformed report fails its
//! stage. [`USAGE`] lists the stages.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use telemetry::json::{parse, JsonValue};

#[cfg(test)]
mod tests;

/// A stage's verdict: `Err` names the check that failed.
type Verdict = Result<(), String>;

/// Fails the stage with a formatted message unless `$ok` holds; a NaN
/// comparison does not hold.
macro_rules! ensure {
    ($ok:expr, $($msg:tt)+) => {
        let ok: bool = $ok;
        if !ok {
            return Err(format!($($msg)+));
        }
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let Err(e) = run(&args.iter().map(String::as_str).collect::<Vec<_>>(), cpus) else {
        return ExitCode::SUCCESS;
    };
    eprintln!("gate {}: {e}", args.join(" "));
    ExitCode::FAILURE
}

const USAGE: &str = "usage: gate counts <copy-small|copy-large> <trace line> | gate \
    <throughput|scaling|fig6|serving|containment|serving-isolation|compaction|fig5> <report> | \
    gate effectiveness <effectiveness report> <ablations report> | gate inlined <nm -C listing>";

fn run(args: &[&str], cpus: usize) -> Verdict {
    match *args {
        ["counts", workload, line] => counts(workload, &read(line)?),
        ["throughput", report] => throughput(&read(report)?, &baseline("throughput")?),
        ["scaling", report] => scaling(&read(report)?, &baseline("scaling")?, cpus),
        ["fig6", report] => fig6(&read(report)?, cpus),
        ["serving", report] => serving(&read(report)?, &baseline("serving")?),
        ["containment", report] => stress(&read(report)?, "containment", None),
        ["serving-isolation", report] => {
            stress(&read(report)?, "serving isolation", Some("guarded"))
        }
        ["compaction", report] => compaction(&read(report)?),
        ["fig5", report] => fig5(&read(report)?),
        ["effectiveness", eff, abl] => effectiveness(&read(eff)?, &read(abl)?),
        ["inlined", listing] => inlined(&read_text(listing)?),
        _ => Err(USAGE.into()),
    }
}

fn read_text(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn read(path: &str) -> Result<JsonValue, String> {
    parse(&read_text(path)?).map_err(|e| format!("{path}: {e}"))
}

/// The committed report the stage's figures may not regress against.
fn baseline(stage: &str) -> Result<JsonValue, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines");
    read(&format!("{dir}/BENCH_{stage}.baseline.json"))
}

/// `v` at the dotted path `at`, cast by `f`, or an error naming the path.
fn get<'a, T>(v: &'a JsonValue, at: &str, f: fn(&'a JsonValue) -> Option<T>) -> Result<T, String> {
    let value = at.split('.').try_fold(v, |v, key| v.get(key)).and_then(f);
    value.ok_or(format!("{at} missing or mistyped"))
}

fn num(doc: &JsonValue, path: &str) -> Result<f64, String> {
    get(doc, path, JsonValue::as_f64)
}

fn int(doc: &JsonValue, path: &str) -> Result<u64, String> {
    get(doc, path, JsonValue::as_u64)
}

fn text<'a>(doc: &'a JsonValue, path: &str) -> Result<&'a str, String> {
    get(doc, path, JsonValue::as_str)
}

fn list<'a>(doc: &'a JsonValue, path: &str) -> Result<&'a [JsonValue], String> {
    get(doc, path, JsonValue::as_array)
}

/// `doc`'s `rows` by the key that `key` reads from each.
fn rows<'a, K: Ord>(
    doc: &'a JsonValue,
    key: impl Fn(&'a JsonValue) -> Result<K, String>,
) -> Result<BTreeMap<K, &'a JsonValue>, String> {
    list(doc, "rows")?
        .iter()
        .map(|r| Ok((key(r)?, r)))
        .collect()
}

/// A traced perfbench run does exactly the per-op work the design fixes;
/// counts do not depend on host speed, so the gate is exact. `workload`
/// fixes the copied arrays' granule count.
fn counts(workload: &str, doc: &JsonValue) -> Verdict {
    let granules = match workload {
        "copy-small" => 4.0,
        "copy-large" => 4096.0,
        _ => return Err(format!("no per-op counts for {workload}")),
    };
    ensure!(get(doc, "correct", JsonValue::as_bool)?, "run not correct");
    ensure!(num(doc, "failed")? == 0.0, "failed ops");
    let metrics = get(doc, "metrics", Some)?;
    let mut got = Vec::new();
    for (key, want) in [
        ("mte-sim.irg_per_op", 2.0),
        ("mte-sim.ldg_per_op", 0.0),
        ("mte-sim.stg_granules_per_op", granules),
        ("mte4jni.acquires_per_op", 2.0),
        ("mte4jni.tag_frees_per_op", 2.0),
        ("heap.pins_per_op", 2.0),
        ("mte4jni.cas_retries_per_op", 0.0),
    ] {
        let v = metrics.get(key).and_then(|m| m.get("value")?.as_f64());
        ensure!(v == Some(want), "{key} is {v:?}, want {want}");
        got.push(format!("{key}={want}"));
    }
    println!("count gate {workload}: {}", got.join(", "));
    Ok(())
}

/// The one-word checked access path (DESIGN.md §10), from the
/// `NativeArray` element accessors down to the data word: each owner's
/// functions on it, where a trailing `*` stands for an element width.
const ONE_WORD_PATH: [(&str, &[&str]); 4] = [
    ("jni_rt::native::NativeArray", &["read_*", "write_*"]),
    ("jni_rt::native::NativeMem", &["read_*", "write_*"]),
    (
        "mte_sim::memory::TaggedMemory",
        &[
            "load_*",
            "store_*",
            "load_le",
            "store_le",
            "scalar_offset",
            "check_word_access",
            "page_is_mte",
            "store_lanes",
        ],
    ),
    ("mte_sim::inject", &["should_fail"]),
];

/// Element widths of the scalar accessors.
const WIDTHS: [&str; 10] = [
    "u8", "i8", "u16", "i16", "u32", "i32", "u64", "i64", "f32", "f64",
];

fn on_one_word_path(symbol: &str) -> bool {
    let Some((owner, name)) = symbol.rsplit_once("::") else {
        return false;
    };
    let matches = |pattern: &&str| match pattern.strip_suffix('*') {
        Some(op) => name.strip_prefix(op).is_some_and(|w| WIDTHS.contains(&w)),
        None => *pattern == name,
    };
    ONE_WORD_PATH
        .iter()
        .any(|(on, names)| *on == owner && names.iter().any(matches))
}

/// The cold handlers the one-word path calls; they stay out of line.
const COLD: [&str; 5] = [
    "mte_sim::memory::TaggedMemory::tag_mismatch",
    "mte_sim::memory::TaggedMemory::spurious_fault",
    "mte_sim::memory::out_of_range",
    "mte_sim::inject::should_fail_armed",
    "telemetry::trace::emit_slow",
];

/// An `nm -C` listing of the perfbench release binary holds no
/// out-of-line copy of a function on the one-word checked access path,
/// so a native element loop makes no call per access, and holds every
/// cold handler that path calls. Symbol names do not depend on host
/// speed, so the gate is exact.
fn inlined(listing: &str) -> Verdict {
    // `<address> <type> <name>`; a name may hold spaces.
    let symbols: Vec<&str> = listing
        .lines()
        .filter_map(|line| line.splitn(3, ' ').nth(2))
        .collect();
    let outlined: BTreeSet<&str> = symbols
        .iter()
        .copied()
        .filter(|s| on_one_word_path(s))
        .collect();
    let copies = symbols.iter().filter(|s| outlined.contains(*s)).count();
    ensure!(
        outlined.is_empty(),
        "{copies} out-of-line copies of {outlined:?}"
    );
    for cold in COLD {
        ensure!(symbols.contains(&cold), "no out-of-line {cold}");
    }
    let n = symbols.len();
    println!("inlining gate: one-word access path fully inlined; {} cold handlers outlined ({n} symbols)", COLD.len());
    Ok(())
}

fn throughput(doc: &JsonValue, base: &JsonValue) -> Verdict {
    let summary = |d, key: &str| num(d, &format!("summary.{key}"));
    // Checked-path throughput within 20% of the committed baseline.
    let mut line = Vec::new();
    for (key, _) in get(base, "summary", JsonValue::as_object)? {
        if key.starts_with("checked_") && key.ends_with("_gbps_4k") {
            let cur = summary(doc, key)?;
            ensure!(cur >= 0.8 * summary(base, key)?, "{key} {cur:.3} GB/s");
            line.push(format!("{key}={cur:.2}"));
        }
    }
    ensure!(!line.is_empty(), "baseline has no checked_*_gbps_4k");
    line.sort();
    // The acceptance floor: >=4x over the scalar reference.
    for key in ["read_4k", "write_4k", "set_tag_range"] {
        let v = summary(doc, &format!("speedup_{key}"))?;
        ensure!(v >= 4.0, "speedup_{key} below 4x: {v:.2}");
    }
    // The one-word scalar path (DESIGN.md §10) against the scalar
    // reference, round by round: 34 quick runs on a 2-vCPU host read
    // 1.04x-1.55x, the span-check path it replaced 0.46x-0.48x. The
    // floor is 75% of the minimum, rounded down to 0.05.
    let elem = summary(doc, "speedup_element_rw")?;
    ensure!(elem >= 0.75, "speedup_element_rw {elem:.3}");
    let line = line.join(", ");
    println!("throughput gate: {line} speedup_element_rw={elem:.3}");
    // Report-only: pin + unpin on one small array, and the checked u32
    // pair through `TaggedMemory` and through the JNI accessors.
    let mut line = Vec::new();
    for key in ["pin_unpin_ns", "element_rw_ns", "native_element_rw_ns"] {
        line.push(format!("{key}={:.1}", summary(doc, key)?));
    }
    println!("throughput report: {}", line.join(" "));
    Ok(())
}

/// The lock-free tag table's scaling gate (DESIGN.md §13).
fn scaling(doc: &JsonValue, base: &JsonValue, cpus: usize) -> Verdict {
    let key = |r| Ok((text(r, "mode")?, int(r, "threads")?));
    let (cur, reference) = (rows(doc, key)?, rows(base, key)?);
    for threads in [1, 4, 16] {
        let key = ("contended", threads);
        let (Some(got), Some(reference)) = (cur.get(&key), reference.get(&key)) else {
            return Err(format!("no {key:?} row"));
        };
        let floor = 0.8 * num(reference, "lock_free")?;
        ensure!(num(got, "lock_free")? >= floor, "{key:?} lock_free");
    }
    for (key, r) in cur {
        let lock_free = num(r, "lock_free")?;
        ensure!(lock_free >= num(r, "two_tier_k16")?, "{key:?} two_tier_k16");
    }
    // Every lock-free acquire and release is one CAS on the shared entry
    // word, so the ratio swings with how the host schedules the two-tier
    // mutexes (1.67x-5.18x over ten quick runs on a 2-vCPU host). The
    // floor is 75% of the minimum, rounded down to 0.05.
    let speedup = num(doc, "summary.contended_16_speedup")?;
    ensure!(speedup >= 1.25, "contended_16_speedup {speedup:.2}");
    let floor = format!("floor 1.25x, nproc={cpus}");
    println!("scaling gate: contended-16 lock_free {speedup:.1}x over two_tier ({floor})");
    Ok(())
}

/// Lock-free <= two-tier end to end on fig6's contended rows (DESIGN.md
/// §15). One CPU serializes the contention the two-tier mutexes lose to,
/// and run-to-run noise is ~+/-8%, so the ratio is enforced only with two
/// or more CPUs, at a 15% ceiling.
fn fig6(doc: &JsonValue, cpus: usize) -> Verdict {
    ensure!(text(doc, "bench")? == "fig6", "bench");
    ensure!(int(doc, "params.threads")? == 16, "params.threads");
    let rows = rows(doc, |r| Ok((text(r, "sharing")?, text(r, "scheme")?)))?;
    for mode in ["same_array", "different_arrays"] {
        for tcf in ["sync", "async"] {
            let time = |table| {
                let scheme = format!("{table} {tcf}");
                let row = rows.get(&(mode, scheme.as_str())).ok_or(&scheme)?;
                num(row, "time_ns")
            };
            let (lf, tt) = (time("lock-free")?, time("two-tier")?);
            let (lf_ms, tt_ms, ratio) = (lf / 1e6, tt / 1e6, lf / tt);
            let ok = mode != "same_array" || cpus < 2 || lf <= 1.15 * tt;
            ensure!(ok, "{mode} lock-free {tcf} time_ns {ratio:.2}x two-tier");
            println!("fig6 gate: {mode} {tcf}: lock-free {lf_ms:.1}ms, two-tier {tt_ms:.1}ms ({ratio:.2}x)");
        }
    }
    if cpus < 2 {
        println!("fig6 gate: single-core host (nproc={cpus}) serializes the contention; ratios reported, not enforced");
    }
    // 16 threads bump their own tally rows while sharing the histograms.
    reconcile_counts(doc)
}

/// The serving layer's gate (DESIGN.md §16): the fleet peak (stable
/// within ~10% where per-row req/s swings ~25%) within 20% of the
/// baseline, and the noisy-neighbor p99 ratios within the 1.5x bound.
fn serving(doc: &JsonValue, base: &JsonValue) -> Verdict {
    ensure!(text(doc, "bench")? == "serving", "bench");
    let noisy = |r| get(r, "noisy", JsonValue::as_bool);
    let key = |r| Ok((text(r, "scheme")?, int(r, "tenants")?, noisy(r)?));
    let rows = rows(doc, key)?;
    ensure!(rows.keys().eq(self::rows(base, key)?.keys()), "row set");
    let peak = num(doc, "summary.peak_req_s")?;
    ensure!(peak >= 0.8 * num(base, "summary.peak_req_s")?, "peak_req_s");
    for scheme in ["lock-free", "two-tier", "global"] {
        let row = rows.get(&(scheme, 4, true)).ok_or("noisy row")?;
        let health = text(row, "t0_health")?;
        ensure!(health == "quarantined", "{scheme} t0_health {health}");
        let faults = num(row, "contained_faults_t0")?;
        ensure!(faults > 0.0, "{scheme} contained_faults_t0");
    }
    let mut ratios = Vec::new();
    for (key, ratio) in get(doc, "summary", JsonValue::as_object)? {
        if let Some(scheme) = key.strip_prefix("noisy_p99_ratio_") {
            let ratio = ratio.as_f64().ok_or(key)?;
            ensure!(ratio <= 1.5, "{key} {ratio:.2}");
            ratios.push(format!("{scheme}={ratio:.2}x"));
        }
    }
    ensure!(!ratios.is_empty(), "summary has no noisy_p99_ratio_*");
    ratios.sort();
    // Request histograms carry the tenant as a typed label, never folded
    // into the scheme string.
    let mut requests = 0;
    for h in list(doc, "telemetry.histograms")? {
        ensure!(!text(h, "scheme")?.contains('/'), "scheme label");
        if text(h, "op")? == "request" {
            requests += int(h, "tenant").map(|_| 1)?;
        }
    }
    ensure!(requests > 0, "telemetry has no request histograms");
    println!("serving gate: peak {peak:.0} req/s, {}", ratios.join(", "));
    Ok(())
}

/// A fixed-seed stress report: faults injected at every point, every
/// scheme's oracle clean, and every scheme but `detector` (which detects
/// at release instead) contained faults and quarantined a method onto
/// its fallback.
fn stress(doc: &JsonValue, gate: &str, detector: Option<&str>) -> Verdict {
    for (point, ppm) in get(doc, "params.fault_plan", JsonValue::as_object)? {
        ensure!(ppm.as_f64() >= Some(2000.0), "fault_plan.{point}");
    }
    let mut line = Vec::new();
    for s in list(doc, "schemes")? {
        let scheme = text(s, "scheme")?;
        ensure!(get(s, "clean", JsonValue::as_bool)?, "{scheme} not clean");
        ensure!(list(s, "violations")?.is_empty(), "{scheme} violations");
        let faults = int(s, "contained_faults")?;
        let quarantined = int(s, "degraded_quarantine")?;
        let exhausted = int(s, "degraded_tag_exhaustion")?;
        let contains = Some(scheme) != detector;
        ensure!(!contains || faults > 0, "{scheme} contained_faults");
        ensure!(!contains || quarantined > 0, "{scheme} degraded_quarantine");
        let counts = format!("quarantined={quarantined} exhausted={exhausted}");
        line.push(format!("{scheme} contained={faults} {counts}"));
    }
    println!("{gate} gate: {}", line.join(", "));
    Ok(())
}

fn compaction(doc: &JsonValue) -> Verdict {
    ensure!(text(doc, "bench")? == "compaction", "bench");
    let s = |key| num(doc, &format!("summary.{key}"));
    let (skipped, moved) = (s("pinned_skipped_total")?, s("moved_objects_total")?);
    let rounds = num(doc, "params.rounds")?;
    ensure!(skipped >= rounds, "pinned_skipped_total {skipped}");
    ensure!(moved > 0.0, "moved_objects_total");
    let compact = s("final_largest_alloc_compact")?;
    let sweep = s("final_largest_alloc_sweep")?;
    ensure!(compact >= sweep, "final_largest_alloc_compact {compact}");
    let telemetry = get(doc, "telemetry", Some)?.to_pretty_string();
    ensure!(telemetry.contains("gc_pause"), "telemetry lacks gc_pause");
    let recovery = s("largest_alloc_recovery")?;
    println!("compaction gate: recovery {recovery:.2}x, {moved} moved, {skipped} pinned skips");
    Ok(())
}

/// A fast fig5 run's report carries the headline ratios and the
/// quarantined guarded-copy fallback column, and its counts reconcile.
fn fig5(doc: &JsonValue) -> Verdict {
    ensure!(text(doc, "bench")? == "fig5", "bench");
    let rows = list(doc, "rows")?;
    ensure!(!rows.is_empty(), "rows must be non-empty");
    get(doc, "summary.avg_mte_sync_ratio", Some)?;
    get(doc, "summary.avg_degraded_guarded_ratio", Some)?;
    let fallback = num(doc, "summary.degraded_fallback_ratio")?;
    ensure!(fallback > 0.0, "degraded_fallback_ratio {fallback}");
    for row in rows {
        get(row, "degraded_guarded_ratio", Some)?;
    }
    let n = rows.len();
    println!("BENCH_fig5.json sane: {n} rows (with degraded column)");
    reconcile_counts(doc)
}

/// Exact reconciliation of a report's independently kept counts: the
/// VMs' own counters, summed over every VM the report measured, against
/// the samples its latency histograms timed. Every acquire pins its
/// object once and every release unpins it once, whichever scheme served
/// the borrow; each scheme that counts its own acquires and releases
/// counts exactly its timed ones.
fn reconcile_counts(doc: &JsonValue) -> Verdict {
    ensure!(int(doc, "schema_version")? == 4, "schema_version");
    // (counter or op, scheme) -> count; `total` sums over the schemes.
    let (mut counted, mut timed) = (BTreeMap::new(), BTreeMap::new());
    let total = |map: &BTreeMap<(&str, &str), u64>, name| -> u64 {
        map.iter().filter(|e| e.0 .0 == name).map(|e| e.1).sum()
    };
    for (key, value) in get(doc, "telemetry.counters", JsonValue::as_object)? {
        let split = key.strip_prefix("scheme.").and_then(|k| k.split_once('.'));
        let Some((scheme, counter)) = split.filter(|(s, c)| !s.is_empty() && !c.is_empty()) else {
            return Err(format!("counter outside a scheme prefix: {key}"));
        };
        counted.insert((counter, scheme), value.as_u64().ok_or(key)?);
    }
    for h in list(doc, "telemetry.histograms")? {
        let key = (text(h, "op")?, text(h, "scheme")?);
        *timed.entry(key).or_default() += int(h, "count")?;
    }
    let (acquires, releases) = (total(&timed, "acquire"), total(&timed, "release"));
    ensure!(acquires > 0, "no timed acquires");
    let pins = total(&counted, "heap.pins_total");
    ensure!(pins == acquires, "heap.pins_total {pins} != {acquires}");
    let unpins = total(&counted, "heap.unpins_total");
    ensure!(unpins == releases, "heap.unpins_total {unpins}");
    let mut schemes = Vec::new();
    for (&(counter, scheme), &n) in &counted {
        if counter == "acquires" {
            let samples = |op| timed.get(&(op, scheme)).copied().unwrap_or(0);
            let got = (n, counted.get(&("releases", scheme)).copied());
            let want = (samples("acquire"), Some(samples("release")));
            ensure!(got == want, "{scheme} acquires, releases {got:?}");
            schemes.push(scheme);
        }
    }
    let (bench, schemes) = (text(doc, "bench")?, schemes.join(", "));
    println!("{bench} counts reconcile exactly: {pins} pins == timed acquires, {unpins} unpins == timed releases; per-scheme acquires/releases for {schemes}");
    Ok(())
}

/// The paper's §5.2 (scenario, scheme, detected) verdicts, including the
/// stale-tag pair from the `release_tags = false` ablation.
const VERDICTS: [(&str, &str, bool); 14] = [
    ("oob_write", "No_Protection", false),
    ("oob_write", "Guarded_Copy", true),
    ("oob_write", "MTE4JNI+Sync", true),
    ("oob_write", "MTE4JNI+Async", true),
    ("oob_read", "No_Protection", false),
    ("oob_read", "Guarded_Copy", false),
    ("oob_read", "MTE4JNI+Sync", true),
    ("oob_read", "MTE4JNI+Async", true),
    ("red_zone_skip", "Guarded_Copy (red zone 64 B)", false),
    ("red_zone_skip", "MTE4JNI+Sync", true),
    (
        "alignment_hazard",
        "stock 8-byte alignment + PROT_MTE",
        false,
    ),
    ("alignment_hazard", "MTE4JNI 16-byte alignment", true),
    ("stale_tags", "tags released at refcount 0", false),
    ("stale_tags", "tags never released", true),
];

/// Every effectiveness row matches [`VERDICTS`]; the one tag-conflict
/// ablation row never misses an out-of-bounds read into released
/// (zeroed) memory, and misses one into a live, independently tagged
/// neighbour sometimes but well under 1 in 5 (the expected rate is 1/15).
fn effectiveness(eff: &JsonValue, abl: &JsonValue) -> Verdict {
    let n = list(eff, "rows")?.len();
    ensure!(n == VERDICTS.len(), "{n} effectiveness rows");
    let detected = |r| get(r, "detected", JsonValue::as_bool);
    let key = |r| Ok((text(r, "scenario")?, text(r, "scheme")?, detected(r)?));
    let got: BTreeSet<_> = rows(eff, key)?.into_keys().collect();
    let expected = BTreeSet::from(VERDICTS);
    let wrong: Vec<_> = got.symmetric_difference(&expected).collect();
    ensure!(wrong.is_empty(), "detected differs from §5.2: {wrong:?}");
    let tag_conflict = Some(&JsonValue::from("tag_conflict"));
    let rows = list(abl, "rows")?
        .iter()
        .filter(|r| r.get("section") == tag_conflict);
    let [row] = rows.collect::<Vec<_>>()[..] else {
        return Err("tag_conflict rows: want exactly one".into());
    };
    let (live, trials) = (num(row, "missed_live")?, num(row, "trials")?);
    let released = num(row, "missed_released")?;
    ensure!(released == 0.0, "missed_released {released}");
    ensure!(0.0 < live && live < trials / 5.0, "missed_live {live}");
    println!("effectiveness gate: {n} verdicts match §5.2; tag conflict missed {live}/{trials} live, {released} released");
    Ok(())
}
