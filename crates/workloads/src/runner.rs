//! Timing runners used by the figure harness.

use std::time::{Duration, Instant};

use jni_rt::Vm;

use crate::WorkloadSpec;

/// Outcome of a timed single-core run.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// Checksum from the last iteration (for cross-scheme validation).
    pub checksum: u64,
    /// Mean wall-clock duration per iteration.
    pub duration: Duration,
}

/// Runs `spec` on one attached thread: one warm-up, then `iters` timed
/// iterations; reports the **minimum** iteration time (robust against
/// scheduler noise, which matters on shared or single-core hosts).
///
/// Each timed iteration uses the same seed, so the checksum is stable and
/// comparable across schemes. The heap is swept outside the timed region
/// so accumulated garbage from earlier runs does not skew allocation.
///
/// # Errors
///
/// Propagates the kernel's JNI errors (none are expected on correct
/// inputs under any scheme).
pub fn run_single_core(
    vm: &Vm,
    spec: &WorkloadSpec,
    seed: u64,
    scale: u32,
    iters: u32,
) -> jni_rt::Result<WorkloadResult> {
    let thread = vm.attach_thread(format!("bench-{}", spec.name));
    let env = vm.env(&thread);
    let checksum = (spec.run)(&env, seed, scale)?; // warm-up
    vm.heap().sweep();
    let mut duration = Duration::MAX;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        let sum = (spec.run)(&env, seed, scale)?;
        duration = duration.min(start.elapsed());
        debug_assert_eq!(sum, checksum);
        vm.heap().sweep();
    }
    Ok(WorkloadResult {
        name: spec.name,
        checksum,
        duration,
    })
}

/// Outcome of a timed multi-core run.
#[derive(Clone, Copy, Debug)]
pub struct MultiCoreResult {
    /// Workload name.
    pub name: &'static str,
    /// XOR of all per-thread checksums.
    pub checksum: u64,
    /// Wall-clock time from first spawn until the last thread finished.
    pub duration: Duration,
}

/// Runs `spec` concurrently on `threads` attached threads, each on its
/// own seed (and therefore its own arrays); reports the wall-clock time
/// for the whole batch.
///
/// # Errors
///
/// Propagates the first kernel error encountered on any thread.
pub fn run_multi_core(
    vm: &Vm,
    spec: &WorkloadSpec,
    threads: usize,
    seed: u64,
    scale: u32,
) -> jni_rt::Result<MultiCoreResult> {
    let start = Instant::now();
    let results: Vec<jni_rt::Result<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                s.spawn(move || {
                    let thread = vm.attach_thread(format!("mc-{}-{i}", spec.name));
                    let env = vm.env(&thread);
                    (spec.run)(&env, seed.wrapping_add((i as u64) << 24), scale)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("workload thread panicked"))
            .collect()
    });
    let duration = start.elapsed();
    let mut checksum = 0u64;
    for r in results {
        checksum ^= r?;
    }
    Ok(MultiCoreResult {
        name: spec.name,
        checksum,
        duration,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{all_workloads, Scheme};

    #[test]
    fn single_core_runner_reports_nonzero_time() {
        let vm = Scheme::NoProtection.build_vm();
        let spec = &all_workloads()[0];
        let r = run_single_core(&vm, spec, 1, 1, 2).unwrap();
        assert!(r.duration > Duration::ZERO);
        assert_eq!(r.name, "File Compression");
    }

    #[test]
    fn multi_core_runner_aggregates_threads() {
        let vm = Scheme::Mte4JniAsync.build_vm();
        let spec = crate::find_workload("Photo Filter").unwrap();
        let r = run_multi_core(&vm, spec, 4, 7, 1).unwrap();
        assert!(r.duration > Duration::ZERO);
        // Distinct seeds per thread: the XOR is stable for fixed inputs.
        let r2 = run_multi_core(&vm, spec, 4, 7, 1).unwrap();
        assert_eq!(r.checksum, r2.checksum);
    }
}
