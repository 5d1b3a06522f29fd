//! Workload runners: a kernel run to its checksum, the value every
//! protection scheme must agree on. Timing is the bench harness's job.

use jni_rt::Vm;

use crate::WorkloadSpec;

/// Runs `spec` once on a freshly attached thread and returns its
/// checksum, which depends only on `seed` and `scale`.
///
/// # Errors
///
/// Propagates the kernel's JNI errors (none are expected on correct
/// inputs under any scheme).
pub fn run_single_core(vm: &Vm, spec: &WorkloadSpec, seed: u64, scale: u32) -> jni_rt::Result<u64> {
    let thread = vm.attach_thread(format!("bench-{}", spec.name));
    let env = vm.env(&thread);
    (spec.run)(&env, seed, scale)
}

/// The seed of thread `i` in a multi-core run of `seed`: each thread
/// works on its own inputs (and therefore its own arrays).
pub fn thread_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64) << 24)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{all_workloads, Scheme};

    #[test]
    fn single_core_runner_repeats_its_checksum() {
        let vm = Scheme::NoProtection.build_vm();
        let spec = &all_workloads()[0];
        assert_eq!(spec.name, "File Compression");
        let first = run_single_core(&vm, spec, 1, 1).unwrap();
        assert_eq!(run_single_core(&vm, spec, 1, 1).unwrap(), first);
    }
}
