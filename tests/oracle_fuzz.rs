//! Differential fuzzing: random JNI programs executed against a plain
//! Rust oracle and against the full simulated stack under every scheme.
//! Any divergence in final heap contents is a bug in the substrate or in
//! a protection scheme's copy/tag handling.

use mte4jni_repro::prelude::*;

/// Deterministic xorshift for program generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One step of a random (but always-correct) JNI program.
#[derive(Debug, Clone)]
enum Step {
    /// Allocate array `slot` with the given initial values.
    Alloc(usize, Vec<i32>),
    /// Native write: `arrays[slot][idx] = value` via critical get/release.
    NativeWrite(usize, usize, i32),
    /// Native bulk negate of `arrays[slot]` via elements get/release.
    NativeNegate(usize),
    /// Managed write via `Set*ArrayRegion`.
    RegionWrite(usize, usize, Vec<i32>),
    /// Copy `arrays[from]` into `arrays[to]` (truncating) natively.
    NativeCopy(usize, usize),
}

fn generate(seed: u64, steps: usize, slots: usize) -> Vec<Step> {
    let mut rng = Rng(seed | 1);
    let mut lens = vec![0usize; slots];
    let mut program = Vec::with_capacity(steps);
    // Ensure every slot starts allocated.
    for (slot, len_slot) in lens.iter_mut().enumerate() {
        let len = 1 + rng.below(40);
        *len_slot = len;
        let vals = (0..len).map(|_| rng.next() as i32).collect();
        program.push(Step::Alloc(slot, vals));
    }
    for _ in 0..steps {
        let slot = rng.below(slots);
        match rng.below(5) {
            0 => {
                let len = 1 + rng.below(40);
                lens[slot] = len;
                let vals = (0..len).map(|_| rng.next() as i32).collect();
                program.push(Step::Alloc(slot, vals));
            }
            1 => program.push(Step::NativeWrite(
                slot,
                rng.below(lens[slot]),
                rng.next() as i32,
            )),
            2 => program.push(Step::NativeNegate(slot)),
            3 => {
                let start = rng.below(lens[slot]);
                let n = 1 + rng.below(lens[slot] - start);
                let vals = (0..n).map(|_| rng.next() as i32).collect();
                program.push(Step::RegionWrite(slot, start, vals));
            }
            _ => {
                let from = rng.below(slots);
                program.push(Step::NativeCopy(from, slot));
            }
        }
    }
    program
}

/// The oracle: the same program over plain `Vec<i32>`s.
fn run_oracle(program: &[Step], slots: usize) -> Vec<Vec<i32>> {
    let mut arrays: Vec<Vec<i32>> = vec![Vec::new(); slots];
    for step in program {
        match step {
            Step::Alloc(slot, vals) => arrays[*slot] = vals.clone(),
            Step::NativeWrite(slot, idx, v) => arrays[*slot][*idx] = *v,
            Step::NativeNegate(slot) => {
                for v in &mut arrays[*slot] {
                    *v = v.wrapping_neg();
                }
            }
            Step::RegionWrite(slot, start, vals) => {
                arrays[*slot][*start..*start + vals.len()].copy_from_slice(vals);
            }
            Step::NativeCopy(from, to) => {
                let n = arrays[*from].len().min(arrays[*to].len());
                let src: Vec<i32> = arrays[*from][..n].to_vec();
                arrays[*to][..n].copy_from_slice(&src);
            }
        }
    }
    arrays
}

/// The system under test: the same program through the JNI layer.
fn run_simulated(scheme: Scheme, program: &[Step], slots: usize) -> Vec<Vec<i32>> {
    let vm = scheme.build_vm();
    let thread = vm.attach_thread("fuzz");
    let env = vm.env(&thread);
    let mut arrays: Vec<Option<ArrayRef>> = vec![None; slots];
    for step in program {
        match step {
            Step::Alloc(slot, vals) => {
                arrays[*slot] = Some(env.new_int_array_from(vals).expect("alloc"));
                // Old handle dropped: exercise the sweeper occasionally.
                if slot % 3 == 0 {
                    vm.heap().sweep();
                }
            }
            Step::NativeWrite(slot, idx, v) => {
                let a = arrays[*slot].as_ref().unwrap();
                env.call_native("fuzz_write", NativeKind::Normal, |env| {
                    let elems = env.get_primitive_array_critical(a)?;
                    let mem = env.native_mem();
                    elems.write_i32(&mem, *idx as isize, *v)?;
                    env.release_primitive_array_critical(a, elems, ReleaseMode::CopyBack)
                })
                .expect("in-bounds write");
            }
            Step::NativeNegate(slot) => {
                let a = arrays[*slot].as_ref().unwrap();
                env.call_native("fuzz_negate", NativeKind::FastNative, |env| {
                    let elems = env.get_int_array_elements(a)?;
                    let mem = env.native_mem();
                    for i in 0..elems.len() as isize {
                        let v = elems.read_i32(&mem, i)?;
                        elems.write_i32(&mem, i, v.wrapping_neg())?;
                    }
                    env.release_int_array_elements(a, elems, ReleaseMode::CopyBack)
                })
                .expect("in-bounds negate");
            }
            Step::RegionWrite(slot, start, vals) => {
                let a = arrays[*slot].as_ref().unwrap();
                env.set_int_array_region(a, *start, vals).expect("region");
            }
            Step::NativeCopy(from, to) => {
                let src = arrays[*from].as_ref().unwrap().clone();
                let dst = arrays[*to].as_ref().unwrap().clone();
                env.call_native("fuzz_copy", NativeKind::Normal, |env| {
                    let s = env.get_primitive_array_critical(&src)?;
                    let d = env.get_primitive_array_critical(&dst)?;
                    let mem = env.native_mem();
                    let n = s.len().min(d.len()) as isize;
                    // Copy via a temp to match the oracle when src == dst.
                    let mut tmp = Vec::with_capacity(n as usize);
                    for i in 0..n {
                        tmp.push(s.read_i32(&mem, i)?);
                    }
                    for (i, v) in tmp.into_iter().enumerate() {
                        d.write_i32(&mem, i as isize, v)?;
                    }
                    env.release_primitive_array_critical(&dst, d, ReleaseMode::CopyBack)?;
                    env.release_primitive_array_critical(&src, s, ReleaseMode::Abort)?;
                    Ok(())
                })
                .expect("in-bounds copy");
            }
        }
    }
    let t2 = vm.attach_thread("readback");
    arrays
        .into_iter()
        .map(|a| vm.heap().int_array_as_vec(&t2, &a.unwrap()).expect("readback"))
        .collect()
}

#[test]
fn random_programs_match_the_oracle_under_every_scheme() {
    for seed in [3u64, 17, 99, 2025, 0xDEADBEEF] {
        let program = generate(seed, 60, 4);
        let expected = run_oracle(&program, 4);
        for scheme in Scheme::ALL {
            let got = run_simulated(scheme, &program, 4);
            assert_eq!(got, expected, "seed {seed} diverged under {scheme}");
        }
    }
}

#[test]
fn long_program_with_heavy_reallocation() {
    let program = generate(0xFEED, 300, 6);
    let expected = run_oracle(&program, 6);
    for scheme in [Scheme::GuardedCopy, Scheme::Mte4JniSync] {
        let got = run_simulated(scheme, &program, 6);
        assert_eq!(got, expected, "diverged under {scheme}");
    }
}
