//! GeekBench-style CPU kernels over the simulated JNI layer, plus the VM
//! factory that assembles every protection scheme compared in the paper.
//!
//! The paper's common-task evaluation (§5.4, Figures 7 and 8) runs the
//! GeekBench 6.3.0 CPU suite under four schemes. GeekBench itself is
//! closed source, so this crate reimplements one kernel per sub-item with
//! the same *JNI access pattern class*:
//!
//! * **one-shot bulk transfer** kernels acquire an array, stream over it
//!   roughly once, and release (e.g. [`kernels::file_compression`]) — the
//!   class where MTE4JNI wins big, since guarded copy pays two full
//!   copies;
//! * **intensive in-place** kernels make many passes over a large array
//!   inside one acquire/release pair (e.g. [`kernels::pdf_renderer`],
//!   [`kernels::clang`], [`kernels::text_processing`]) — the class the
//!   paper singles out as *worse* under MTE+Sync than under guarded copy,
//!   because every access pays the check while the copy is paid once.
//!
//! Every kernel is deterministic in its seed and returns a checksum, so
//! the harness can assert that all four schemes compute identical results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
mod runner;
mod scheme;
mod synth;

pub use runner::{run_single_core, thread_seed};
pub use scheme::{Backend, Scheme, VmSchemes};
pub use synth::{gen_bytes, gen_c_source, gen_graph, gen_image, gen_text, Graph};

use jni_rt::JniEnv;

/// A registered workload kernel.
#[derive(Clone, Copy)]
pub struct WorkloadSpec {
    /// GeekBench 6 sub-item name this kernel stands in for.
    pub name: &'static str,
    /// Kernel entry point: given an environment, a seed and a scale,
    /// performs all Java-side setup and native work, returning a
    /// deterministic checksum.
    pub run: fn(&JniEnv<'_>, u64, u32) -> jni_rt::Result<u64>,
    /// Whether the kernel belongs to the intensive in-place class (the
    /// paper's Clang / Text Processing / PDF Renderer exception group).
    pub intensive: bool,
}

impl std::fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadSpec")
            .field("name", &self.name)
            .field("intensive", &self.intensive)
            .finish()
    }
}

/// All sixteen sub-item kernels, in the order of Figures 7 and 8.
pub fn all_workloads() -> &'static [WorkloadSpec] {
    const ALL: &[WorkloadSpec] = &[
        WorkloadSpec { name: "File Compression", run: kernels::file_compression, intensive: false },
        WorkloadSpec { name: "Navigation", run: kernels::navigation, intensive: false },
        WorkloadSpec { name: "HTML5 Browser", run: kernels::html5_browser, intensive: false },
        WorkloadSpec { name: "PDF Renderer", run: kernels::pdf_renderer, intensive: true },
        WorkloadSpec { name: "Photo Library", run: kernels::photo_library, intensive: false },
        WorkloadSpec { name: "Clang", run: kernels::clang, intensive: true },
        WorkloadSpec { name: "Text Processing", run: kernels::text_processing, intensive: true },
        WorkloadSpec { name: "Asset Compression", run: kernels::asset_compression, intensive: false },
        WorkloadSpec { name: "Object Detection", run: kernels::object_detection, intensive: false },
        WorkloadSpec { name: "Background Blur", run: kernels::background_blur, intensive: false },
        WorkloadSpec { name: "Horizon Detection", run: kernels::horizon_detection, intensive: false },
        WorkloadSpec { name: "Object Remover", run: kernels::object_remover, intensive: true },
        WorkloadSpec { name: "HDR", run: kernels::hdr, intensive: false },
        WorkloadSpec { name: "Photo Filter", run: kernels::photo_filter, intensive: false },
        WorkloadSpec { name: "Ray Tracer", run: kernels::ray_tracer, intensive: false },
        WorkloadSpec { name: "Structure from Motion", run: kernels::structure_from_motion, intensive: false },
    ];
    ALL
}

/// Looks a workload up by (case-insensitive) name.
pub fn find_workload(name: &str) -> Option<&'static WorkloadSpec> {
    all_workloads()
        .iter()
        .find(|w| w.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_workloads_registered() {
        assert_eq!(all_workloads().len(), 16);
    }

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for w in all_workloads() {
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
    }

    #[test]
    fn paper_exception_group_is_marked_intensive() {
        for name in ["Clang", "Text Processing", "PDF Renderer"] {
            assert!(find_workload(name).unwrap().intensive, "{name}");
        }
        assert!(!find_workload("Ray Tracer").unwrap().intensive);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(find_workload("clang").is_some());
        assert!(find_workload("CLANG").is_some());
        assert!(find_workload("no such").is_none());
    }
}
