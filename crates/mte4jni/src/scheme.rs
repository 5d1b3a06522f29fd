//! The MTE4JNI [`Protection`] implementation and VM factory.

use std::fmt;
use std::sync::Arc;

use art_heap::{HeapConfig, ObjectRef, Safepoint};
use jni_rt::{AcquireOutcome, JniContext, Protection, ReleaseMode, Tally, Vm};
use mte_sim::{TaggedMemory, TaggedPtr, TcfMode};

use crate::table::{ReleaseOutcome, TableBackend, TableConfig, TagTable};

/// The MTE4JNI protection scheme.
///
/// `Get*` tags the object's payload and returns a tagged pointer;
/// `Release*` drops the reference and re-zeroes the tags at zero;
/// [`Protection::uses_thread_mte`] is `true`, so the JNI trampolines
/// enable per-thread checking around native sections.
pub struct Mte4Jni {
    config: TableConfig,
    table: Box<dyn TagTable>,
    /// The funnel counters, indexed by the constants below.
    counts: Tally<5>,
}

const ACQUIRES: usize = 0;
const SHARED_ACQUIRES: usize = 1;
const RELEASES: usize = 2;
const TAG_FREES: usize = 3;
const SAFEPOINT_FREES: usize = 4;

impl Mte4Jni {
    /// Creates the scheme with the default configuration (lock-free
    /// table, timely tag release).
    pub fn new() -> Mte4Jni {
        Mte4Jni::with_config(TableConfig::default())
    }

    /// Creates the scheme with an explicit configuration.
    pub fn with_config(config: TableConfig) -> Mte4Jni {
        Mte4Jni {
            config,
            table: config.build(),
            counts: Tally::new(),
        }
    }

    /// The configuration the table was built from.
    pub fn config(&self) -> TableConfig {
        self.config
    }

    /// The underlying tag table.
    pub fn table(&self) -> &dyn TagTable {
        &*self.table
    }

    /// Operation counters.
    pub fn stats(&self) -> Mte4JniStats {
        Mte4JniStats {
            acquires: self.counts.get(ACQUIRES),
            shared_acquires: self.counts.get(SHARED_ACQUIRES),
            releases: self.counts.get(RELEASES),
            tag_frees: self.counts.get(TAG_FREES),
            tracked_objects: self.table.tracked_objects(),
        }
    }

    /// The funnel conservation law (DESIGN §15): every fresh acquire is
    /// freed exactly once, by a release or a GC-safepoint purge, so
    /// `acquires - shared_acquires == tag_frees + safepoint purges`.
    /// Returns the broken law as a message; `None` when it holds. Only
    /// meaningful at quiescence, with no acquire or release in flight.
    pub fn funnel_violation(&self) -> Option<String> {
        let get = |i| self.counts.get(i);
        let (acquires, shared) = (get(ACQUIRES), get(SHARED_ACQUIRES));
        let (frees, purges) = (get(TAG_FREES), get(SAFEPOINT_FREES));
        (acquires - shared != frees + purges).then(|| {
            format!(
                "funnel conservation broken: {acquires} acquires - {shared} shared != \
                 {frees} tag frees + {purges} safepoint purges"
            )
        })
    }

    fn payload_range(cx: &JniContext<'_>, obj: &ObjectRef) -> (TaggedPtr, u64) {
        let begin = cx.heap.data_ptr(obj);
        let end = begin.addr() + obj.byte_len() as u64;
        (begin, end)
    }
}

impl Default for Mte4Jni {
    fn default() -> Self {
        Mte4Jni::new()
    }
}

impl fmt::Debug for Mte4Jni {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mte4Jni")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Protection for Mte4Jni {
    // The scheme name keys telemetry counter prefixes and fault
    // attribution, so it stays `"mte4jni"` across the production
    // backends (lock-free and the paper's two-tier reference — which
    // backend served a run is visible in the table's own counters);
    // only the deliberately naive global-lock ablation is called out.
    fn name(&self) -> &'static str {
        match self.config.backend {
            TableBackend::LockFree | TableBackend::TwoTier => "mte4jni",
            TableBackend::Global => "mte4jni+global-lock",
        }
    }

    fn on_acquire(&self, cx: &JniContext<'_>, obj: &ObjectRef) -> jni_rt::Result<AcquireOutcome> {
        let (begin, end) = Self::payload_range(cx, obj);
        let (tag, shared) = self
            .table
            .acquire(cx.heap.memory(), cx.thread.mte(), begin, end)?;
        self.counts.bump(ACQUIRES);
        if shared {
            self.counts.bump(SHARED_ACQUIRES);
        }
        Ok(AcquireOutcome {
            ptr: begin.with_tag(tag),
            is_copy: false, // native code operates directly on the object
        })
    }

    fn on_release(
        &self,
        cx: &JniContext<'_>,
        obj: &ObjectRef,
        _ptr: TaggedPtr,
        mode: ReleaseMode,
    ) -> jni_rt::Result<()> {
        if mode == ReleaseMode::Commit {
            // Data already lives in the object (no copy); JNI_COMMIT keeps
            // the borrow, so the tag stays.
            return Ok(());
        }
        // Algorithm 2, keyed by the object's start address.
        let (begin, end) = Self::payload_range(cx, obj);
        let outcome = self.table.release(cx.heap.memory(), begin, end)?;
        self.counts.bump(RELEASES);
        if outcome == ReleaseOutcome::Freed {
            self.counts.bump(TAG_FREES);
        }
        Ok(())
    }

    fn uses_thread_mte(&self) -> bool {
        true
    }

    fn on_safepoint(&self, mem: &TaggedMemory, sp: &Safepoint<'_>) {
        // Sweep and compaction alike: force-free any entry that survives
        // on an unpinned candidate — a borrow whose release was abandoned
        // after persistent tag-store faults — so the collector never
        // reclaims or re-tags an address the table still keys.
        let purged: u64 = sp
            .candidates
            .iter()
            .map(|&(begin, end)| self.table.purge(mem, begin, end))
            .sum();
        self.counts.add(SAFEPOINT_FREES, purged);
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let s = self.stats();
        let mut out = vec![
            ("acquires", s.acquires),
            ("shared_acquires", s.shared_acquires),
            ("releases", s.releases),
            ("tag_frees", s.tag_frees),
            ("tracked_objects", s.tracked_objects as u64),
            // Entries force-freed by a GC-safepoint purge. Closes the
            // funnel conservation law on every backend:
            //   acquires - shared_acquires == tag_frees + safepoint_purge_frees
            ("safepoint_purge_frees", self.counts.get(SAFEPOINT_FREES)),
        ];
        out.extend(self.table.counters());
        out
    }
}

/// Operation counters for [`Mte4Jni`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Mte4JniStats {
    /// `Get*` interpositions.
    pub acquires: u64,
    /// Acquires that shared an existing tag (reference count > 1).
    pub shared_acquires: u64,
    /// `Release*` interpositions.
    pub releases: u64,
    /// Releases that dropped the count to zero and freed the tags.
    pub tag_frees: u64,
    /// Objects currently tracked.
    pub tracked_objects: usize,
}

/// Assembles a complete MTE4JNI runtime: 16-byte-aligned `PROT_MTE` heap
/// (§4.1), the [`Mte4Jni`] scheme, and the process check mode (`Sync` or
/// `Async`, §2.1). A [`GuardedCopy`] fallback is installed so quarantined
/// methods and tag-exhausted acquires degrade to guarded copy instead of
/// failing (faults still abort unless
/// [`FaultPolicy::Contain`](jni_rt::FaultPolicy::Contain) is selected on
/// a custom-built VM).
///
/// [`GuardedCopy`]: guarded_copy::GuardedCopy
pub fn mte4jni_vm(mode: TcfMode, config: TableConfig) -> Vm {
    Vm::builder()
        .heap_config(HeapConfig::mte4jni())
        .check_mode(mode)
        .protection(Arc::new(Mte4Jni::with_config(config)))
        .fallback_protection(Arc::new(guarded_copy::GuardedCopy::new()))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jni_rt::NativeKind;
    use mte_sim::{FaultKind, Tag};

    fn sync_vm() -> Vm {
        mte4jni_vm(TcfMode::Sync, TableConfig::default())
    }

    #[test]
    fn in_bounds_native_access_works_under_sync_checking() {
        let vm = sync_vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array_from(&[1, 2, 3, 4]).unwrap();
        let sum = env
            .call_native("sum", NativeKind::Normal, |env| {
                let elems = env.get_primitive_array_critical(&a)?;
                assert!(!elems.is_copy(), "MTE4JNI operates on the original object");
                assert!(!elems.ptr().tag().is_untagged(), "pointer carries the tag");
                let mem = env.native_mem();
                let mut s = 0;
                for i in 0..4 {
                    s += elems.read_i32(&mem, i)?;
                }
                env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)?;
                Ok(s)
            })
            .unwrap();
        assert_eq!(sum, 10);
    }

    #[test]
    fn oob_write_faults_immediately_and_precisely_in_sync_mode() {
        // Figure 4b: the fault surfaces at the faulting instruction, with
        // the native method on top of the backtrace.
        let vm = sync_vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array(18).unwrap();
        let err = env
            .call_native("test_ofb", NativeKind::Normal, |env| -> jni_rt::Result<()> {
                let elems = env.get_primitive_array_critical(&a)?;
                let mem = env.native_mem();
                elems.write_i32(&mem, 21, 0xBAD)?;
                unreachable!("sync mode never reaches the release");
            })
            .unwrap_err();
        let fault = err.as_tag_check().expect("tag-check fault");
        assert_eq!(fault.kind, FaultKind::Sync);
        assert!(fault.is_precise());
        assert!(
            fault.backtrace.top().unwrap().label.starts_with("test_ofb"),
            "trace points at the faulting native method: {}",
            fault.backtrace
        );
    }

    #[test]
    fn oob_read_faults_too_unlike_guarded_copy() {
        let vm = sync_vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array(8).unwrap();
        let err = env
            .call_native("oob_read", NativeKind::Normal, |env| -> jni_rt::Result<()> {
                let elems = env.get_primitive_array_critical(&a)?;
                let mem = env.native_mem();
                let _ = elems.read_i32(&mem, 12)?;
                unreachable!();
            })
            .unwrap_err();
        assert!(err.as_tag_check().is_some(), "reads are detected");
    }

    #[test]
    fn async_mode_defers_fault_to_next_syscall() {
        // Figure 4c: the corrupting write goes through; the fault surfaces
        // at the next syscall (here: the logging call) with an imprecise
        // backtrace.
        let vm = mte4jni_vm(TcfMode::Async, TableConfig::default());
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array(18).unwrap();
        let err = env
            .call_native("test_ofb", NativeKind::Normal, |env| -> jni_rt::Result<()> {
                let elems = env.get_primitive_array_critical(&a)?;
                let mem = env.native_mem();
                elems.write_i32(&mem, 21, 0xBAD)?; // proceeds!
                env.log("finished the loop")?; // syscall → fault surfaces
                unreachable!();
            })
            .unwrap_err();
        let fault = err.as_tag_check().expect("tag-check fault");
        assert_eq!(fault.kind, FaultKind::Async);
        assert!(!fault.is_precise());
        assert_eq!(
            &*fault.backtrace.top().unwrap().label,
            "getuid+4",
            "trace points at the syscall, far from the fault: {}",
            fault.backtrace
        );
    }

    #[test]
    fn release_restores_untagged_access() {
        let vm = sync_vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array(8).unwrap();
        env.call_native("touch", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&a)?;
            env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
        })
        .unwrap();
        // The last release zeroes the tags at once (Algorithm 2): managed
        // access (untagged) is clean again, with no safepoint needed.
        assert_eq!(
            vm.heap().memory().raw_tag_at(a.data_addr()).unwrap(),
            Tag::UNTAGGED
        );
    }

    #[test]
    fn concurrent_gc_scanner_is_undisturbed_by_tagged_objects() {
        // §3.3: thread-level control means the GC's untagged scans of
        // tagged objects never fault.
        let vm = sync_vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array(256).unwrap();
        let gc = vm.start_gc(std::time::Duration::from_micros(100));
        env.call_native("hold", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&a)?;
            // Keep reading while the GC scans the tagged object underneath
            // us; spin on the live cycle counter rather than a fixed
            // iteration count so a loaded machine can't starve the scanner
            // out of the borrow window.
            let mem = env.native_mem();
            while gc.cycles() == 0 {
                let _ = elems.read_i32(&mem, 0)?;
            }
            env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
        })
        .unwrap();
        let report = gc.stop();
        assert!(report.cycles > 0);
        assert!(report.faults.is_empty(), "GC never faults under MTE4JNI");
    }

    #[test]
    fn two_threads_share_one_tag() {
        let vm = sync_vm();
        let a = {
            let t = vm.attach_thread("setup");
            let env = vm.env(&t);
            env.new_int_array_from(&[7; 64]).unwrap()
        };
        let scheme = vm.protection().clone();
        std::thread::scope(|s| {
            for i in 0..2 {
                let vm = &vm;
                let a = a.clone();
                s.spawn(move || {
                    let t = vm.attach_thread(format!("worker-{i}"));
                    let env = vm.env(&t);
                    for _ in 0..200 {
                        env.call_native("reader", NativeKind::Normal, |env| {
                            let elems = env.get_primitive_array_critical(&a)?;
                            let mem = env.native_mem();
                            let mut s = 0;
                            for j in 0..64 {
                                s += elems.read_i32(&mem, j)?;
                            }
                            assert_eq!(s, 7 * 64);
                            env.release_primitive_array_critical(
                                &a,
                                elems,
                                ReleaseMode::CopyBack,
                            )
                        })
                        .unwrap();
                    }
                });
            }
        });
        let _ = scheme;
        // All borrows ended: the last release zeroed the shared tag.
        assert_eq!(
            vm.heap().memory().raw_tag_at(a.data_addr()).unwrap(),
            Tag::UNTAGGED
        );
    }

    #[test]
    fn critical_native_methods_skip_tco_and_stay_unchecked() {
        let vm = sync_vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        env.call_native("fast_math", NativeKind::CriticalNative, |env| {
            assert!(
                !env.thread().mte().checks_enabled(),
                "@CriticalNative never enables checking (§4.3)"
            );
            Ok(())
        })
        .unwrap();
        env.call_native("fast_heap", NativeKind::FastNative, |env| {
            assert!(
                env.thread().mte().checks_enabled(),
                "@FastNative does enable checking (§4.3)"
            );
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn sweep_spares_a_natively_borrowed_object_until_release() {
        let vm = sync_vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let elems = {
            let a = env.new_int_array_from(&[9, 8, 7]).unwrap();
            env.get_primitive_array_critical(&a).unwrap()
            // The only Java handle drops here: the object is dead to the
            // GC but still borrowed by native code.
        };
        let ptr = elems.ptr();
        let stats = vm.heap().sweep();
        assert_eq!(stats.swept, 0, "the borrow's pin holds the object");
        assert_eq!(stats.pinned, 1);
        // The memory tag is still live at the payload.
        assert_eq!(vm.heap().memory().raw_tag_at(ptr.addr()).unwrap(), ptr.tag());
        // The final release, through the handle the borrow record holds,
        // ends the borrow and frees the tags...
        let a = env
            .borrowed_object(ptr)
            .expect("the borrow is live")
            .as_array()
            .unwrap();
        env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
            .unwrap();
        assert_eq!(
            vm.heap().memory().raw_tag_at(ptr.addr()).unwrap(),
            Tag::UNTAGGED
        );
        drop(a);
        // ...and only now may the sweep reclaim the object, with nothing
        // left for its safepoint to purge.
        let stats = vm.heap().sweep();
        assert_eq!(stats.swept, 1);
        assert_eq!(stats.pinned, 0);
    }

    #[test]
    fn compaction_leaves_borrowed_objects_in_place() {
        let scheme = Arc::new(Mte4Jni::new());
        let vm = Vm::builder()
            .heap_config(HeapConfig::mte4jni())
            .check_mode(TcfMode::Sync)
            .protection(scheme.clone())
            .build();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let held = env.new_int_array_from(&[5; 16]).unwrap();
        let garbage = env.new_int_array(16).unwrap();
        let mover = env.new_int_array_from(&[6; 16]).unwrap();
        let elems = env.get_primitive_array_critical(&held).unwrap();
        let held_ptr = elems.ptr();
        let mover_old = mover.data_addr();
        drop(garbage);

        let stats = vm.heap().compact();
        assert_eq!(stats.pinned_skipped, 1, "the borrowed object is an obstacle");
        assert_eq!(stats.moved_objects, 1);
        assert!(mover.data_addr() < mover_old, "slid into the reclaimed gap");
        // The borrowed object kept its address and its live tag, so the
        // native pointer handed out before the collection still works.
        assert_eq!(held.data_addr(), held_ptr.addr());
        assert_eq!(
            vm.heap().memory().raw_tag_at(held_ptr.addr()).unwrap(),
            held_ptr.tag()
        );
        // The borrowed object's entry survived the collection in place.
        assert_eq!(scheme.stats().tracked_objects, 1);
        // The ordinary release path still finds the entry and frees the
        // tags.
        env.release_primitive_array_critical(&held, elems, ReleaseMode::CopyBack)
            .unwrap();
        assert_eq!(
            vm.heap().memory().raw_tag_at(held_ptr.addr()).unwrap(),
            Tag::UNTAGGED
        );
        // And the moved object's payload followed it.
        assert_eq!(vm.heap().int_at(&t, &mover, 0).unwrap(), 6);
    }

    #[test]
    fn stats_track_sharing_and_frees() {
        let scheme = Arc::new(Mte4Jni::new());
        let vm = Vm::builder()
            .heap_config(HeapConfig::mte4jni())
            .check_mode(TcfMode::Sync)
            .protection(scheme.clone())
            .build();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array(4).unwrap();
        let e1 = env.get_primitive_array_critical(&a).unwrap();
        let e2 = env.get_primitive_array_critical(&a).unwrap();
        env.release_primitive_array_critical(&a, e2, ReleaseMode::CopyBack).unwrap();
        env.release_primitive_array_critical(&a, e1, ReleaseMode::CopyBack).unwrap();
        let s = scheme.stats();
        assert_eq!(s.acquires, 2);
        assert_eq!(s.shared_acquires, 1);
        assert_eq!(s.releases, 2);
        // The second release was the last: it freed the entry and its
        // tags, with no safepoint needed.
        assert_eq!(s.tag_frees, 1);
        assert_eq!(s.tracked_objects, 0);
        // The funnel-level conservation law: every fresh acquire is
        // balanced by a tag free or a safepoint purge (none here).
        assert_eq!(s.acquires - s.shared_acquires, s.tag_frees);
    }
}
