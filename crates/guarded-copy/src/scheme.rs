//! The guarded-copy [`Protection`] implementation.

use std::collections::HashMap;
use std::fmt;

// Via the `sync` facade so the stress harness can schedule around the
// shadow-ledger lock; plain `parking_lot` on threads it does not drive.
use mte_sim::sync::Mutex;

use jni_rt::{AbortReport, AcquireOutcome, JniContext, JniError, Protection, ReleaseMode, Tally};
use mte_sim::{Backtrace, Frame, TaggedPtr};

use crate::adler::adler32;
use crate::canary::{fill_canary, first_corruption};

/// Configuration for [`GuardedCopy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GuardedCopyConfig {
    /// Red-zone length in bytes on *each* side of the copy.
    ///
    /// 512 bytes is our stand-in for ART's guard length; the Figure 5
    /// small-array ratios are sensitive to this value, and the bench
    /// harness can sweep it.
    pub red_zone_len: usize,
}

impl Default for GuardedCopyConfig {
    fn default() -> Self {
        GuardedCopyConfig { red_zone_len: 512 }
    }
}

#[derive(Debug)]
struct Shadow {
    block: TaggedPtr,
    block_len: usize,
    payload_len: usize,
    checksum: u32,
}

/// The guarded-copy scheme (ART CheckJNI's `GuardedCopy`).
///
/// Each `Get*` creates an independent shadow copy — concurrent acquirers
/// of the same object each get their own guarded buffer, exactly as in
/// ART, which is why the scheme's Figure 6 multi-thread cost scales with
/// the number of acquisitions.
pub struct GuardedCopy {
    config: GuardedCopyConfig,
    shadows: Mutex<HashMap<u64, Shadow>>,
    /// The scheme's counters, indexed by the constants below.
    counts: Tally<6>,
}

const ACQUIRES: usize = 0;
const RELEASES: usize = 1;
const CORRUPTIONS: usize = 2;
const ABANDONED_WRITES: usize = 3;
const SHADOW_BYTES: usize = 4;
const CANARY_VERIFIES: usize = 5;

impl GuardedCopy {
    /// Creates the scheme with the default red-zone length.
    pub fn new() -> GuardedCopy {
        GuardedCopy::with_config(GuardedCopyConfig::default())
    }

    /// Creates the scheme with an explicit configuration.
    pub fn with_config(config: GuardedCopyConfig) -> GuardedCopy {
        GuardedCopy {
            config,
            shadows: Mutex::new(HashMap::new()),
            counts: Tally::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> GuardedCopyConfig {
        self.config
    }

    /// Number of live shadow copies (outstanding acquisitions) — the
    /// stress harness's quiescence oracle.
    pub fn tracked_shadows(&self) -> usize {
        self.shadows.lock().len()
    }

    /// Operation counters.
    pub fn stats(&self) -> GuardedCopyStats {
        GuardedCopyStats {
            acquires: self.counts.get(ACQUIRES),
            releases: self.counts.get(RELEASES),
            corruptions_detected: self.counts.get(CORRUPTIONS),
            abandoned_writes: self.counts.get(ABANDONED_WRITES),
        }
    }

    fn abort_backtrace(cx: &JniContext<'_>) -> Backtrace {
        // Figure 4a: the report's top frames are the runtime's abort path,
        // not the code that corrupted memory.
        let mut frames = vec![
            Frame::new("abort+180", "libc.so"),
            Frame::new("art::Runtime::Abort(char const*)+1536", "libart.so"),
            Frame::new("art::(anonymous namespace)::ScopedCheck::AbortF+64", "libart.so"),
        ];
        frames.extend(cx.thread.mte().backtrace().frames().iter().cloned());
        Backtrace::from_frames(frames)
    }
}

impl Default for GuardedCopy {
    fn default() -> Self {
        GuardedCopy::new()
    }
}

impl fmt::Debug for GuardedCopy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GuardedCopy")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Protection for GuardedCopy {
    fn name(&self) -> &'static str {
        "guarded-copy"
    }

    fn on_acquire(
        &self,
        cx: &JniContext<'_>,
        obj: &art_heap::ObjectRef,
    ) -> jni_rt::Result<AcquireOutcome> {
        let rz = self.config.red_zone_len;
        let payload_len = obj.byte_len();
        let total = rz + payload_len + rz;

        // Copy the object payload out of the Java heap (runtime-internal
        // access) and compose [canary | payload | canary].
        let mut block = vec![0u8; total];
        cx.heap.read_payload(obj, &mut block[rz..rz + payload_len])
            .map_err(JniError::from)?;
        let checksum = adler32(&block[rz..rz + payload_len]);
        fill_canary(&mut block[..rz], 0);
        fill_canary(&mut block[rz + payload_len..], 0);

        let block_ptr = cx.heap.native_alloc().alloc(total).map_err(JniError::from)?;
        cx.heap
            .memory()
            .write_bytes_unchecked(block_ptr, &block)
            .map_err(JniError::from)?;

        let user_ptr = block_ptr.wrapping_add(rz as u64);
        self.shadows.lock().insert(
            user_ptr.addr(),
            Shadow {
                block: block_ptr,
                block_len: total,
                payload_len,
                checksum,
            },
        );
        self.counts.bump(ACQUIRES);
        self.counts.add(SHADOW_BYTES, total as u64);
        Ok(AcquireOutcome {
            ptr: user_ptr,
            is_copy: true,
        })
    }

    fn on_release(
        &self,
        cx: &JniContext<'_>,
        obj: &art_heap::ObjectRef,
        ptr: TaggedPtr,
        mode: ReleaseMode,
    ) -> jni_rt::Result<()> {
        let shadow = match mode {
            ReleaseMode::Commit => {
                // Keep the entry: JNI_COMMIT copies back without freeing.
                let shadows = self.shadows.lock();
                let s = shadows
                    .get(&ptr.addr())
                    .ok_or(JniError::StaleRelease { pointer: ptr.raw() })?;
                Shadow {
                    block: s.block,
                    block_len: s.block_len,
                    payload_len: s.payload_len,
                    checksum: s.checksum,
                }
            }
            _ => self
                .shadows
                .lock()
                .remove(&ptr.addr())
                .ok_or(JniError::StaleRelease { pointer: ptr.raw() })?,
        };

        let rz = self.config.red_zone_len;
        let mut block = vec![0u8; shadow.block_len];
        cx.heap
            .memory()
            .read_bytes_unchecked(shadow.block, &mut block)
            .map_err(JniError::from)?;

        let free_block = |gc: &GuardedCopy| {
            if mode != ReleaseMode::Commit {
                cx.heap.native_alloc().free(shadow.block, shadow.block_len);
            }
            gc.counts.bump(RELEASES);
        };

        // (2) of Figure 2: verify both red zones still hold the canary.
        self.counts.add(CANARY_VERIFIES, 2); // front + rear
        let front = first_corruption(&block[..rz], 0);
        let rear = first_corruption(&block[rz + shadow.payload_len..], 0);
        if front.is_some() || rear.is_some() {
            self.counts.bump(CORRUPTIONS);
            let offset = match (front, rear) {
                (Some(i), _) => i as isize - rz as isize,
                (None, Some(i)) => (shadow.payload_len + i) as isize,
                (None, None) => unreachable!(),
            };
            let report = AbortReport {
                message: format!(
                    "use of JNI buffer for {} of length {} corrupted a red zone \
                     (first bad byte at payload offset {}); original checksum {:#010x}",
                    obj.kind().element_type(),
                    shadow.payload_len,
                    offset,
                    shadow.checksum,
                ),
                corruption_offset: Some(offset),
                backtrace: GuardedCopy::abort_backtrace(cx),
            };
            free_block(self);
            return Err(JniError::CheckJniAbort(Box::new(report)));
        }

        let payload = &block[rz..rz + shadow.payload_len];
        match mode {
            ReleaseMode::CopyBack | ReleaseMode::Commit => {
                // (3) of Figure 2: zones intact — update the real object.
                cx.heap.write_payload(obj, payload).map_err(JniError::from)?;
            }
            ReleaseMode::Abort => {
                // JNI_ABORT discards changes; ART logs if there were any.
                if adler32(payload) != shadow.checksum {
                    self.counts.bump(ABANDONED_WRITES);
                }
            }
        }
        free_block(self);
        Ok(())
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let s = self.stats();
        vec![
            ("acquires", s.acquires),
            ("releases", s.releases),
            ("corruptions_detected", s.corruptions_detected),
            ("abandoned_writes", s.abandoned_writes),
            ("shadow_bytes", self.counts.get(SHADOW_BYTES)),
            ("canary_verifies", self.counts.get(CANARY_VERIFIES)),
        ]
    }
}

/// Operation counters for [`GuardedCopy`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GuardedCopyStats {
    /// Shadow buffers created.
    pub acquires: u64,
    /// Releases processed (including aborted ones).
    pub releases: u64,
    /// Red-zone corruptions detected.
    pub corruptions_detected: u64,
    /// `JNI_ABORT` releases whose buffer had been modified.
    pub abandoned_writes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use jni_rt::{NativeKind, Vm};
    use std::sync::Arc;

    fn vm() -> Vm {
        Vm::builder().protection(Arc::new(GuardedCopy::new())).build()
    }

    #[test]
    fn clean_session_copies_back() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array_from(&[1, 2, 3]).unwrap();
        let elems = env.get_primitive_array_critical(&a).unwrap();
        assert!(elems.is_copy(), "guarded copy always copies");
        let mem = env.native_mem();
        elems.write_i32(&mem, 0, 42).unwrap();
        env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
            .unwrap();
        assert_eq!(vm.heap().int_at(&t, &a, 0).unwrap(), 42);
    }

    #[test]
    fn oob_write_detected_at_release_with_offset() {
        // The paper's §5.2 scenario: 18 ints, write at index 21.
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array(18).unwrap();
        let err = env
            .call_native("test_ofb", NativeKind::Normal, |env| {
                let elems = env.get_primitive_array_critical(&a)?;
                let mem = env.native_mem();
                elems.write_i32(&mem, 21, 0xBAD)?; // lands in the rear red zone
                env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
            })
            .unwrap_err();
        let report = err.as_abort().expect("check-jni abort");
        assert_eq!(report.corruption_offset, Some(21 * 4));
        // Figure 4a: the trace names the runtime's abort path, not test_ofb.
        assert_eq!(&*report.backtrace.top().unwrap().label, "abort+180");
    }

    #[test]
    fn front_red_zone_catches_negative_indices() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array(8).unwrap();
        let elems = env.get_primitive_array_critical(&a).unwrap();
        let mem = env.native_mem();
        elems.write_i32(&mem, -3, 7).unwrap();
        let err = env
            .release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
            .unwrap_err();
        assert_eq!(err.as_abort().unwrap().corruption_offset, Some(-12));
    }

    #[test]
    fn oob_read_is_not_detected() {
        // Limitation 1 (§2.3): reads never change the canary.
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array(8).unwrap();
        let elems = env.get_primitive_array_critical(&a).unwrap();
        let mem = env.native_mem();
        let _ = elems.read_i32(&mem, 100).unwrap();
        env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
            .unwrap();
    }

    #[test]
    fn write_skipping_past_red_zone_is_missed() {
        // Limitation 2 (§2.3): a far write lands beyond the rear zone.
        let scheme = Arc::new(GuardedCopy::with_config(GuardedCopyConfig {
            red_zone_len: 64,
        }));
        let vm = Vm::builder().protection(scheme.clone()).build();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array(4).unwrap();
        let elems = env.get_primitive_array_critical(&a).unwrap();
        let mem = env.native_mem();
        // 4*4 bytes payload + 64 rear zone = 80; index 30 writes at 120.
        elems.write_i32(&mem, 30, 1).unwrap();
        env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
            .unwrap();
        assert_eq!(scheme.stats().corruptions_detected, 0);
    }

    #[test]
    fn abort_mode_discards_changes_and_counts_them() {
        let scheme = Arc::new(GuardedCopy::new());
        let vm = Vm::builder().protection(scheme.clone()).build();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array_from(&[5, 6]).unwrap();
        let elems = env.get_int_array_elements(&a).unwrap();
        let mem = env.native_mem();
        elems.write_i32(&mem, 0, 99).unwrap();
        env.release_int_array_elements(&a, elems, ReleaseMode::Abort)
            .unwrap();
        assert_eq!(vm.heap().int_at(&t, &a, 0).unwrap(), 5, "JNI_ABORT discards");
        assert_eq!(scheme.stats().abandoned_writes, 1);
    }

    #[test]
    fn commit_copies_back_and_keeps_buffer() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array_from(&[1]).unwrap();
        let elems = env.get_int_array_elements(&a).unwrap();
        let mem = env.native_mem();
        elems.write_i32(&mem, 0, 2).unwrap();
        let ptr = elems.ptr();
        env.release_int_array_elements(&a, elems, ReleaseMode::Commit)
            .unwrap();
        assert_eq!(vm.heap().int_at(&t, &a, 0).unwrap(), 2);
        // The buffer is still live; write again and do the final release.
        let elems2 = jni_rt::NativeArray::new(ptr, 1, art_heap::PrimitiveType::Int, true);
        elems2.write_i32(&mem, 0, 3).unwrap();
        env.release_int_array_elements(&a, elems2, ReleaseMode::CopyBack)
            .unwrap();
        assert_eq!(vm.heap().int_at(&t, &a, 0).unwrap(), 3);
    }

    #[test]
    fn stale_release_rejected() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array(2).unwrap();
        let bogus = jni_rt::NativeArray::new(
            TaggedPtr::from_addr(0x1234_5678),
            2,
            art_heap::PrimitiveType::Int,
            true,
        );
        assert!(matches!(
            env.release_int_array_elements(&a, bogus, ReleaseMode::CopyBack),
            Err(JniError::StaleRelease { .. })
        ));
    }

    #[test]
    fn concurrent_acquires_get_distinct_copies() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array_from(&[1, 2]).unwrap();
        let e1 = env.get_primitive_array_critical(&a).unwrap();
        let e2 = env.get_primitive_array_critical(&a).unwrap();
        assert_ne!(e1.ptr().addr(), e2.ptr().addr());
        env.release_primitive_array_critical(&a, e2, ReleaseMode::CopyBack).unwrap();
        env.release_primitive_array_critical(&a, e1, ReleaseMode::CopyBack).unwrap();
    }

    #[test]
    fn string_interfaces_are_guarded_too() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let s = env.new_string("abcdef").unwrap();
        let chars = env.get_string_critical(&s).unwrap();
        let mem = env.native_mem();
        chars.write_u16(&mem, 100, 0xDEAD).unwrap(); // OOB into rear zone
        let err = env.release_string_critical(&s, chars).unwrap_err();
        assert!(err.as_abort().is_some());
    }

    #[test]
    fn sweep_spares_a_borrowed_object_so_copy_back_succeeds() {
        let scheme = Arc::new(GuardedCopy::new());
        let vm = Vm::builder().protection(scheme.clone()).build();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let elems = {
            let a = env.new_int_array_from(&[1, 2, 3]).unwrap();
            env.get_primitive_array_critical(&a).unwrap()
            // The only Java handle drops here, mid-borrow.
        };
        let stats = vm.heap().sweep();
        assert_eq!(stats.swept, 0, "the borrow's pin holds the object");
        assert_eq!(stats.pinned, 1);
        assert_eq!(scheme.tracked_shadows(), 1, "shadow survives the sweep");
        // Native code keeps writing through the shadow copy...
        let mem = env.native_mem();
        elems.write_i32(&mem, 1, 42).unwrap();
        // ...and the final release copies back into the *original* object,
        // which the sweep left in place instead of recycling its block.
        let a = env
            .borrowed_object(elems.ptr())
            .expect("the borrow is live")
            .as_array()
            .unwrap();
        env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
            .unwrap();
        assert_eq!(vm.heap().int_at(&t, &a, 1).unwrap(), 42);
        drop(a);
        assert_eq!(vm.heap().sweep().swept, 1, "borrow over: reclaimable");
        assert_eq!(scheme.tracked_shadows(), 0);
    }

    #[test]
    fn native_buffers_are_freed_after_release() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array(1024).unwrap();
        for _ in 0..100 {
            let elems = env.get_primitive_array_critical(&a).unwrap();
            env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
                .unwrap();
        }
        assert_eq!(vm.heap().native_alloc().stats().bytes_in_use, 0);
    }
}
