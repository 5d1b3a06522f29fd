//! The per-thread JNI environment.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::Arc;

use art_heap::{ArrayRef, HeapError, JavaThread, ObjectRef, PinGuard, PrimitiveType, StringRef};
use art_heap::{encode_modified_utf8, Heap};
use mte_sim::sync::yield_point;
use mte_sim::{FaultAttribution, MemError, TaggedPtr};
use telemetry::trace::{self, TraceEvent};
use telemetry::{DegradeReason, Event, JniInterface, LatencyOp, SizeClass};

use crate::checkjni::{Ledger, Outstanding};
use crate::tracecode;
use crate::containment::FaultPolicy;
use crate::error::JniError;
use crate::guard::CriticalGuard;
use crate::native::{NativeArray, NativeMem, NativeUtf};
use crate::protection::{AcquireOutcome, JniContext, Protection, ReleaseMode};
use crate::trampoline::NativeKind;
use crate::vm::Vm;
use crate::Result;

/// Bounded attempts when force-releasing borrows leaked by a contained
/// fault: leaking a table entry would trade a contained fault for a
/// poisoned table, so the budget is deliberately generous.
const CONTAIN_RELEASE_RETRIES: u32 = 64;

/// One raw pointer currently handed out to native code through this
/// environment — the borrow's only record in the JNI layer. It owns the
/// borrow's pin, so the borrow and the pin start and end together. The
/// containment pass uses it to clean up after a fault, releases use it
/// to route back to the scheme that performed the acquire, and CheckJNI
/// validates releases against it and reports it while outstanding.
struct LiveBorrow<'a> {
    ptr: TaggedPtr,
    /// The pin on the object the scheme guards.
    pin: PinGuard<'a>,
    /// Address of the Java object the caller named: the pinned object
    /// itself, except for `GetStringUTFChars`, where it is the source
    /// string and the pinned object the hidden transcoding buffer.
    identity: u64,
    interface: JniInterface,
    via_fallback: bool,
}

impl LiveBorrow<'_> {
    fn outstanding(&self) -> Outstanding {
        Outstanding {
            pointer: self.ptr.raw(),
            interface: self.interface,
            object: self.identity,
        }
    }
}

/// The JNI environment for one thread — the `JNIEnv*` native code
/// receives.
///
/// Implements every interface from the paper's Table 1. The `Get*`
/// methods route through the VM's [`Protection`] scheme before exposing a
/// raw pointer; the `Release*` methods route through it again.
///
/// Create one per thread with [`Vm::env`] and reuse it: the critical
/// section depth lives here, as it does in ART's per-thread `JNIEnvExt`.
///
/// [`Protection`]: crate::Protection
pub struct JniEnv<'a> {
    vm: &'a Vm,
    thread: &'a JavaThread,
    critical_depth: Cell<u32>,
    ledger: Ledger,
    borrows: RefCell<Vec<LiveBorrow<'a>>>,
    current_native: Cell<Option<&'static str>>,
}

impl<'a> JniEnv<'a> {
    pub(crate) fn new(vm: &'a Vm, thread: &'a JavaThread) -> JniEnv<'a> {
        JniEnv {
            vm,
            thread,
            critical_depth: Cell::new(0),
            ledger: Ledger::new(vm.config().check_jni),
            borrows: RefCell::new(Vec::new()),
            current_native: Cell::new(None),
        }
    }

    /// CheckJNI: acquisitions on this environment that were never
    /// released, in acquire order — what ART warns about when a thread
    /// detaches. Empty when CheckJNI is off.
    pub fn outstanding_acquisitions(&self) -> Vec<Outstanding> {
        if !self.ledger.enabled() {
            return Vec::new();
        }
        self.borrows
            .borrow()
            .iter()
            .map(LiveBorrow::outstanding)
            .collect()
    }

    /// CheckJNI: guards that were dropped without an explicit
    /// [`CriticalGuard::commit`]/[`CriticalGuard::abort`]. The RAII drop
    /// released them safely, but each one is a latent usage bug.
    pub fn guard_drops(&self) -> Vec<Outstanding> {
        self.ledger.guard_drops()
    }

    /// The owning VM.
    pub fn vm(&self) -> &'a Vm {
        self.vm
    }

    /// The thread this environment belongs to.
    pub fn thread(&self) -> &'a JavaThread {
        self.thread
    }

    /// The Java heap.
    pub fn heap(&self) -> &'a Heap {
        self.vm.heap()
    }

    /// The native-code memory view for this thread.
    pub fn native_mem(&self) -> NativeMem<'_> {
        NativeMem::new(self.vm.heap().memory(), self.thread.mte())
    }

    /// Current `Get*Critical` nesting depth.
    pub fn critical_depth(&self) -> u32 {
        self.critical_depth.get()
    }

    fn cx(&self, interface: JniInterface) -> JniContext<'_> {
        JniContext {
            heap: self.vm.heap(),
            thread: self.thread,
            interface,
        }
    }

    /// The scheme a borrow routes through: the VM's primary protection,
    /// or the degradation fallback for quarantined/degraded borrows.
    fn scheme_for(&self, via_fallback: bool) -> &Arc<dyn Protection> {
        if via_fallback {
            self.vm
                .fallback_protection()
                .expect("fallback routing requires a fallback scheme")
        } else {
            self.vm.protection()
        }
    }

    /// Deterministic backoff before a retry: linearly more yield points
    /// per attempt, so the cooperative scheduler interleaves other
    /// threads (and the fault injector draws fresh randomness) before
    /// the operation runs again.
    fn backoff(&self, attempt: u32, label: &'static str) {
        for _ in 0..attempt {
            yield_point(label);
        }
    }

    /// The single acquire path every `Get*` interface funnels through:
    /// quarantine routing, protection interposition with bounded retry
    /// and tag-exhaustion degradation, latency timing, event recording,
    /// and the live-borrow record. `identity` is
    /// the address of the Java object the caller named — for
    /// `GetStringUTFChars` that is the source string while `scheme_obj`
    /// is the hidden transcoding buffer.
    pub(crate) fn acquire_raw(
        &self,
        scheme_obj: &ObjectRef,
        identity: u64,
        interface: JniInterface,
    ) -> Result<AcquireOutcome> {
        let cx = self.cx(interface);
        let containment = self.vm.containment();
        let has_fallback = self.vm.fallback_protection().is_some();
        // Quarantined native methods skip the primary scheme entirely.
        let mut via_fallback = has_fallback
            && self
                .current_native
                .get()
                .is_some_and(|m| containment.is_quarantined(m));
        if via_fallback {
            containment.note_degraded(DegradeReason::Quarantine);
        }
        // Pin first: from this instant the object can neither be swept
        // nor moved, so the raw pointer the scheme derives below stays
        // valid for the whole borrow (the JNI pinning contract). The pin
        // is held across retries — a transient failure must not let the
        // object move between attempts.
        let pin = self.vm.heap().pin(scheme_obj);
        let started = telemetry::start_timing();
        let mut retries = 0u32;
        let out = loop {
            match self.scheme_for(via_fallback).on_acquire(&cx, scheme_obj) {
                Ok(out) => break out,
                Err(JniError::Mem(MemError::TagExhausted { .. }))
                    if !via_fallback && has_fallback =>
                {
                    // No usable tag for this allocation: degrade this one
                    // acquire to the guarded-copy fallback instead of
                    // failing it.
                    via_fallback = true;
                    containment.note_degraded(DegradeReason::TagExhaustion);
                }
                Err(e)
                    if e.is_transient()
                        && retries < containment.config().transient_retries =>
                {
                    retries += 1;
                    containment.note_retry();
                    self.backoff(retries, "acquire-retry");
                }
                Err(e) => {
                    // Nothing was handed to native code: the borrow never
                    // started.
                    drop(pin);
                    trace::emit(|| TraceEvent::Acquire {
                        obj: identity,
                        interface: interface.index(),
                        ptr: 0,
                        outcome: tracecode::jni_outcome(&e),
                    });
                    return Err(e);
                }
            }
        };
        if let Some(t0) = started {
            let elapsed = t0.elapsed();
            let size = SizeClass::from_bytes(scheme_obj.byte_len() as u64);
            self.vm
                .borrow_latency(via_fallback, LatencyOp::Acquire, interface, size)
                .record(elapsed);
        }
        telemetry::record(Event::Acquire { interface });
        self.borrows.borrow_mut().push(LiveBorrow {
            ptr: out.ptr,
            pin,
            identity,
            interface,
            via_fallback,
        });
        trace::emit(|| TraceEvent::Acquire {
            obj: identity,
            interface: interface.index(),
            ptr: out.ptr.raw(),
            outcome: telemetry::trace::outcome::OK,
        });
        Ok(out)
    }

    /// The matching single release path: the live-borrow lookup with
    /// CheckJNI verification (interface *and* object identity), then the
    /// scheme interposition with timing and event recording.
    pub(crate) fn release_raw(
        &self,
        scheme_obj: &ObjectRef,
        identity: u64,
        ptr: TaggedPtr,
        interface: JniInterface,
        mode: ReleaseMode,
    ) -> Result<()> {
        let result = self
            .find_borrow(ptr, interface, identity)
            .and_then(|slot| self.release_scheme(slot, scheme_obj, ptr, interface, mode));
        self.trace_release(ptr, identity, interface, mode, result)
    }

    /// Index of the live borrow `ptr` names — the latest one, when an
    /// object is borrowed more than once. `None` for a pointer this
    /// environment never handed out.
    fn borrow_slot(&self, ptr: TaggedPtr) -> Option<usize> {
        self.borrows
            .borrow()
            .iter()
            .rposition(|b| b.ptr.raw() == ptr.raw())
    }

    /// The object pinned by the live borrow that `ptr` names — how a
    /// `Release*` reaches an object whose last Java handle died during
    /// the native borrow. For `GetStringUTFChars` this is the hidden
    /// transcoding buffer. `None` for a pointer this environment has not
    /// handed out or has already released.
    pub fn borrowed_object(&self, ptr: TaggedPtr) -> Option<ObjectRef> {
        let slot = self.borrow_slot(ptr)?;
        Some(self.borrows.borrow()[slot].pin.object().clone())
    }

    /// [`Self::borrow_slot`], validated under CheckJNI against the
    /// releasing `interface` and object `identity`.
    fn find_borrow(
        &self,
        ptr: TaggedPtr,
        interface: JniInterface,
        identity: u64,
    ) -> Result<Option<usize>> {
        let slot = self.borrow_slot(ptr);
        let acquired = slot.map(|i| self.borrows.borrow()[i].outstanding());
        self.ledger.verify(acquired, interface, identity)?;
        Ok(slot)
    }

    /// Emits the trace event for an app-level release and passes the
    /// result through. The containment pass's force-releases bypass this
    /// on purpose: they are a runtime reaction, not app behavior, and the
    /// replayer reproduces them from the fault itself.
    fn trace_release(
        &self,
        ptr: TaggedPtr,
        identity: u64,
        interface: JniInterface,
        mode: ReleaseMode,
        result: Result<()>,
    ) -> Result<()> {
        trace::emit(|| TraceEvent::Release {
            ptr: ptr.raw(),
            obj: identity,
            interface: interface.index(),
            mode: tracecode::mode_code(mode),
            outcome: tracecode::result_outcome(&result),
        });
        result
    }

    /// The scheme half of the release path for the live borrow at
    /// `slot` (from [`Self::find_borrow`]). The critical releases call it
    /// directly because their `critical_depth` bookkeeping must run even
    /// when the scheme reports corruption (the buffer is gone either
    /// way).
    fn release_scheme(
        &self,
        slot: Option<usize>,
        scheme_obj: &ObjectRef,
        ptr: TaggedPtr,
        interface: JniInterface,
        mode: ReleaseMode,
    ) -> Result<()> {
        let cx = self.cx(interface);
        // Route back through the scheme that performed the acquire: a
        // degraded borrow must be released by the fallback, not the
        // primary. Unknown pointers go to the primary, which reports a
        // stale release where it can.
        let via_fallback = slot.is_some_and(|i| self.borrows.borrow()[i].via_fallback);
        let scheme = self.scheme_for(via_fallback);
        let containment = self.vm.containment();
        let started = telemetry::start_timing();
        let mut retries = 0u32;
        let result = loop {
            match scheme.on_release(&cx, scheme_obj, ptr, mode) {
                Err(e)
                    if e.is_transient()
                        && retries < containment.config().transient_retries =>
                {
                    retries += 1;
                    containment.note_retry();
                    self.backoff(retries, "release-retry");
                }
                r => break r,
            }
        };
        if let Some(t0) = started {
            let elapsed = t0.elapsed();
            let size = SizeClass::from_bytes(scheme_obj.byte_len() as u64);
            self.vm
                .borrow_latency(via_fallback, LatencyOp::Release, interface, size)
                .record(elapsed);
        }
        telemetry::record(Event::Release { interface });
        // The borrow ends — and its record drops the pin — when the
        // scheme tore its tracking down: on success, or on a CheckJNI
        // abort (the buffer is gone either way). `JNI_COMMIT` keeps the
        // borrow, and a transient failure (e.g. an injected tag-store
        // fault) leaves the pointer handed out, so the pin must survive
        // the retry. A release with no record unpins nothing: the pins
        // on `scheme_obj` belong to other borrows.
        let ends_borrow = mode != ReleaseMode::Commit
            && matches!(result, Ok(()) | Err(JniError::CheckJniAbort(_)));
        if let Some(i) = slot.filter(|_| ends_borrow) {
            // The scheme call cannot touch this environment's borrow
            // list, so `slot` still names the same borrow.
            self.borrows.borrow_mut().remove(i);
        }
        result
    }

    /// Force-releases every borrow opened at or after `mark` with
    /// `JNI_ABORT` — the same funnel a dropped [`CriticalGuard`] uses —
    /// so tag tables, refcounts, and pins stay balanced after a
    /// contained fault. These are runtime releases, not app calls, so
    /// CheckJNI does not validate them.
    fn release_leaked_borrows(&self, mark: usize) -> u32 {
        let leaked: Vec<(TaggedPtr, ObjectRef, JniInterface)> = {
            let borrows = self.borrows.borrow();
            borrows
                .get(mark..)
                .unwrap_or(&[])
                .iter()
                .map(|b| (b.ptr, b.pin.object().clone(), b.interface))
                .collect()
        };
        let mut released = 0u32;
        for (ptr, obj, interface) in leaked {
            let slot = self.borrow_slot(ptr);
            let mut attempts = 0u32;
            loop {
                let result =
                    self.release_scheme(slot, &obj, ptr, interface, ReleaseMode::Abort);
                match result {
                    Err(e) if e.is_transient() && attempts < CONTAIN_RELEASE_RETRIES => {
                        attempts += 1;
                        self.backoff(attempts, "contain-release-retry");
                    }
                    _ => break,
                }
            }
            released += 1;
        }
        released
    }

    /// Force-releases every borrow still open on this environment with
    /// `JNI_ABORT` semantics, through the same retry funnel a contained
    /// fault uses, and resets the critical-section depth. This is the
    /// teardown path for a tenant evicted mid-flight or a thread
    /// detached inside a critical section: after it returns, pins, tag
    /// tables, and refcounts are balanced again and the heap can be
    /// swept or dropped safely. Returns the number of borrows reclaimed.
    pub fn force_release_borrows(&self) -> u32 {
        let released = self.release_leaked_borrows(0);
        self.critical_depth.set(0);
        released
    }

    pub(crate) fn note_guard_drop(&self, ptr: TaggedPtr, interface: JniInterface, object: u64) {
        telemetry::record(Event::GuardDrop { interface });
        self.ledger.note_guard_drop(ptr, interface, object);
    }

    fn ensure_not_critical(&self, what: &str) -> Result<()> {
        if self.critical_depth.get() > 0 {
            Err(JniError::CriticalViolation { what: what.to_owned() })
        } else {
            Ok(())
        }
    }

    // ------------------------------------------------------------------
    // Object creation and introspection
    // ------------------------------------------------------------------

    /// `NewString`: allocates a Java string.
    ///
    /// # Errors
    ///
    /// Heap exhaustion, or use inside a critical section.
    pub fn new_string(&self, s: &str) -> Result<StringRef> {
        self.ensure_not_critical("NewString")?;
        let r = self.vm.heap().alloc_string(s)?;
        trace::emit(|| TraceEvent::AllocString {
            addr: r.addr(),
            utf16_len: r.len() as u64,
            utf8_len: encode_modified_utf8(&art_heap::utf16_units(s)).len() as u64,
        });
        Ok(r)
    }

    /// `GetArrayLength`.
    pub fn get_array_length(&self, a: &ArrayRef) -> usize {
        a.len()
    }

    /// `GetStringLength` (UTF-16 code units).
    pub fn get_string_length(&self, s: &StringRef) -> usize {
        s.len()
    }

    /// `GetStringUTFLength`: length in modified-UTF-8 bytes, excluding the
    /// terminator.
    ///
    /// # Errors
    ///
    /// Propagates simulated memory errors.
    pub fn get_string_utf_length(&self, s: &StringRef) -> Result<usize> {
        Ok(encode_modified_utf8(&self.string_units(s)?).len())
    }

    /// `NewStringUTF`: creates a string from modified UTF-8 bytes.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidUtf8`] on malformed input; heap exhaustion;
    /// use inside a critical section.
    pub fn new_string_utf(&self, bytes: &[u8]) -> Result<StringRef> {
        self.ensure_not_critical("NewStringUTF")?;
        let units = art_heap::decode_modified_utf8(bytes)
            .map_err(|e| HeapError::InvalidUtf8 { offset: e.offset })?;
        let r = self.vm.heap().alloc_string_from_units(&units)?;
        trace::emit(|| TraceEvent::AllocString {
            addr: r.addr(),
            utf16_len: r.len() as u64,
            utf8_len: encode_modified_utf8(&units).len() as u64,
        });
        Ok(r)
    }

    /// `GetStringRegion`: bounds-checked copy of UTF-16 code units — the
    /// safe alternative to the raw-pointer string interfaces.
    ///
    /// # Errors
    ///
    /// [`HeapError::IndexOutOfBounds`] (the JVM's
    /// `StringIndexOutOfBoundsException`) when the region exceeds the
    /// string.
    pub fn get_string_region(&self, s: &StringRef, start: usize, out: &mut [u16]) -> Result<()> {
        self.ensure_not_critical("GetStringRegion")?;
        telemetry::record(Event::Acquire { interface: JniInterface::StringRegion });
        let result = (|| {
            let end = start.checked_add(out.len());
            if end.is_none_or(|e| e > s.len()) {
                return Err(JniError::Heap(HeapError::IndexOutOfBounds {
                    index: start.saturating_add(out.len()),
                    length: s.len(),
                }));
            }
            let mut bytes = vec![0u8; out.len() * 2];
            let ptr = TaggedPtr::from_addr(s.data_addr() + (start * 2) as u64);
            self.vm
                .heap()
                .memory()
                .read_bytes_unchecked(ptr, &mut bytes)
                .map_err(HeapError::from)?;
            for (i, chunk) in bytes.chunks_exact(2).enumerate() {
                out[i] = u16::from_le_bytes([chunk[0], chunk[1]]);
            }
            Ok(())
        })();
        trace::emit(|| TraceEvent::Region {
            obj: s.addr(),
            interface: JniInterface::StringRegion.index(),
            start: start as u64,
            len: out.len() as u64,
            write: false,
            outcome: tracecode::result_outcome(&result),
        });
        result
    }

    /// `GetStringUTFRegion`: bounds-checked modified-UTF-8 transcoding of
    /// a UTF-16 range.
    ///
    /// # Errors
    ///
    /// See [`Self::get_string_region`].
    pub fn get_string_utf_region(&self, s: &StringRef, start: usize, len: usize) -> Result<Vec<u8>> {
        let mut units = vec![0u16; len];
        self.get_string_region(s, start, &mut units)?;
        Ok(encode_modified_utf8(&units))
    }

    fn string_units(&self, s: &StringRef) -> Result<Vec<u16>> {
        let obj = s.as_object();
        let mut bytes = vec![0u8; obj.byte_len()];
        self.vm.heap().read_payload(obj, &mut bytes)?;
        Ok(bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect())
    }

    // ------------------------------------------------------------------
    // Critical interfaces (paper Table 1, rows 1–2)
    // ------------------------------------------------------------------

    /// `GetPrimitiveArrayCritical`: exposes the array payload as a raw
    /// pointer. Until the matching release, other JNI calls on this
    /// environment are forbidden.
    ///
    /// # Errors
    ///
    /// Scheme-specific acquisition failures.
    pub fn get_primitive_array_critical(&self, a: &ArrayRef) -> Result<NativeArray> {
        let out = self.acquire_raw(a.as_object(), a.addr(), JniInterface::PrimitiveArrayCritical)?;
        self.critical_depth.set(self.critical_depth.get() + 1);
        Ok(NativeArray::new(out.ptr, a.len(), a.element_type(), out.is_copy))
    }

    /// `GetPrimitiveArrayCritical` as an RAII guard: the returned
    /// [`CriticalGuard`] releases on drop, with explicit
    /// [`commit`](CriticalGuard::commit)/[`abort`](CriticalGuard::abort)
    /// for controlled release. Delegates to the same acquire path as
    /// [`Self::get_primitive_array_critical`].
    ///
    /// # Errors
    ///
    /// See [`Self::get_primitive_array_critical`].
    pub fn critical<'e>(&'e self, a: &ArrayRef) -> Result<CriticalGuard<'e, 'a>> {
        let elems = self.get_primitive_array_critical(a)?;
        Ok(CriticalGuard::for_array(self, a.clone(), elems))
    }

    /// `GetStringCritical` as an RAII guard; see [`Self::critical`].
    ///
    /// # Errors
    ///
    /// See [`Self::get_string_critical`].
    pub fn string_critical<'e>(&'e self, s: &StringRef) -> Result<CriticalGuard<'e, 'a>> {
        let chars = self.get_string_critical(s)?;
        Ok(CriticalGuard::for_string(self, s.clone(), chars))
    }

    /// `ReleasePrimitiveArrayCritical`.
    ///
    /// # Errors
    ///
    /// [`JniError::CheckJniAbort`] if the scheme detects corruption;
    /// [`JniError::StaleRelease`] for a pointer that was never acquired.
    pub fn release_primitive_array_critical(
        &self,
        a: &ArrayRef,
        elems: NativeArray,
        mode: ReleaseMode,
    ) -> Result<()> {
        let slot =
            match self.find_borrow(elems.ptr(), JniInterface::PrimitiveArrayCritical, a.addr()) {
                Ok(slot) => slot,
                Err(e) => {
                    return self.trace_release(
                        elems.ptr(),
                        a.addr(),
                        JniInterface::PrimitiveArrayCritical,
                        mode,
                        Err(e),
                    )
                }
            };
        let result = self.release_scheme(
            slot,
            a.as_object(),
            elems.ptr(),
            JniInterface::PrimitiveArrayCritical,
            mode,
        );
        let result = self.trace_release(
            elems.ptr(),
            a.addr(),
            JniInterface::PrimitiveArrayCritical,
            mode,
            result,
        );
        if mode != ReleaseMode::Commit {
            self.critical_depth
                .set(self.critical_depth.get().saturating_sub(1));
        }
        result
    }

    /// `GetStringCritical`: exposes the string's UTF-16 payload.
    ///
    /// # Errors
    ///
    /// See [`Self::get_primitive_array_critical`].
    pub fn get_string_critical(&self, s: &StringRef) -> Result<NativeArray> {
        let out = self.acquire_raw(s.as_object(), s.addr(), JniInterface::StringCritical)?;
        self.critical_depth.set(self.critical_depth.get() + 1);
        Ok(NativeArray::new(out.ptr, s.len(), PrimitiveType::Char, out.is_copy))
    }

    /// `ReleaseStringCritical`.
    ///
    /// # Errors
    ///
    /// See [`Self::release_primitive_array_critical`].
    pub fn release_string_critical(&self, s: &StringRef, chars: NativeArray) -> Result<()> {
        let slot = match self.find_borrow(chars.ptr(), JniInterface::StringCritical, s.addr()) {
            Ok(slot) => slot,
            Err(e) => {
                return self.trace_release(
                    chars.ptr(),
                    s.addr(),
                    JniInterface::StringCritical,
                    ReleaseMode::Abort,
                    Err(e),
                )
            }
        };
        let result = self.release_scheme(
            slot,
            s.as_object(),
            chars.ptr(),
            JniInterface::StringCritical,
            ReleaseMode::Abort, // strings are immutable: never copy back
        );
        let result = self.trace_release(
            chars.ptr(),
            s.addr(),
            JniInterface::StringCritical,
            ReleaseMode::Abort,
            result,
        );
        self.critical_depth
            .set(self.critical_depth.get().saturating_sub(1));
        result
    }

    // ------------------------------------------------------------------
    // String chars interfaces (Table 1, rows 3–4)
    // ------------------------------------------------------------------

    /// `GetStringChars`: exposes the UTF-16 payload (non-critical).
    ///
    /// # Errors
    ///
    /// Scheme acquisition failure, or use inside a critical section.
    pub fn get_string_chars(&self, s: &StringRef) -> Result<NativeArray> {
        self.ensure_not_critical("GetStringChars")?;
        let out = self.acquire_raw(s.as_object(), s.addr(), JniInterface::StringChars)?;
        Ok(NativeArray::new(out.ptr, s.len(), PrimitiveType::Char, out.is_copy))
    }

    /// `ReleaseStringChars`.
    ///
    /// # Errors
    ///
    /// See [`Self::release_primitive_array_critical`].
    pub fn release_string_chars(&self, s: &StringRef, chars: NativeArray) -> Result<()> {
        self.ensure_not_critical("ReleaseStringChars")?;
        self.release_raw(
            s.as_object(),
            s.addr(),
            chars.ptr(),
            JniInterface::StringChars,
            ReleaseMode::Abort,
        )
    }

    /// `GetStringUTFChars`: transcodes to modified UTF-8 in a heap-side
    /// buffer (plus NUL terminator) and exposes that buffer through the
    /// protection scheme.
    ///
    /// # Errors
    ///
    /// Heap exhaustion, scheme acquisition failure, or use inside a
    /// critical section.
    pub fn get_string_utf_chars(&self, s: &StringRef) -> Result<NativeUtf> {
        self.ensure_not_critical("GetStringUTFChars")?;
        let mut utf = encode_modified_utf8(&self.string_units(s)?);
        let utf_len = utf.len();
        utf.push(0); // C string terminator
        let heap = self.vm.heap();
        let backing = heap.alloc_byte_array(utf.len())?;
        heap.write_payload(backing.as_object(), &utf)?;
        // The scheme guards the transcoding buffer, but the borrow records
        // the *source string* as its identity so CheckJNI can validate the
        // string the caller passes back.
        let out = self.acquire_raw(backing.as_object(), s.addr(), JniInterface::StringUtfChars)?;
        Ok(NativeUtf::new(out.ptr, utf_len, out.is_copy, backing))
    }

    /// `ReleaseStringUTFChars`: verifies/releases through the scheme and
    /// frees the transcoding buffer. Under CheckJNI, `s` must be the
    /// string the chars were acquired from — releasing against a
    /// different string is an abort.
    ///
    /// # Errors
    ///
    /// See [`Self::release_primitive_array_critical`].
    pub fn release_string_utf_chars(&self, s: &StringRef, utf: NativeUtf) -> Result<()> {
        self.ensure_not_critical("ReleaseStringUTFChars")?;
        let result = self.release_raw(
            utf.backing.as_object(),
            s.addr(),
            utf.ptr(),
            JniInterface::StringUtfChars,
            ReleaseMode::Abort,
        );
        drop(utf); // the buffer becomes garbage for the next sweep
        result
    }

    // ------------------------------------------------------------------
    // Trampolines (paper §3.3 / §4.3)
    // ------------------------------------------------------------------

    /// Invokes a native method through the simulated trampoline.
    ///
    /// The trampoline (1) pushes a stack frame for fault reports, (2)
    /// performs the managed→native state transition for [`NativeKind::Normal`]
    /// methods, (3) clears `TCO` when the protection scheme requests
    /// thread-level MTE (except for `@CriticalNative`), and undoes all of
    /// it on return. A latched asynchronous fault surfaces at the return
    /// transition, the first kernel entry after the corrupting access.
    ///
    /// # Errors
    ///
    /// Whatever `body` returns, or the surfaced asynchronous
    /// [`mte_sim::TagCheckFault`]. Under
    /// [`FaultPolicy::Contain`](crate::FaultPolicy::Contain) a tag-check
    /// fault (sync or surfaced-async) is converted to
    /// [`JniError::ContainedFault`] after the tombstone is written and
    /// leaked borrows are reclaimed.
    pub fn call_native<R>(
        &self,
        name: &'static str,
        kind: NativeKind,
        body: impl FnOnce(&JniEnv<'a>) -> Result<R>,
    ) -> Result<R> {
        trace::emit(|| TraceEvent::CallEnter {
            method: name.to_owned(),
            kind: tracecode::kind_code(kind),
        });
        let started = telemetry::start_timing();
        let mte = self.thread.mte();
        let frame = mte.push_frame(name, "libapp.so");
        let tco_control = self.vm.protection().uses_thread_mte() && kind.wants_mte_checking();
        if kind.transitions_state() {
            self.thread.transition_to_native();
        }
        if tco_control {
            mte.set_tco(false); // enable tag checking for the native section
            telemetry::record(Event::TcoToggle);
        }
        // Containment bookmarks: everything acquired past these marks
        // belongs to this native frame and is reclaimed if it faults.
        let prev_native = self.current_native.replace(Some(name));
        let borrow_mark = self.borrows.borrow().len();
        let depth_mark = self.critical_depth.get();
        // Undo the transitions from a drop guard so a panic inside `body`
        // (unwinding past live `CriticalGuard`s, which auto-release) still
        // restores `TCO` and the managed state, in the same order as a
        // normal return.
        struct Restore<'e, 'a> {
            env: &'e JniEnv<'a>,
            tco_control: bool,
            transitions: bool,
            prev_native: Option<&'static str>,
        }
        impl Drop for Restore<'_, '_> {
            fn drop(&mut self) {
                self.env.current_native.set(self.prev_native);
                let mte = self.env.thread.mte();
                if self.tco_control {
                    mte.set_tco(true); // back to unchecked managed execution
                    telemetry::record(Event::TcoToggle);
                }
                if self.transitions {
                    self.env.thread.transition_to_managed();
                }
            }
        }
        let restore = Restore {
            env: self,
            tco_control,
            transitions: kind.transitions_state(),
            prev_native,
        };
        let result = body(self);
        drop(restore);
        drop(frame);
        // The return transition is the first kernel entry after native
        // code ran: surface any latched asynchronous fault here.
        let pending = mte.syscall("art_jni_method_end");
        if let Some(t0) = started {
            let elapsed = t0.elapsed();
            self.vm.trampoline_latency(kind).record(elapsed);
        }
        let result = match (result, pending) {
            (Err(e), _) => Err(self.handle_native_error(name, e, borrow_mark, depth_mark)),
            (Ok(_), Err(fault)) => {
                Err(self.handle_native_error(name, fault.into(), borrow_mark, depth_mark))
            }
            (Ok(v), Ok(())) => Ok(v),
        };
        trace::emit(|| TraceEvent::CallExit {
            outcome: tracecode::result_outcome(&result),
        });
        result
    }

    /// Attribution and containment for an error leaving the trampoline.
    /// Always attributes tag-check faults to the nearest live borrow;
    /// under [`FaultPolicy::Contain`] additionally tombstones the fault,
    /// reclaims the frame's leaked borrows, and swaps the error for
    /// [`JniError::ContainedFault`]. Errors that are not live tag-check
    /// faults — including already-contained faults from a nested
    /// trampoline — pass through unchanged.
    fn handle_native_error(
        &self,
        name: &'static str,
        e: JniError,
        borrow_mark: usize,
        depth_mark: u32,
    ) -> JniError {
        let e = self.attribute_fault(e);
        if self.vm.config().fault_policy != FaultPolicy::Contain {
            return e;
        }
        let fault = match e.as_tag_check() {
            Some(fault) => fault.clone(),
            None => return e,
        };
        let released = self.release_leaked_borrows(borrow_mark);
        self.critical_depth.set(depth_mark);
        self.vm.containment().record_contained(
            name,
            self.vm.protection().name().to_owned(),
            fault.clone(),
            released,
        );
        JniError::ContainedFault {
            method: name,
            fault: Box::new(fault),
        }
    }

    /// Fills in the fault's interface/scheme attribution from the
    /// live-borrow log: an illicit access usually sits just past (or
    /// just before) the borrow it escaped, so the nearest handed-out
    /// pointer names the Table-1 interface for the tombstone.
    fn attribute_fault(&self, mut e: JniError) -> JniError {
        let fault = match &mut e {
            JniError::Mem(MemError::TagCheck(f)) => Some(f),
            JniError::Heap(HeapError::Mem(MemError::TagCheck(f))) => Some(f),
            _ => None,
        };
        if let Some(fault) = fault {
            if fault.attribution.is_none() {
                let addr = fault.pointer.addr();
                let borrows = self.borrows.borrow();
                if let Some(b) = borrows.iter().min_by_key(|b| b.ptr.addr().abs_diff(addr)) {
                    fault.attribution = Some(FaultAttribution {
                        interface: b.interface,
                        scheme: self.scheme_for(b.via_fallback).name().to_owned().into(),
                    });
                }
            }
        }
        e
    }

    /// Writes to the simulated logcat — a syscall, and therefore the
    /// surfacing point for latched asynchronous faults (Figure 4c shows
    /// the `getuid` call inside `LogdWrite`).
    ///
    /// # Errors
    ///
    /// The surfaced asynchronous fault, if one was latched.
    pub fn log(&self, _message: &str) -> Result<()> {
        let mte = self.thread.mte();
        let _frame = mte.push_frame("LogdWrite+180", "liblog.so");
        mte.syscall("getuid")?;
        Ok(())
    }
}

impl Drop for JniEnv<'_> {
    fn drop(&mut self) {
        // An environment dropped with live borrows — a tenant evicted
        // mid-flight, or a thread detached inside a critical section —
        // must push them through the release funnel while the heap is
        // still alive, or pins and tag-table entries leak permanently.
        // Explicit callers use `force_release_borrows`; this is the
        // RAII backstop that makes teardown ordering safe by default.
        if !self.borrows.borrow().is_empty() {
            self.force_release_borrows();
        }
    }
}

impl fmt::Debug for JniEnv<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JniEnv")
            .field("thread", &self.thread.name())
            .field("scheme", &self.vm.protection().name())
            .field("critical_depth", &self.critical_depth.get())
            .finish()
    }
}

macro_rules! typed_array_interfaces {
    (
        $prim:expr, $rust:ty, $size:expr,
        $new:ident, $new_from:ident,
        $get_elems:ident, $release_elems:ident,
        $get_region:ident, $set_region:ident,
        $heap_alloc:ident, $heap_alloc_from:ident,
        $get_name:literal
    ) => {
        impl<'a> JniEnv<'a> {
            #[doc = concat!("`New", $get_name, "Array`: allocates a zero-filled array.")]
            ///
            /// # Errors
            ///
            /// Heap exhaustion, or use inside a critical section.
            pub fn $new(&self, len: usize) -> Result<ArrayRef> {
                self.ensure_not_critical(concat!("New", $get_name, "Array"))?;
                let a = self.vm.heap().$heap_alloc(len)?;
                trace::emit(|| TraceEvent::AllocArray {
                    addr: a.addr(),
                    elem: tracecode::elem_code($prim),
                    len: len as u64,
                });
                Ok(a)
            }

            /// Allocates an array initialized from `values` (managed-side
            /// convenience, equivalent to `New…Array` + `Set…ArrayRegion`).
            ///
            /// # Errors
            ///
            /// Heap exhaustion, or use inside a critical section.
            pub fn $new_from(&self, values: &[$rust]) -> Result<ArrayRef> {
                self.ensure_not_critical(concat!("New", $get_name, "Array"))?;
                let a = self.vm.heap().$heap_alloc_from(values)?;
                trace::emit(|| TraceEvent::AllocArray {
                    addr: a.addr(),
                    elem: tracecode::elem_code($prim),
                    len: values.len() as u64,
                });
                Ok(a)
            }

            #[doc = concat!("`Get", $get_name, "ArrayElements` (Table 1, row 5).")]
            ///
            /// # Errors
            ///
            /// [`JniError::WrongObjectType`] for a mismatched element type;
            /// scheme acquisition failures; use inside a critical section.
            pub fn $get_elems(&self, a: &ArrayRef) -> Result<NativeArray> {
                self.ensure_not_critical(concat!("Get", $get_name, "ArrayElements"))?;
                if a.element_type() != $prim {
                    return Err(JniError::WrongObjectType {
                        interface: concat!("Get", $get_name, "ArrayElements"),
                    });
                }
                let out = self.acquire_raw(a.as_object(), a.addr(), JniInterface::ArrayElements)?;
                Ok(NativeArray::new(out.ptr, a.len(), $prim, out.is_copy))
            }

            #[doc = concat!("`Release", $get_name, "ArrayElements`.")]
            ///
            /// # Errors
            ///
            /// See [`Self::release_primitive_array_critical`].
            pub fn $release_elems(
                &self,
                a: &ArrayRef,
                elems: NativeArray,
                mode: ReleaseMode,
            ) -> Result<()> {
                self.ensure_not_critical(concat!("Release", $get_name, "ArrayElements"))?;
                self.release_raw(
                    a.as_object(),
                    a.addr(),
                    elems.ptr(),
                    JniInterface::ArrayElements,
                    mode,
                )
            }

            #[doc = concat!("`Get", $get_name, "ArrayRegion` (Table 1, row 6): bounds-checked copy out.")]
            ///
            /// # Errors
            ///
            /// [`HeapError::IndexOutOfBounds`] (the JVM-side
            /// `ArrayIndexOutOfBoundsException`) when the region exceeds the
            /// array; [`JniError::WrongObjectType`] for a wrong element type.
            pub fn $get_region(
                &self,
                a: &ArrayRef,
                start: usize,
                out: &mut [$rust],
            ) -> Result<()> {
                self.ensure_not_critical(concat!("Get", $get_name, "ArrayRegion"))?;
                let result = (|| {
                    self.region_bounds(a, $prim, start, out.len(), concat!("Get", $get_name, "ArrayRegion"))?;
                    telemetry::record(Event::Acquire { interface: JniInterface::ArrayRegion });
                    let mut bytes = vec![0u8; out.len() * $size];
                    let ptr = TaggedPtr::from_addr(a.data_addr() + (start * $size) as u64);
                    self.vm
                        .heap()
                        .memory()
                        .read_bytes_unchecked(ptr, &mut bytes)
                        .map_err(HeapError::from)?;
                    for (i, chunk) in bytes.chunks_exact($size).enumerate() {
                        out[i] = <$rust>::from_le_bytes(chunk.try_into().expect("chunk size"));
                    }
                    Ok(())
                })();
                trace::emit(|| TraceEvent::Region {
                    obj: a.addr(),
                    interface: JniInterface::ArrayRegion.index(),
                    start: start as u64,
                    len: out.len() as u64,
                    write: false,
                    outcome: tracecode::result_outcome(&result),
                });
                result
            }

            #[doc = concat!("`Set", $get_name, "ArrayRegion`: bounds-checked copy in.")]
            ///
            /// # Errors
            ///
            /// See the corresponding region read.
            pub fn $set_region(
                &self,
                a: &ArrayRef,
                start: usize,
                values: &[$rust],
            ) -> Result<()> {
                self.ensure_not_critical(concat!("Set", $get_name, "ArrayRegion"))?;
                let result = (|| {
                    self.region_bounds(a, $prim, start, values.len(), concat!("Set", $get_name, "ArrayRegion"))?;
                    telemetry::record(Event::Acquire { interface: JniInterface::ArrayRegion });
                    let mut bytes = Vec::with_capacity(values.len() * $size);
                    for v in values {
                        bytes.extend_from_slice(&v.to_le_bytes());
                    }
                    let ptr = TaggedPtr::from_addr(a.data_addr() + (start * $size) as u64);
                    self.vm
                        .heap()
                        .memory()
                        .write_bytes_unchecked(ptr, &bytes)
                        .map_err(HeapError::from)?;
                    Ok(())
                })();
                trace::emit(|| TraceEvent::Region {
                    obj: a.addr(),
                    interface: JniInterface::ArrayRegion.index(),
                    start: start as u64,
                    len: values.len() as u64,
                    write: true,
                    outcome: tracecode::result_outcome(&result),
                });
                result
            }
        }
    };
}

impl JniEnv<'_> {
    fn region_bounds(
        &self,
        a: &ArrayRef,
        expected: PrimitiveType,
        start: usize,
        len: usize,
        interface: &'static str,
    ) -> Result<()> {
        if a.element_type() != expected {
            return Err(JniError::WrongObjectType { interface });
        }
        let end = start.checked_add(len);
        match end {
            Some(end) if end <= a.len() => Ok(()),
            _ => Err(JniError::Heap(HeapError::IndexOutOfBounds {
                index: start.saturating_add(len),
                length: a.len(),
            })),
        }
    }
}

// i8/u8/u16/... `to_le_bytes`/`from_le_bytes` exist on all of these.
typed_array_interfaces!(
    PrimitiveType::Byte, i8, 1,
    new_byte_array, new_byte_array_from,
    get_byte_array_elements, release_byte_array_elements,
    get_byte_array_region, set_byte_array_region,
    alloc_byte_array, alloc_byte_array_from, "Byte"
);
typed_array_interfaces!(
    PrimitiveType::Char, u16, 2,
    new_char_array, new_char_array_from,
    get_char_array_elements, release_char_array_elements,
    get_char_array_region, set_char_array_region,
    alloc_char_array, alloc_char_array_from, "Char"
);
typed_array_interfaces!(
    PrimitiveType::Short, i16, 2,
    new_short_array, new_short_array_from,
    get_short_array_elements, release_short_array_elements,
    get_short_array_region, set_short_array_region,
    alloc_short_array, alloc_short_array_from, "Short"
);
typed_array_interfaces!(
    PrimitiveType::Int, i32, 4,
    new_int_array, new_int_array_from,
    get_int_array_elements, release_int_array_elements,
    get_int_array_region, set_int_array_region,
    alloc_int_array, alloc_int_array_from, "Int"
);
typed_array_interfaces!(
    PrimitiveType::Long, i64, 8,
    new_long_array, new_long_array_from,
    get_long_array_elements, release_long_array_elements,
    get_long_array_region, set_long_array_region,
    alloc_long_array, alloc_long_array_from, "Long"
);
typed_array_interfaces!(
    PrimitiveType::Float, f32, 4,
    new_float_array, new_float_array_from,
    get_float_array_elements, release_float_array_elements,
    get_float_array_region, set_float_array_region,
    alloc_float_array, alloc_float_array_from, "Float"
);
typed_array_interfaces!(
    PrimitiveType::Double, f64, 8,
    new_double_array, new_double_array_from,
    get_double_array_elements, release_double_array_elements,
    get_double_array_region, set_double_array_region,
    alloc_double_array, alloc_double_array_from, "Double"
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protection::ReleaseMode;

    fn vm() -> Vm {
        Vm::builder().build()
    }

    #[test]
    fn critical_round_trip_no_protection() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array_from(&[10, 20, 30]).unwrap();
        let elems = env.get_primitive_array_critical(&a).unwrap();
        assert_eq!(env.critical_depth(), 1);
        assert!(!elems.is_copy());
        let mem = env.native_mem();
        assert_eq!(elems.read_i32(&mem, 1).unwrap(), 20);
        elems.write_i32(&mem, 1, 99).unwrap();
        env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
            .unwrap();
        assert_eq!(env.critical_depth(), 0);
        assert_eq!(vm.heap().int_at(&t, &a, 1).unwrap(), 99);
    }

    #[test]
    fn jni_calls_forbidden_inside_critical_section() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array(4).unwrap();
        let elems = env.get_primitive_array_critical(&a).unwrap();
        assert!(matches!(
            env.new_int_array(4),
            Err(JniError::CriticalViolation { .. })
        ));
        assert!(matches!(
            env.get_int_array_elements(&a),
            Err(JniError::CriticalViolation { .. })
        ));
        env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
            .unwrap();
        assert!(env.new_int_array(4).is_ok());
    }

    #[test]
    fn elements_type_checked() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_byte_array(4).unwrap();
        assert!(matches!(
            env.get_int_array_elements(&a),
            Err(JniError::WrongObjectType { .. })
        ));
        let elems = env.get_byte_array_elements(&a).unwrap();
        env.release_byte_array_elements(&a, elems, ReleaseMode::Abort)
            .unwrap();
    }

    #[test]
    fn regions_are_bounds_checked_copies() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array_from(&[1, 2, 3, 4, 5]).unwrap();
        let mut out = [0i32; 3];
        env.get_int_array_region(&a, 1, &mut out).unwrap();
        assert_eq!(out, [2, 3, 4]);
        env.set_int_array_region(&a, 2, &[70, 80]).unwrap();
        assert_eq!(vm.heap().int_array_as_vec(&t, &a).unwrap(), vec![1, 2, 70, 80, 5]);
        // Region past the end: caught by the JVM, unlike raw pointers.
        let mut big = [0i32; 6];
        assert!(matches!(
            env.get_int_array_region(&a, 0, &mut big),
            Err(JniError::Heap(HeapError::IndexOutOfBounds { .. }))
        ));
        assert!(env.set_int_array_region(&a, 4, &[1, 2]).is_err());
    }

    #[test]
    fn region_overflow_does_not_wrap() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array(4).unwrap();
        let mut out = [0i32; 2];
        assert!(env.get_int_array_region(&a, usize::MAX, &mut out).is_err());
    }

    #[test]
    fn string_chars_round_trip() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let s = env.new_string("héllo").unwrap();
        assert_eq!(env.get_string_length(&s), 5);
        let chars = env.get_string_chars(&s).unwrap();
        let mem = env.native_mem();
        let units: Vec<u16> = (0..5).map(|i| chars.read_u16(&mem, i).unwrap()).collect();
        assert_eq!(String::from_utf16(&units).unwrap(), "héllo");
        env.release_string_chars(&s, chars).unwrap();
    }

    #[test]
    fn string_utf_chars_is_nul_terminated_modified_utf8() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let s = env.new_string("aé😀").unwrap();
        let utf = env.get_string_utf_chars(&s).unwrap();
        assert_eq!(env.get_string_utf_length(&s).unwrap(), utf.utf_len());
        let mem = env.native_mem();
        let bytes = utf.read_c_string(&mem).unwrap();
        assert_eq!(bytes.len(), utf.utf_len());
        assert_eq!(bytes, art_heap::encode_modified_utf8(&art_heap::utf16_units("aé😀")));
        env.release_string_utf_chars(&s, utf).unwrap();
        // The hidden transcoding buffer becomes garbage.
        vm.heap().sweep();
    }

    #[test]
    fn string_critical_reads_utf16_payload() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let s = env.new_string("AB").unwrap();
        let chars = env.get_string_critical(&s).unwrap();
        assert_eq!(env.critical_depth(), 1);
        let mem = env.native_mem();
        assert_eq!(chars.read_u16(&mem, 0).unwrap(), u16::from(b'A'));
        env.release_string_critical(&s, chars).unwrap();
        assert_eq!(env.critical_depth(), 0);
    }

    #[test]
    fn call_native_transitions_and_restores_state() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        env.call_native("probe", NativeKind::Normal, |env| {
            assert_eq!(env.thread().state(), art_heap::ThreadState::Native);
            assert_eq!(env.thread().mte().backtrace().len(), 1);
            Ok(())
        })
        .unwrap();
        assert_eq!(t.state(), art_heap::ThreadState::Managed);
        assert!(t.mte().backtrace().is_empty());
    }

    #[test]
    fn fast_native_skips_state_transition() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        env.call_native("probe", NativeKind::FastNative, |env| {
            assert_eq!(env.thread().state(), art_heap::ThreadState::Managed);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn native_oob_write_succeeds_silently_without_protection() {
        // The §5.2 scenario under "no protection": an 18-int array written
        // at index 21 corrupts memory and nobody notices.
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array(18).unwrap();
        env.call_native("test_ofb", NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&a)?;
            let mem = env.native_mem();
            elems.write_i32(&mem, 21, 0xBAD)?; // out of bounds, undetected
            env.release_primitive_array_critical(&a, elems, ReleaseMode::CopyBack)
        })
        .unwrap();
    }

    #[test]
    fn commit_keeps_critical_section_open() {
        let vm = vm();
        let t = vm.attach_thread("main");
        let env = vm.env(&t);
        let a = env.new_int_array(4).unwrap();
        let elems = env.get_primitive_array_critical(&a).unwrap();
        let ptr_copy = elems.ptr();
        env.release_primitive_array_critical(&a, elems, ReleaseMode::Commit)
            .unwrap();
        assert_eq!(env.critical_depth(), 1, "JNI_COMMIT does not end the borrow");
        env.release_primitive_array_critical(
            &a,
            NativeArray::new(ptr_copy, 4, PrimitiveType::Int, false),
            ReleaseMode::CopyBack,
        )
        .unwrap();
        assert_eq!(env.critical_depth(), 0);
    }
}
