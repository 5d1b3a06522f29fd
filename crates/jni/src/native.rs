//! The native-code view of memory: raw pointers with no JVM safety checks.
//!
//! Everything here deliberately performs **no bounds checking** — a
//! [`NativeArray`] accepts any index, positive or negative, exactly like a
//! C pointer. The only thing standing between a buggy index and silent
//! heap corruption is the simulated MTE hardware check, which fires only
//! when a protection scheme tagged the memory and enabled checking on the
//! thread.

use std::fmt;

use art_heap::{ArrayRef, PrimitiveType};
use mte_sim::{MemError, MteThread, TaggedMemory, TaggedPtr};
use telemetry::trace::{self, TraceEvent};

use crate::tracecode;

/// A native code's window onto the simulated memory: the pair of the
/// memory and the executing thread's MTE state.
///
/// Obtain one from [`JniEnv::native_mem`]; all accesses through it follow
/// the thread's current check mode and `TCO` state.
///
/// [`JniEnv::native_mem`]: crate::JniEnv::native_mem
#[derive(Clone, Copy)]
pub struct NativeMem<'a> {
    memory: &'a TaggedMemory,
    mte: &'a MteThread,
}

macro_rules! scalar_access {
    ($read:ident, $write:ident, $ty:ty, $load:ident, $store:ident, $decode:expr, $encode:expr, $doc:literal) => {
        #[doc = concat!("Reads a `", $doc, "` at `ptr` (no bounds check; tag-checked).")]
        ///
        /// # Errors
        ///
        /// [`MemError::TagCheck`] on a synchronous tag mismatch;
        /// [`MemError::OutOfRange`] outside the simulated memory.
        #[inline]
        pub fn $read(&self, ptr: TaggedPtr) -> Result<$ty, MemError> {
            self.memory.$load(self.mte, ptr).map($decode)
        }

        #[doc = concat!("Writes a `", $doc, "` at `ptr` (no bounds check; tag-checked).")]
        ///
        /// # Errors
        ///
        /// See the corresponding read method.
        #[inline]
        pub fn $write(&self, ptr: TaggedPtr, value: $ty) -> Result<(), MemError> {
            self.memory.$store(self.mte, ptr, $encode(value))
        }
    };
}

impl<'a> NativeMem<'a> {
    pub(crate) fn new(memory: &'a TaggedMemory, mte: &'a MteThread) -> NativeMem<'a> {
        NativeMem { memory, mte }
    }

    /// The executing thread's MTE state.
    pub fn thread(&self) -> &'a MteThread {
        self.mte
    }

    scalar_access!(read_u8, write_u8, u8, load_u8, store_u8, |v| v, |v| v, "u8");
    scalar_access!(read_i8, write_i8, i8, load_u8, store_u8, |v: u8| v as i8, |v: i8| v as u8, "i8 (jbyte)");
    scalar_access!(read_u16, write_u16, u16, load_u16, store_u16, |v| v, |v| v, "u16 (jchar)");
    scalar_access!(read_i16, write_i16, i16, load_u16, store_u16, |v: u16| v as i16, |v: i16| v as u16, "i16 (jshort)");
    scalar_access!(read_i32, write_i32, i32, load_u32, store_u32, |v: u32| v as i32, |v: i32| v as u32, "i32 (jint)");
    scalar_access!(read_u32, write_u32, u32, load_u32, store_u32, |v| v, |v| v, "u32");
    scalar_access!(read_i64, write_i64, i64, load_u64, store_u64, |v: u64| v as i64, |v: i64| v as u64, "i64 (jlong)");
    scalar_access!(read_f32, write_f32, f32, load_u32, store_u32, f32::from_bits, |v: f32| v.to_bits(), "f32 (jfloat)");
    scalar_access!(read_f64, write_f64, f64, load_u64, store_u64, f64::from_bits, |v: f64| v.to_bits(), "f64 (jdouble)");

    /// Bulk read (tag-checked per granule).
    ///
    /// # Errors
    ///
    /// See [`Self::read_u8`].
    pub fn read_bytes(&self, ptr: TaggedPtr, buf: &mut [u8]) -> Result<(), MemError> {
        self.memory.read_bytes(self.mte, ptr, buf)
    }

    /// Bulk write (tag-checked per granule).
    ///
    /// # Errors
    ///
    /// See [`Self::read_u8`].
    pub fn write_bytes(&self, ptr: TaggedPtr, buf: &[u8]) -> Result<(), MemError> {
        self.memory.write_bytes(self.mte, ptr, buf)
    }

    /// Bulk fill — the native `memset` over an acquired buffer
    /// (tag-checked per granule, word-wide like the other bulk paths).
    ///
    /// # Errors
    ///
    /// See [`Self::read_u8`].
    pub fn fill(&self, ptr: TaggedPtr, len: usize, value: u8) -> Result<(), MemError> {
        self.memory.fill(self.mte, ptr, len, value)
    }
}

impl fmt::Debug for NativeMem<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeMem")
            .field("thread", &self.mte.name())
            .finish()
    }
}

macro_rules! array_access {
    ($read:ident, $write:ident, $ty:ty, $mem_read:ident, $mem_write:ident, $size:expr, $bits:expr, $doc:literal) => {
        #[doc = concat!("Reads element `index` as `", $doc, "`.")]
        ///
        /// `index` is **not** bounds checked and may be negative — this is
        /// raw pointer arithmetic, as in native C code, and it wraps: an
        /// index whose byte offset overflows reaches some other address.
        ///
        /// # Errors
        ///
        /// [`MemError::TagCheck`] when the derived pointer's inherited tag
        /// mismatches the accessed granule's memory tag (sync mode);
        /// [`MemError::OutOfRange`] outside the simulated memory.
        // Always inlined, with the one-word path below it, so a native
        // element loop makes no call per access (DESIGN.md §10).
        #[inline(always)]
        pub fn $read(&self, mem: &NativeMem<'_>, index: isize) -> Result<$ty, MemError> {
            let offset = (index as i64).wrapping_mul($size);
            let r = mem.$mem_read(self.ptr.wrapping_offset(offset));
            trace::emit(|| TraceEvent::Access {
                base: self.ptr.raw(),
                offset,
                width: $size as u8,
                write: false,
                value: 0,
                outcome: tracecode::mem_result_outcome(&r),
            });
            r
        }

        #[doc = concat!("Writes element `index` as `", $doc, "` (no bounds check).")]
        ///
        /// # Errors
        ///
        /// See the corresponding read method.
        #[inline(always)]
        pub fn $write(
            &self,
            mem: &NativeMem<'_>,
            index: isize,
            value: $ty,
        ) -> Result<(), MemError> {
            let offset = (index as i64).wrapping_mul($size);
            let r = mem.$mem_write(self.ptr.wrapping_offset(offset), value);
            trace::emit(|| TraceEvent::Access {
                base: self.ptr.raw(),
                offset,
                width: $size as u8,
                write: true,
                value: ($bits)(value),
                outcome: tracecode::mem_result_outcome(&r),
            });
            r
        }
    };
}

/// The raw array pointer a `Get*` JNI interface hands to native code.
///
/// Carries the advertised element count purely as information — none of
/// the accessors consult it.
#[derive(Clone, Debug)]
pub struct NativeArray {
    ptr: TaggedPtr,
    len: usize,
    elem: PrimitiveType,
    is_copy: bool,
}

impl NativeArray {
    /// Reconstructs an array view from a raw pointer — what C code does
    /// when it stashes the pointer returned by a `Get*` interface (for
    /// example across a `JNI_COMMIT` release).
    pub fn new(ptr: TaggedPtr, len: usize, elem: PrimitiveType, is_copy: bool) -> NativeArray {
        NativeArray { ptr, len, elem, is_copy }
    }

    /// The raw (possibly tagged) pointer.
    pub fn ptr(&self) -> TaggedPtr {
        self.ptr
    }

    /// Advertised element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the advertised length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element type the interface advertised.
    pub fn element_type(&self) -> PrimitiveType {
        self.elem
    }

    /// The JNI `isCopy` flag value.
    pub fn is_copy(&self) -> bool {
        self.is_copy
    }

    array_access!(read_i8, write_i8, i8, read_i8, write_i8, 1, |v: i8| v as u8 as u64, "jbyte");
    array_access!(read_u8, write_u8, u8, read_u8, write_u8, 1, |v: u8| v as u64, "u8");
    array_access!(read_u16, write_u16, u16, read_u16, write_u16, 2, |v: u16| v as u64, "jchar");
    array_access!(read_i16, write_i16, i16, read_i16, write_i16, 2, |v: i16| v as u16 as u64, "jshort");
    array_access!(read_i32, write_i32, i32, read_i32, write_i32, 4, |v: i32| v as u32 as u64, "jint");
    array_access!(read_i64, write_i64, i64, read_i64, write_i64, 8, |v: i64| v as u64, "jlong");
    array_access!(read_f32, write_f32, f32, read_f32, write_f32, 4, |v: f32| v.to_bits() as u64, "jfloat");
    array_access!(read_f64, write_f64, f64, read_f64, write_f64, 8, |v: f64| v.to_bits(), "jdouble");
}

/// The buffer returned by `GetStringUTFChars`: modified UTF-8 bytes plus a
/// terminating NUL, backed by a hidden heap buffer so protection schemes
/// apply to it like any other payload.
#[derive(Clone, Debug)]
pub struct NativeUtf {
    ptr: TaggedPtr,
    utf_len: usize,
    is_copy: bool,
    pub(crate) backing: ArrayRef,
}

impl NativeUtf {
    pub(crate) fn new(ptr: TaggedPtr, utf_len: usize, is_copy: bool, backing: ArrayRef) -> NativeUtf {
        NativeUtf { ptr, utf_len, is_copy, backing }
    }

    /// The raw pointer to the first UTF byte.
    pub fn ptr(&self) -> TaggedPtr {
        self.ptr
    }

    /// Length in bytes, excluding the terminating NUL.
    pub fn utf_len(&self) -> usize {
        self.utf_len
    }

    /// The JNI `isCopy` flag value.
    pub fn is_copy(&self) -> bool {
        self.is_copy
    }

    /// Reads byte `index` (no bounds check; tag-checked).
    ///
    /// # Errors
    ///
    /// See [`NativeMem::read_u8`].
    pub fn read_byte(&self, mem: &NativeMem<'_>, index: isize) -> Result<u8, MemError> {
        let r = mem.read_u8(self.ptr.wrapping_offset(index as i64));
        trace::emit(|| TraceEvent::Access {
            base: self.ptr.raw(),
            offset: index as i64,
            width: 1,
            write: false,
            value: 0,
            outcome: tracecode::mem_result_outcome(&r),
        });
        r
    }

    /// Reads the whole string the way C code would: byte by byte until the
    /// NUL terminator.
    ///
    /// # Errors
    ///
    /// See [`NativeMem::read_u8`].
    pub fn read_c_string(&self, mem: &NativeMem<'_>) -> Result<Vec<u8>, MemError> {
        let mut out = Vec::with_capacity(self.utf_len);
        let mut i = 0i64;
        let result = loop {
            match mem.read_u8(self.ptr.wrapping_offset(i)) {
                Ok(0) => break Ok(out),
                Ok(b) => {
                    out.push(b);
                    i += 1;
                }
                Err(e) => break Err(e),
            }
        };
        trace::emit(|| TraceEvent::CStr {
            base: self.ptr.raw(),
            len: i as u64,
            outcome: tracecode::mem_result_outcome(&result),
        });
        result
    }
}
