//! Handles to Java heap objects.
//!
//! A handle is the managed world's *reference*: cloning it models another
//! reference to the same object, and an object becomes garbage once every
//! handle to it has been dropped (collected by the next [`Heap::sweep`]).
//!
//! [`Heap::sweep`]: crate::Heap::sweep

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::heap::HEADER_SIZE;
use crate::types::PrimitiveType;

/// What kind of object a handle refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObjKind {
    /// A primitive array with the given element type.
    Array(PrimitiveType),
    /// A `java.lang.String` (UTF-16 payload).
    String,
}

impl ObjKind {
    /// Element type of the payload.
    pub fn element_type(self) -> PrimitiveType {
        match self {
            ObjKind::Array(t) => t,
            ObjKind::String => PrimitiveType::Char,
        }
    }
}

/// Shared liveness token; the heap holds a `Weak` to it.
///
/// The address is atomic because the compacting collector relocates
/// objects in place: every handle sharing this token observes the new
/// address the moment [`LiveToken::relocate`] stores it.
#[derive(Debug)]
pub(crate) struct LiveToken {
    addr: AtomicU64,
    /// Open pins on the object: one per live [`PinGuard`], each of
    /// which also holds a strong reference to this token.
    ///
    /// [`PinGuard`]: crate::PinGuard
    pins: AtomicU32,
    pub(crate) kind: ObjKind,
    pub(crate) len: usize,
}

impl LiveToken {
    pub(crate) fn new(addr: u64, kind: ObjKind, len: usize) -> LiveToken {
        LiveToken {
            addr: AtomicU64::new(addr),
            pins: AtomicU32::new(0),
            kind,
            len,
        }
    }

    /// Current header address.
    pub(crate) fn addr(&self) -> u64 {
        self.addr.load(Ordering::Acquire)
    }

    /// Rewrites the header address after the collector moved the object.
    pub(crate) fn relocate(&self, new_addr: u64) {
        self.addr.store(new_addr, Ordering::Release);
    }

    /// Open pins on the object. `SeqCst`, like [`LiveToken::take_pin`]:
    /// compaction's read of it is one side of the pin handshake
    /// (`world.rs`).
    pub(crate) fn pin_count(&self) -> u32 {
        self.pins.load(Ordering::SeqCst)
    }

    /// Takes one pin. `SeqCst`: the world gate's flag load that follows
    /// it in `Heap::pin` must not be ordered before it.
    pub(crate) fn take_pin(&self) {
        self.pins.fetch_add(1, Ordering::SeqCst);
    }

    /// Drops one pin.
    pub(crate) fn release_pin(&self) {
        self.pins.fetch_sub(1, Ordering::AcqRel);
    }
}

/// An untyped reference to any heap object.
#[derive(Clone)]
pub struct ObjectRef {
    pub(crate) token: Arc<LiveToken>,
}

impl ObjectRef {
    /// Address of the object header in the simulated heap.
    pub fn addr(&self) -> u64 {
        self.token.addr()
    }

    /// Address of the first payload byte.
    pub fn data_addr(&self) -> u64 {
        self.token.addr() + HEADER_SIZE as u64
    }

    /// Object kind.
    pub fn kind(&self) -> ObjKind {
        self.token.kind
    }

    /// Element count (array length, or UTF-16 length for strings).
    pub fn len(&self) -> usize {
        self.token.len
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.token.len == 0
    }

    /// Payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.token.len * self.token.kind.element_type().size()
    }

    /// Downcasts to an array handle if this is a primitive array.
    pub fn as_array(&self) -> Option<ArrayRef> {
        matches!(self.token.kind, ObjKind::Array(_)).then(|| ArrayRef { obj: self.clone() })
    }

    /// Downcasts to a string handle if this is a string.
    pub fn as_string(&self) -> Option<StringRef> {
        matches!(self.token.kind, ObjKind::String).then(|| StringRef { obj: self.clone() })
    }
}

impl PartialEq for ObjectRef {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.token, &other.token)
    }
}

impl Eq for ObjectRef {}

impl fmt::Debug for ObjectRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectRef({:#x}, {:?}, len {})", self.addr(), self.kind(), self.len())
    }
}

macro_rules! typed_handle {
    ($(#[$doc:meta])* $name:ident, $kind_pat:pat) => {
        $(#[$doc])*
        #[derive(Clone, PartialEq, Eq)]
        pub struct $name {
            pub(crate) obj: ObjectRef,
        }

        impl $name {
            /// Address of the object header.
            pub fn addr(&self) -> u64 {
                self.obj.addr()
            }

            /// Address of the first payload byte.
            pub fn data_addr(&self) -> u64 {
                self.obj.data_addr()
            }

            /// Element count.
            pub fn len(&self) -> usize {
                self.obj.len()
            }

            /// Whether the payload is empty.
            pub fn is_empty(&self) -> bool {
                self.obj.is_empty()
            }

            /// Payload size in bytes.
            pub fn byte_len(&self) -> usize {
                self.obj.byte_len()
            }

            /// Element type of the payload.
            pub fn element_type(&self) -> PrimitiveType {
                self.obj.kind().element_type()
            }

            /// Upcasts to an untyped object reference, by borrow: no
            /// reference-count change. Clone it, or use the `From`
            /// conversion, where the upcast must own a handle.
            pub fn as_object(&self) -> &ObjectRef {
                &self.obj
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(
                    f,
                    concat!(stringify!($name), "({:#x}, {}, len {})"),
                    self.addr(),
                    self.element_type(),
                    self.len()
                )
            }
        }

        impl From<$name> for ObjectRef {
            fn from(h: $name) -> ObjectRef {
                h.obj
            }
        }
    };
}

typed_handle!(
    /// A reference to a primitive array on the Java heap.
    ArrayRef,
    ObjKind::Array(_)
);

typed_handle!(
    /// A reference to a `java.lang.String` on the Java heap.
    StringRef,
    ObjKind::String
);

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(kind: ObjKind, len: usize) -> ObjectRef {
        ObjectRef { token: Arc::new(LiveToken::new(0x7a00_0000_1000, kind, len)) }
    }

    #[test]
    fn array_handle_geometry() {
        let a = ArrayRef { obj: obj(ObjKind::Array(PrimitiveType::Int), 18) };
        assert_eq!(a.len(), 18);
        assert_eq!(a.byte_len(), 72);
        assert_eq!(a.data_addr(), a.addr() + HEADER_SIZE as u64);
        assert_eq!(a.element_type(), PrimitiveType::Int);
        assert!(!a.is_empty());
    }

    #[test]
    fn string_is_char_payload() {
        let s = StringRef { obj: obj(ObjKind::String, 5) };
        assert_eq!(s.element_type(), PrimitiveType::Char);
        assert_eq!(s.byte_len(), 10);
    }

    #[test]
    fn clones_are_equal_distinct_objects_are_not() {
        let a = ArrayRef { obj: obj(ObjKind::Array(PrimitiveType::Byte), 4) };
        let b = a.clone();
        assert_eq!(a, b);
        let c = ArrayRef { obj: obj(ObjKind::Array(PrimitiveType::Byte), 4) };
        assert_ne!(a, c, "equality is identity, not structure");
    }

    #[test]
    fn downcasts_respect_kind() {
        let o = obj(ObjKind::Array(PrimitiveType::Long), 2);
        assert!(o.as_array().is_some());
        assert!(o.as_string().is_none());
        let s = obj(ObjKind::String, 2);
        assert!(s.as_string().is_some());
        assert!(s.as_array().is_none());
    }

    #[test]
    fn relocation_updates_every_handle() {
        let a = ArrayRef { obj: obj(ObjKind::Array(PrimitiveType::Int), 4) };
        let o = a.as_object().clone();
        a.obj.token.relocate(0x7a00_0000_2000);
        assert_eq!(a.addr(), 0x7a00_0000_2000);
        assert_eq!(o.addr(), 0x7a00_0000_2000, "clones share the token");
        assert_eq!(o.data_addr(), 0x7a00_0000_2000 + HEADER_SIZE as u64);
    }

    #[test]
    fn upcast_round_trips() {
        let a = ArrayRef { obj: obj(ObjKind::Array(PrimitiveType::Int), 1) };
        let o = a.as_object();
        assert_eq!(o.as_array().unwrap(), a);
        assert_eq!(o.byte_len(), a.byte_len());
    }
}
