//! Runtime values and the simulated heap.

use cbs_bytecode::ClassId;
use std::fmt;

/// Reference to a heap object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjRef(u32);

impl ObjRef {
    /// Raw heap index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// A runtime value: a 64-bit integer or an object reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Reference to a heap object.
    Ref(ObjRef),
}

impl Value {
    /// Extracts the integer, if this is an [`Value::Int`].
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(v),
            Value::Ref(_) => None,
        }
    }

    /// Extracts the reference, if this is a [`Value::Ref`].
    #[inline]
    pub fn as_ref(self) -> Option<ObjRef> {
        match self {
            Value::Ref(r) => Some(r),
            Value::Int(_) => None,
        }
    }

    /// Truthiness used by conditional jumps: `Int(0)` is false, everything
    /// else (including references) is true.
    #[inline]
    pub fn is_truthy(self) -> bool {
        !matches!(self, Value::Int(0))
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::Int(0)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Ref(r) => write!(f, "{r}"),
        }
    }
}

#[derive(Debug, Clone)]
struct Object {
    class: ClassId,
    fields: Vec<Value>,
}

/// The simulated heap: a bump-allocated arena of objects.
///
/// There is no garbage collector; benchmark programs are sized so their
/// allocation volume fits comfortably in memory, and the study's profiling
/// questions are orthogonal to collection.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    objects: Vec<Object>,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates an object of `class` with `num_fields` zeroed fields.
    #[inline]
    pub fn alloc(&mut self, class: ClassId, num_fields: u16) -> ObjRef {
        let r = ObjRef(self.objects.len() as u32);
        self.objects.push(Object {
            class,
            fields: vec![Value::default(); usize::from(num_fields)],
        });
        r
    }

    /// The exact class of the referenced object.
    ///
    /// # Panics
    ///
    /// Panics if `r` was not allocated from this heap.
    #[inline]
    pub fn class_of(&self, r: ObjRef) -> ClassId {
        self.objects[r.index()].class
    }

    /// Reads a field. Returns `None` when the field index is out of range.
    #[inline]
    pub fn get_field(&self, r: ObjRef, field: u16) -> Option<Value> {
        self.objects[r.index()]
            .fields
            .get(usize::from(field))
            .copied()
    }

    /// Writes a field. Returns `false` when the field index is out of
    /// range.
    #[inline]
    pub fn put_field(&mut self, r: ObjRef, field: u16, value: Value) -> bool {
        match self.objects[r.index()].fields.get_mut(usize::from(field)) {
            Some(slot) => {
                *slot = value;
                true
            }
            None => false,
        }
    }

    /// Number of live (ever-allocated) objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Returns `true` when nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_ref(), None);
        let mut h = Heap::new();
        let r = h.alloc(ClassId::new(0), 1);
        assert_eq!(Value::Ref(r).as_ref(), Some(r));
        assert_eq!(Value::Ref(r).as_int(), None);
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Int(-1).is_truthy());
        let mut h = Heap::new();
        let r = h.alloc(ClassId::new(0), 0);
        assert!(Value::Ref(r).is_truthy());
    }

    #[test]
    fn heap_alloc_and_fields() {
        let mut h = Heap::new();
        let r = h.alloc(ClassId::new(2), 2);
        assert_eq!(h.class_of(r), ClassId::new(2));
        assert_eq!(h.get_field(r, 0), Some(Value::Int(0)));
        assert!(h.put_field(r, 1, Value::Int(42)));
        assert_eq!(h.get_field(r, 1), Some(Value::Int(42)));
        assert_eq!(h.get_field(r, 2), None);
        assert!(!h.put_field(r, 9, Value::Int(1)));
        assert_eq!(h.len(), 1);
        assert!(!h.is_empty());
    }

    #[test]
    fn distinct_allocations_distinct_refs() {
        let mut h = Heap::new();
        let a = h.alloc(ClassId::new(0), 0);
        let b = h.alloc(ClassId::new(0), 0);
        assert_ne!(a, b);
    }
}
