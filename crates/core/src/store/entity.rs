//! The attribute sets of nodes and edges: all that an entity slot holds.
//!
//! Neither a node nor an edge has an entity of its own. A node's slot in the
//! graph's node slots is its attribute set alone, and its labels are the
//! label diagonals that hold its id. An edge's endpoints and relationship
//! type are the relation-matrix cells that hold its id, and it has a slot
//! in the edge slots only while its attribute set is not empty. A traversal
//! that finds an edge carries them in the edge's [`Value::Edge`], as
//! RedisGraph's `Edge` does.

use crate::store::schema::AttributeId;
use crate::value::Value;

/// A set of `(attribute id, value)` pairs attached to a node or edge.
///
/// Stored as a small sorted boxed slice: property counts per entity are tiny,
/// and a slice beats a hash map for both memory and lookup speed at that
/// size. It is a pointer and a length, 16 bytes with no spare capacity, and
/// an empty set allocates nothing: a node without properties costs its slot
/// and no heap, and an edge without properties is not stored at all. A write reallocates the slice, which is as cheap as a
/// vector's shift at these sizes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttributeSet {
    attrs: Box<[(AttributeId, Value)]>,
}

// A node slot, and the slot of an edge with properties, is an
// `Option<AttributeSet>`: the box's non-null pointer is the `None` niche, so
// a slot is the set's 16 bytes.
const _: () = assert!(std::mem::size_of::<Option<AttributeSet>>() == 16);

impl AttributeSet {
    /// Create an empty attribute set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True if no attributes are set.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Set (insert or overwrite) an attribute. Setting `Null` removes it, as
    /// in openCypher `SET n.p = null`. Returns true if a value was added or
    /// replaced.
    pub fn set(&mut self, id: AttributeId, value: Value) -> bool {
        if value.is_null() {
            return self.remove(id);
        }
        match self.attrs.binary_search_by_key(&id, |(a, _)| *a) {
            Ok(pos) => {
                self.attrs[pos].1 = value;
                true
            }
            Err(pos) => {
                let mut attrs = std::mem::take(&mut self.attrs).into_vec();
                attrs.insert(pos, (id, value));
                self.attrs = attrs.into_boxed_slice();
                true
            }
        }
    }

    /// Remove an attribute; returns whether it existed.
    pub fn remove(&mut self, id: AttributeId) -> bool {
        match self.attrs.binary_search_by_key(&id, |(a, _)| *a) {
            Ok(pos) => {
                let mut attrs = std::mem::take(&mut self.attrs).into_vec();
                attrs.remove(pos);
                self.attrs = attrs.into_boxed_slice();
                true
            }
            Err(_) => false,
        }
    }

    /// Read an attribute; `Value::Null` when absent (openCypher semantics).
    pub fn get(&self, id: AttributeId) -> Value {
        match self.attrs.binary_search_by_key(&id, |(a, _)| *a) {
            Ok(pos) => self.attrs[pos].1.clone(),
            Err(_) => Value::Null,
        }
    }

    /// Iterate over `(attribute id, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (AttributeId, &Value)> + '_ {
        self.attrs.iter().map(|(id, v)| (*id, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_set_get_set_remove() {
        let mut a = AttributeSet::new();
        assert!(a.is_empty());
        a.set(3, Value::Int(1));
        a.set(1, Value::Str("x".into()));
        a.set(3, Value::Int(2)); // overwrite
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(3), Value::Int(2));
        assert_eq!(a.get(1), Value::Str("x".into()));
        assert_eq!(a.get(9), Value::Null);
        assert!(a.remove(1));
        assert!(!a.remove(1));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn setting_null_deletes_the_attribute() {
        let mut a = AttributeSet::new();
        a.set(0, Value::Int(5));
        a.set(0, Value::Null);
        assert_eq!(a.get(0), Value::Null);
        assert!(a.is_empty());
    }
}
