//! Records and variable bindings.
//!
//! A record is one row of intermediate state flowing through the execution
//! plan: a fixed-width vector of [`Value`]s, one slot per bound variable. The
//! slot layout is decided once at plan-build time by [`Bindings`].

use crate::value::Value;
use std::collections::HashMap;

/// Maps variable names to record slots. Built during planning; shared by every
/// operation of the plan.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    slots: HashMap<String, usize>,
    names: Vec<String>,
}

impl Bindings {
    /// Create an empty binding table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get the slot of a variable, creating one if it is new.
    pub fn slot_or_create(&mut self, name: &str) -> usize {
        if let Some(&slot) = self.slots.get(name) {
            return slot;
        }
        let slot = self.names.len();
        self.slots.insert(name.to_string(), slot);
        self.names.push(name.to_string());
        slot
    }

    /// Get the slot of a variable, if bound.
    pub fn slot(&self, name: &str) -> Option<usize> {
        self.slots.get(name).copied()
    }

    /// True if the variable is bound.
    pub fn is_bound(&self, name: &str) -> bool {
        self.slots.contains_key(name)
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no variables are bound.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Variable name for a slot.
    pub fn name(&self, slot: usize) -> &str {
        &self.names[slot]
    }
}

/// One row of intermediate execution state.
pub type Record = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_assigned_once() {
        let mut b = Bindings::new();
        assert_eq!(b.slot_or_create("a"), 0);
        assert_eq!(b.slot_or_create("b"), 1);
        assert_eq!(b.slot_or_create("a"), 0);
        assert_eq!(b.len(), 2);
        assert!(b.is_bound("a"));
        assert!(!b.is_bound("c"));
        assert_eq!(b.slot("b"), Some(1));
        assert_eq!(b.name(1), "b");
    }
}
