//! Records, record batches and variable bindings.
//!
//! A record is one row of intermediate state flowing through the execution
//! plan: one [`Value`] slot per bound variable, laid out once at plan-build
//! time by [`Bindings`]. No record is ever its own allocation: operators
//! pass a [`RecordBatch`], one flat slot-major buffer in which record `i` is
//! `values[i * width..][..width]`, and expressions read a record as a
//! `&[Value]` slice of it. A batch is created at its segment's width
//! (`bindings.len()`), so appending a record copies its parent's slots and
//! then sets the new ones. The result set's rows are a batch too, one slot
//! per column, so rows travel from the first scan to the reply encoder
//! without a per-row allocation.

use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Index, IndexMut, Range};

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

/// A batch of fixed-width records in one flat, slot-major buffer.
///
/// The record count is kept explicitly: a batch may be zero slots wide (the
/// plan of `RETURN 1` starts from one record of no slots), so it cannot be
/// derived from the buffer's length.
#[derive(Clone, Default, PartialEq)]
pub struct RecordBatch {
    width: usize,
    len: usize,
    values: Vec<Value>,
}

impl RecordBatch {
    /// An empty batch of `width`-slot records.
    pub fn new(width: usize) -> Self {
        RecordBatch { width, len: 0, values: Vec::new() }
    }

    /// Make room for `records` more records. Operators that know their
    /// output's size reserve it: growing a batch of tens of thousands of
    /// records by doubling copies it repeatedly, and the freed copies
    /// fragment the allocator's per-thread heaps until peak RSS creeps up.
    pub fn reserve(&mut self, records: usize) {
        self.values.reserve(records * self.width);
    }

    /// Slots per record.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the batch holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The records, in order, each as a slice of `width` values.
    pub fn iter(&self) -> Rows<'_> {
        Rows { batch: self, next: 0 }
    }

    /// Append a record given slot by slot; `record` must yield exactly
    /// `width` values.
    pub fn push(&mut self, record: impl IntoIterator<Item = Value>) {
        let start = self.values.len();
        self.values.extend(record);
        assert_eq!(self.values.len() - start, self.width, "record width");
        self.len += 1;
    }

    /// Append a copy of `parent` (a record of this batch's width) and return
    /// it for its new slots to be set.
    pub fn push_copy(&mut self, parent: &[Value]) -> &mut [Value] {
        assert_eq!(parent.len(), self.width, "record width");
        let start = self.values.len();
        self.values.extend_from_slice(parent);
        self.len += 1;
        &mut self.values[start..]
    }

    /// Append a record of null slots and return it for its slots to be set.
    pub fn push_nulls(&mut self) -> &mut [Value] {
        let start = self.values.len();
        self.values.resize(start + self.width, Value::Null);
        self.len += 1;
        &mut self.values[start..]
    }

    /// Keep only the records `keep` accepts, in order, compacting in place.
    pub fn retain(&mut self, mut keep: impl FnMut(&[Value]) -> bool) {
        let mut kept = 0;
        for i in 0..self.len {
            if !keep(&self[i]) {
                continue;
            }
            if kept != i {
                for slot in 0..self.width {
                    self.values.swap(kept * self.width + slot, i * self.width + slot);
                }
            }
            kept += 1;
        }
        self.values.truncate(kept * self.width);
        self.len = kept;
    }

    /// Drop the first `skip` records and keep at most `limit` of the rest.
    pub fn skip_take(&mut self, skip: usize, limit: usize) {
        let skip = skip.min(self.len);
        self.len = limit.min(self.len - skip);
        self.values.truncate((skip + self.len) * self.width);
        self.values.drain(..skip * self.width);
    }

    /// A new batch of the records at `rows`, in that order, moved out of
    /// this one (each index at most once; what is left behind is null).
    pub fn take_rows(&mut self, rows: impl IntoIterator<Item = usize>) -> RecordBatch {
        let mut out = RecordBatch::new(self.width);
        for i in rows {
            let record = &mut self[i];
            out.push(record.iter_mut().map(|v| std::mem::replace(v, Value::Null)));
        }
        out
    }

    /// The records copied out as one `Vec` each.
    pub fn to_vec(&self) -> Vec<Vec<Value>> {
        self.iter().map(<[Value]>::to_vec).collect()
    }

    fn range(&self, i: usize) -> Range<usize> {
        assert!(i < self.len, "record {i} of a batch of {}", self.len);
        i * self.width..(i + 1) * self.width
    }
}

impl Index<usize> for RecordBatch {
    type Output = [Value];

    fn index(&self, i: usize) -> &[Value] {
        &self.values[self.range(i)]
    }
}

impl IndexMut<usize> for RecordBatch {
    fn index_mut(&mut self, i: usize) -> &mut [Value] {
        let range = self.range(i);
        &mut self.values[range]
    }
}

/// Iterator over a batch's records (see [`RecordBatch::iter`]).
pub struct Rows<'a> {
    batch: &'a RecordBatch,
    next: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        let batch = self.batch;
        if self.next == batch.len {
            return None;
        }
        self.next += 1;
        Some(&batch[self.next - 1])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.batch.len - self.next;
        (left, Some(left))
    }
}

impl<'a> IntoIterator for &'a RecordBatch {
    type Item = &'a [Value];
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.iter()
    }
}

/// Records given one by one; the first sets the width (an empty iterator
/// makes an empty zero-width batch).
impl<R: IntoIterator<Item = Value>> FromIterator<R> for RecordBatch {
    fn from_iter<I: IntoIterator<Item = R>>(records: I) -> Self {
        let mut records = records.into_iter();
        let Some(first) = records.next() else { return RecordBatch::default() };
        let mut batch = RecordBatch { width: 0, len: 1, values: first.into_iter().collect() };
        batch.width = batch.values.len();
        records.for_each(|record| batch.push(record));
        batch
    }
}

impl PartialEq<Vec<Vec<Value>>> for RecordBatch {
    fn eq(&self, other: &Vec<Vec<Value>>) -> bool {
        self.len == other.len() && self.iter().zip(other).all(|(a, b)| a == b.as_slice())
    }
}

/// Formats as the list of records, the way a `Vec` of rows would.
impl fmt::Debug for RecordBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

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

    #[test]
    fn records_are_strided_slices() {
        let mut batch = RecordBatch::new(2);
        batch.push([Value::Int(0), Value::Str("a".into())]);
        batch.push_copy(&[Value::Int(1), Value::Null])[1] = Value::Str("b".into());
        batch.push_nulls()[0] = Value::Int(2);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[1], [Value::Int(1), Value::Str("b".into())]);
        assert_eq!(
            batch,
            vec![
                vec![Value::Int(0), Value::Str("a".into())],
                vec![Value::Int(1), Value::Str("b".into())],
                vec![Value::Int(2), Value::Null],
            ]
        );
        batch.retain(|r| r[0] != Value::Int(1));
        assert_eq!(format!("{batch:?}"), r#"[[Int(0), Str("a")], [Int(2), Null]]"#);
        let mut taken = batch.take_rows([1, 0]);
        let a = vec![Value::Int(0), Value::Str("a".into())];
        assert_eq!(taken.to_vec(), vec![vec![Value::Int(2), Value::Null], a.clone()]);
        taken.skip_take(1, 5);
        assert_eq!(taken, vec![a]);
        taken.skip_take(0, 0);
        assert!(taken.is_empty());
    }

    #[test]
    fn zero_width_records_are_counted() {
        let mut batch = RecordBatch::new(0);
        batch.push_nulls();
        batch.push_copy(&[]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.iter().count(), 2);
        assert!(batch[1].is_empty());
        batch.push_nulls();
        batch.skip_take(1, 1);
        assert_eq!(batch.len(), 1);
        batch.skip_take(2, 1);
        assert!(batch.is_empty());
        batch.push_nulls();
        batch.retain(|_| false);
        assert!(batch.is_empty());
    }
}
