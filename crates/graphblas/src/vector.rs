//! Sparse vectors (`GrB_Vector`), stored as parallel sorted index/value arrays.
//!
//! rgbench's ladder only (the frontier and visited set of its masked-`vxm`
//! rung); T9a deletes. A BFS keeps its sets as [`crate::Bitmap`]s and the
//! `algo` crate its state in dense arrays.

use crate::error::{check_index, GrbError, GrbResult};
use crate::types::Scalar;
use crate::Index;

/// A sparse vector of logical length `size` holding `nvals` stored entries.
///
/// Entries are kept in index-sorted order; `set_element` on an existing index
/// overwrites its value (GraphBLAS `GrB_Vector_setElement` semantics).
#[derive(Clone, Debug, PartialEq)]
pub struct SparseVector<T: Scalar> {
    size: Index,
    indices: Vec<Index>,
    values: Vec<T>,
}

impl<T: Scalar> SparseVector<T> {
    /// Create an empty sparse vector of logical length `size`.
    pub fn new(size: Index) -> Self {
        SparseVector { size, indices: Vec::new(), values: Vec::new() }
    }

    /// Create a vector from unsorted `(index, value)` pairs. Duplicate indices
    /// keep the *last* value supplied.
    pub fn from_entries(size: Index, entries: &[(Index, T)]) -> GrbResult<Self> {
        let mut v = SparseVector::new(size);
        let mut sorted: Vec<(Index, T)> = Vec::with_capacity(entries.len());
        for &(i, val) in entries {
            check_index(i, size)?;
            sorted.push((i, val));
        }
        // stable sort so that "last wins" can be resolved by taking the final
        // occurrence of each index
        sorted.sort_by_key(|&(i, _)| i);
        let mut k = 0;
        while k < sorted.len() {
            let i = sorted[k].0;
            let mut last = sorted[k].1;
            while k + 1 < sorted.len() && sorted[k + 1].0 == i {
                k += 1;
                last = sorted[k].1;
            }
            v.indices.push(i);
            v.values.push(last);
            k += 1;
        }
        Ok(v)
    }

    /// Build a vector directly from pre-sorted, duplicate-free parallel arrays.
    /// Intended for kernels that have already produced sorted output.
    pub(crate) fn from_sorted_parts(size: Index, indices: Vec<Index>, values: Vec<T>) -> Self {
        debug_assert_eq!(indices.len(), values.len());
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(indices.last().map(|&i| i < size).unwrap_or(true));
        SparseVector { size, indices, values }
    }

    /// Logical length of the vector.
    pub fn size(&self) -> Index {
        self.size
    }

    /// Number of stored entries.
    pub fn nvals(&self) -> usize {
        self.indices.len()
    }

    /// True if the vector holds no entries.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Remove all stored entries, keeping the logical size.
    pub fn clear(&mut self) {
        self.indices.clear();
        self.values.clear();
    }

    /// Set (insert or overwrite) a single entry.
    ///
    /// # Panics
    /// Panics if `index >= size()`; use [`SparseVector::try_set_element`] for a
    /// fallible variant.
    pub fn set_element(&mut self, index: Index, value: T) {
        self.try_set_element(index, value).expect("index out of bounds");
    }

    /// Fallible entry assignment.
    pub fn try_set_element(&mut self, index: Index, value: T) -> GrbResult<()> {
        check_index(index, self.size)?;
        match self.indices.binary_search(&index) {
            Ok(pos) => self.values[pos] = value,
            Err(pos) => {
                self.indices.insert(pos, index);
                self.values.insert(pos, value);
            }
        }
        Ok(())
    }

    /// Delete an entry if present; returns whether an entry was removed.
    pub fn remove_element(&mut self, index: Index) -> bool {
        match self.indices.binary_search(&index) {
            Ok(pos) => {
                self.indices.remove(pos);
                self.values.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Read an entry; `None` if it is not stored (a structural zero).
    pub fn extract_element(&self, index: Index) -> Option<T> {
        self.indices.binary_search(&index).ok().map(|pos| self.values[pos])
    }

    /// Whether the entry at `index` is stored.
    pub fn contains(&self, index: Index) -> bool {
        self.indices.binary_search(&index).is_ok()
    }

    /// Iterate over stored `(index, value)` pairs in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, T)> + '_ {
        self.indices.iter().copied().zip(self.values.iter().copied())
    }

    /// Stored indices (ascending).
    pub fn indices(&self) -> &[Index] {
        &self.indices
    }

    /// Stored values, parallel to [`SparseVector::indices`].
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Grow or shrink the logical size. Shrinking drops entries beyond the new
    /// size (GraphBLAS `GxB_Vector_resize` semantics).
    pub fn resize(&mut self, new_size: Index) {
        if new_size < self.size {
            let keep = self.indices.partition_point(|&i| i < new_size);
            self.indices.truncate(keep);
            self.values.truncate(keep);
        }
        self.size = new_size;
    }

    /// Extract all stored entries as a vector of `(index, value)` tuples.
    pub fn to_entries(&self) -> Vec<(Index, T)> {
        self.iter().collect()
    }

    /// Validate internal invariants (sorted, unique, in-bounds). Used by tests
    /// and debug assertions.
    pub fn check_invariants(&self) -> GrbResult<()> {
        if self.indices.len() != self.values.len() {
            return Err(GrbError::InvalidValue("index/value length mismatch".into()));
        }
        for w in self.indices.windows(2) {
            if w[0] >= w[1] {
                return Err(GrbError::InvalidValue("indices not strictly ascending".into()));
            }
        }
        if let Some(&last) = self.indices.last() {
            check_index(last, self.size)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_vector_is_empty() {
        let v = SparseVector::<f64>::new(10);
        assert_eq!(v.size(), 10);
        assert_eq!(v.nvals(), 0);
        assert!(v.is_empty());
    }

    #[test]
    fn set_and_extract_roundtrip() {
        let mut v = SparseVector::new(8);
        v.set_element(3, 1.5);
        v.set_element(0, 2.5);
        v.set_element(7, 3.5);
        assert_eq!(v.nvals(), 3);
        assert_eq!(v.extract_element(3), Some(1.5));
        assert_eq!(v.extract_element(1), None);
        assert_eq!(v.indices(), &[0, 3, 7]);
        v.check_invariants().unwrap();
    }

    #[test]
    fn set_overwrites_existing_entry() {
        let mut v = SparseVector::new(4);
        v.set_element(2, 1);
        v.set_element(2, 9);
        assert_eq!(v.nvals(), 1);
        assert_eq!(v.extract_element(2), Some(9));
    }

    #[test]
    fn out_of_bounds_set_fails() {
        let mut v = SparseVector::new(4);
        assert!(v.try_set_element(4, 1.0).is_err());
        assert!(v.try_set_element(3, 1.0).is_ok());
    }

    #[test]
    fn from_entries_sorts_and_dedups_last_wins() {
        let v = SparseVector::from_entries(10, &[(5, 1), (2, 2), (5, 3), (9, 4)]).unwrap();
        assert_eq!(v.indices(), &[2, 5, 9]);
        assert_eq!(v.extract_element(5), Some(3));
        v.check_invariants().unwrap();
    }

    #[test]
    fn from_entries_rejects_out_of_bounds() {
        assert!(SparseVector::from_entries(3, &[(3, 1)]).is_err());
    }

    #[test]
    fn remove_element_works() {
        let mut v = SparseVector::from_entries(5, &[(1, 1), (3, 3)]).unwrap();
        assert!(v.remove_element(1));
        assert!(!v.remove_element(1));
        assert_eq!(v.nvals(), 1);
        assert_eq!(v.extract_element(3), Some(3));
    }

    #[test]
    fn resize_shrinks_and_drops_entries() {
        let mut v = SparseVector::from_entries(10, &[(1, 1), (8, 8)]).unwrap();
        v.resize(5);
        assert_eq!(v.size(), 5);
        assert_eq!(v.nvals(), 1);
        assert_eq!(v.extract_element(8), None);
        v.resize(20);
        assert_eq!(v.size(), 20);
        assert_eq!(v.nvals(), 1);
    }
}
