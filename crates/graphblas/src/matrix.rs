//! Sparse matrices (`GrB_Matrix`) in Compressed Sparse Row (CSR) form.
//!
//! A [`SparseMatrix`] is immutable once built: [`SparseMatrix::new`],
//! [`SparseMatrix::from_triples`] and the kernels produce it, and the read
//! accessors borrow its arrays directly. Single-element writes are buffered by
//! [`crate::DeltaMatrix`], which folds them into fresh CSR slices a leaf of
//! rows at a time — the one pending-update mechanism in this crate.
//!
//! No production reader takes one: stored matrices are read in place
//! ([`crate::DeltaMatrix::any_run`]). A `SparseMatrix` is the standalone copy
//! [`crate::DeltaMatrix::export`] builds for tests and diagnostics, and the
//! operand of the whole-matrix kernels, which serve rgbench's ladder only;
//! T9a deletes that use.

use crate::error::{check_index, GrbError, GrbResult};
use crate::types::Scalar;
use crate::Index;

/// A sparse matrix stored by row (CSR).
///
/// * `row_ptr[i]..row_ptr[i+1]` indexes the entries of row `i` inside
///   `col_idx` / `values`.
/// * Column indices within a row are strictly ascending, so the arrays are
///   canonical: two matrices with the same entries compare equal field by
///   field.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseMatrix<T: Scalar> {
    nrows: Index,
    ncols: Index,
    row_ptr: Vec<usize>,
    col_idx: Vec<Index>,
    values: Vec<T>,
}

impl<T: Scalar> SparseMatrix<T> {
    /// Create an empty `nrows × ncols` matrix.
    pub fn new(nrows: Index, ncols: Index) -> Self {
        SparseMatrix {
            nrows,
            ncols,
            row_ptr: vec![0; nrows as usize + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build a matrix from `(row, col, value)` triples. Duplicate coordinates
    /// keep the last value supplied (use [`SparseMatrix::from_triples_dup`] to
    /// combine duplicates with an operator instead).
    pub fn from_triples(
        nrows: Index,
        ncols: Index,
        triples: &[(Index, Index, T)],
    ) -> GrbResult<Self> {
        Self::build(nrows, ncols, triples, None)
    }

    /// Build a matrix from triples, combining duplicates with `dup`.
    pub fn from_triples_dup(
        nrows: Index,
        ncols: Index,
        triples: &[(Index, Index, T)],
        dup: impl Fn(T, T) -> T,
    ) -> GrbResult<Self> {
        Self::build(nrows, ncols, triples, Some(&dup))
    }

    fn build(
        nrows: Index,
        ncols: Index,
        triples: &[(Index, Index, T)],
        dup: Option<&dyn Fn(T, T) -> T>,
    ) -> GrbResult<Self> {
        for &(r, c, _) in triples {
            check_index(r, nrows)?;
            check_index(c, ncols)?;
        }
        let mut sorted: Vec<(Index, Index, T)> = triples.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = vec![0usize; nrows as usize + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());

        let mut k = 0;
        while k < sorted.len() {
            let (r, c, mut v) = sorted[k];
            while k + 1 < sorted.len() && sorted[k + 1].0 == r && sorted[k + 1].1 == c {
                k += 1;
                v = match dup {
                    Some(f) => f(v, sorted[k].2),
                    None => sorted[k].2,
                };
            }
            col_idx.push(c);
            values.push(v);
            row_ptr[r as usize + 1] += 1;
            k += 1;
        }
        for i in 0..nrows as usize {
            row_ptr[i + 1] += row_ptr[i];
        }
        Ok(SparseMatrix { nrows, ncols, row_ptr, col_idx, values })
    }

    /// Build a matrix from CSR arrays: row `i` is
    /// `col_idx[row_ptr[i]..row_ptr[i + 1]]`, strictly ascending, with its
    /// `values`. Arrays that break a CSR invariant are an error.
    pub fn from_csr(
        nrows: Index,
        ncols: Index,
        row_ptr: Vec<usize>,
        col_idx: Vec<Index>,
        values: Vec<T>,
    ) -> GrbResult<Self> {
        let m = SparseMatrix { nrows, ncols, row_ptr, col_idx, values };
        m.check_invariants().map(|()| m)
    }

    /// Number of rows.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nvals(&self) -> usize {
        self.values.len()
    }

    /// Read a single entry: a binary search within its row.
    pub fn extract_element(&self, row: Index, col: Index) -> Option<T> {
        if row >= self.nrows {
            return None;
        }
        let (start, end) = (self.row_ptr[row as usize], self.row_ptr[row as usize + 1]);
        let cols = &self.col_idx[start..end];
        cols.binary_search(&col).ok().map(|p| self.values[start + p])
    }

    /// Whether an entry is stored at `(row, col)`.
    pub fn contains(&self, row: Index, col: Index) -> bool {
        self.extract_element(row, col).is_some()
    }

    /// Column indices and values of one row, borrowed from the CSR arrays.
    pub fn row(&self, row: Index) -> (&[Index], &[T]) {
        let (start, end) = (self.row_ptr[row as usize], self.row_ptr[row as usize + 1]);
        (&self.col_idx[start..end], &self.values[start..end])
    }

    /// Number of stored entries in one row.
    pub fn row_degree(&self, row: Index) -> usize {
        self.row_ptr[row as usize + 1] - self.row_ptr[row as usize]
    }

    /// Iterate over all stored entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, T)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().copied().zip(vals.iter().copied()).map(move |(c, v)| (r, c, v))
        })
    }

    /// Export all stored entries as `(row, col, value)` triples in row-major
    /// order.
    pub fn to_triples(&self) -> Vec<(Index, Index, T)> {
        self.iter().collect()
    }

    /// Internal CSR row pointer array (for kernels and tests).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Internal CSR column index array.
    pub fn col_indices(&self) -> &[Index] {
        &self.col_idx
    }

    /// Internal CSR value array.
    pub fn raw_values(&self) -> &[T] {
        &self.values
    }

    /// Validate the CSR invariants: monotone row pointers from 0 to nnz, strictly ascending
    /// in-row columns, in-bounds indices, parallel arrays of equal length.
    pub fn check_invariants(&self) -> GrbResult<()> {
        if self.row_ptr.len() != self.nrows as usize + 1 {
            return Err(GrbError::InvalidValue("row_ptr length mismatch".into()));
        }
        if self.col_idx.len() != self.values.len() {
            return Err(GrbError::InvalidValue("col/value length mismatch".into()));
        }
        if self.row_ptr[0] != 0 {
            return Err(GrbError::InvalidValue("row_ptr does not start at 0".into()));
        }
        if *self.row_ptr.last().unwrap() != self.col_idx.len() {
            return Err(GrbError::InvalidValue("row_ptr end != nnz".into()));
        }
        for w in self.row_ptr.windows(2) {
            if w[0] > w[1] {
                return Err(GrbError::InvalidValue("row_ptr not monotone".into()));
            }
        }
        for r in 0..self.nrows as usize {
            let row = &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(GrbError::InvalidValue(format!(
                        "row {r} columns not strictly ascending"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                check_index(last, self.ncols)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SparseMatrix<i64> {
        SparseMatrix::from_triples(3, 4, &[(0, 1, 10), (0, 3, 30), (1, 0, 5), (2, 2, 7)]).unwrap()
    }

    #[test]
    fn from_triples_builds_valid_csr() {
        let m = small();
        m.check_invariants().unwrap();
        assert_eq!(m.nvals(), 4);
        assert_eq!(m.extract_element(0, 3), Some(30));
        assert_eq!(m.extract_element(2, 2), Some(7));
        assert_eq!(m.extract_element(2, 3), None);
        assert_eq!(m.row(0).0, &[1, 3]);
        assert_eq!(m.row_ptr(), [0, 2, 3, 4]);
        assert_eq!(m.to_triples(), [(0, 1, 10), (0, 3, 30), (1, 0, 5), (2, 2, 7)]);
    }

    #[test]
    fn from_triples_last_wins_on_duplicates() {
        let m = SparseMatrix::from_triples(2, 2, &[(0, 0, 1), (0, 0, 2), (0, 0, 3)]).unwrap();
        assert_eq!(m.nvals(), 1);
        assert_eq!(m.extract_element(0, 0), Some(3));
    }

    #[test]
    fn from_triples_dup_combines() {
        let m =
            SparseMatrix::from_triples_dup(2, 2, &[(0, 0, 1), (0, 0, 2), (1, 1, 5)], |a, b| a + b)
                .unwrap();
        assert_eq!(m.extract_element(0, 0), Some(3));
        assert_eq!(m.extract_element(1, 1), Some(5));
    }

    #[test]
    fn from_triples_rejects_out_of_bounds() {
        assert!(SparseMatrix::from_triples(2, 2, &[(2, 0, 1)]).is_err());
        assert!(SparseMatrix::from_triples(2, 2, &[(0, 2, 1)]).is_err());
    }

    #[test]
    fn equality_ignores_representation() {
        let a = small();
        // Built in reverse order with a repeated coordinate: same entries.
        let mut shuffled = a.to_triples();
        shuffled.reverse();
        shuffled.push(shuffled[0]);
        assert_eq!(a, SparseMatrix::from_triples(3, 4, &shuffled).unwrap());
        assert_ne!(a, SparseMatrix::from_triples(3, 4, &shuffled[..2]).unwrap());
    }

    #[test]
    fn iteration_is_row_major_sorted() {
        let m = small();
        let triples: Vec<_> = m.iter().collect();
        let mut sorted = triples.clone();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        assert_eq!(triples, sorted);
    }
}
