//! Matrix transposition (`GrB_transpose`) via a linear-time counting sort.
//!
//! RedisGraph keeps each relation matrix's transpose alongside the original so
//! that right-to-left traversals (`(a)<-[]-(b)`) are as cheap as forward ones.
//! The store builds its transposes leaf by leaf
//! ([`crate::DeltaMatrix::transposed`]); this whole-matrix kernel serves
//! rgbench's ladder (its `graphblas.transpose` rung) and the tests only; T9a
//! deletes that use.

use crate::matrix::SparseMatrix;
use crate::types::Scalar;
use crate::Index;

/// Return `Aᵀ`.
///
/// Runs in `O(nnz + nrows + ncols)` time using a counting sort over columns.
pub fn transpose<T: Scalar>(a: &SparseMatrix<T>) -> SparseMatrix<T> {
    let nrows = a.nrows();
    let ncols = a.ncols();
    let nnz = a.nvals();

    // Count entries per output row (= input column).
    let mut counts = vec![0usize; ncols as usize + 1];
    for &c in a.col_indices() {
        counts[c as usize + 1] += 1;
    }
    for i in 0..ncols as usize {
        counts[i + 1] += counts[i];
    }
    let row_ptr = counts.clone();

    let mut col_idx = vec![0 as Index; nnz];
    let mut values = vec![T::zero(); nnz];
    let mut cursor = counts;
    for r in 0..nrows {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals.iter()) {
            let pos = cursor[c as usize];
            col_idx[pos] = r;
            values[pos] = v;
            cursor[c as usize] += 1;
        }
    }
    SparseMatrix::from_csr(ncols, nrows, row_ptr, col_idx, values).expect("a valid CSR")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_swaps_coordinates() {
        let a = SparseMatrix::from_triples(2, 3, &[(0, 2, 1i64), (1, 0, 2), (1, 1, 3)]).unwrap();
        let t = transpose(&a);
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.extract_element(2, 0), Some(1));
        assert_eq!(t.extract_element(0, 1), Some(2));
        assert_eq!(t.extract_element(1, 1), Some(3));
        assert_eq!(t.nvals(), 3);
        t.check_invariants().unwrap();
    }

    #[test]
    fn double_transpose_is_identity() {
        let a =
            SparseMatrix::from_triples(5, 4, &[(0, 0, 1.5), (2, 3, 2.5), (4, 1, 3.5), (4, 2, 4.5)])
                .unwrap();
        assert_eq!(transpose(&transpose(&a)), a);
    }

    #[test]
    fn transpose_of_empty_matrix() {
        let a = SparseMatrix::<bool>::new(3, 7);
        let t = transpose(&a);
        assert_eq!(t.nrows(), 7);
        assert_eq!(t.ncols(), 3);
        assert_eq!(t.nvals(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn transpose_preserves_entry_count_per_column() {
        let a =
            SparseMatrix::from_triples(3, 3, &[(0, 1, true), (1, 1, true), (2, 1, true)]).unwrap();
        let t = transpose(&a);
        assert_eq!(t.row_degree(1), 3);
        assert_eq!(t.row_degree(0), 0);
    }
}
