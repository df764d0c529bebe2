//! Frontier matrices for batched algebraic traversal.
//!
//! RedisGraph evaluates a `MATCH` traversal for a *batch* of execution-plan
//! records at once: every record contributes one row to a **frontier matrix**
//! `F` (`batch × nodes`, one stored entry per row at the record's bound source
//! node), the relation step becomes `C = F ⊕.⊗ A` over the relation's
//! adjacency matrix, and row `i` of `C` holds exactly the destinations (and,
//! with an edge-id-valued `A` under an `any_second` semiring, the traversed
//! edge ids) reachable from record `i`'s source. This module provides the two
//! small helpers on either side of the `mxm`: building `F` from `(record,
//! node)` pairs and probing the result rows back out into records.

use crate::matrix::SparseMatrix;
use crate::types::Scalar;
use crate::Index;

/// Build a `nrows × ncols` frontier matrix with one stored `value` at each of
/// the given `(row, col)` coordinates. Rows without a coordinate stay empty
/// (a record whose source is unbound simply produces no output); duplicate
/// coordinates collapse to one entry. The result is ready to be handed to
/// [`crate::mxm`].
///
/// # Panics
/// Panics if any coordinate is out of bounds.
pub fn frontier_matrix<T: Scalar>(
    nrows: Index,
    ncols: Index,
    entries: &[(Index, Index)],
    value: T,
) -> SparseMatrix<T> {
    let triples: Vec<(Index, Index, T)> = entries.iter().map(|&(r, c)| (r, c, value)).collect();
    SparseMatrix::from_triples(nrows, ncols, &triples).expect("frontier coordinate out of bounds")
}

/// Probe one row of a traversal product: the `(column, value)` entries of row
/// `row` in ascending column order, as borrowed CSR slices. For `C = F ⊕.⊗ A`
/// the columns are the destination node ids reached by the record whose
/// frontier row this is, and the values carry whatever the semiring
/// propagated (edge ids under `any_second`, `true` under `lor_land`).
pub fn probe_row<T: Scalar>(c: &SparseMatrix<T>, row: Index) -> (&[Index], &[T]) {
    c.row(row)
}

/// The boolean structure of a matrix: same pattern, every stored value `true`.
/// Used to fold several edge-id-valued relation matrices into one boolean
/// matrix for a variable-length (BFS) traversal, where only the pattern
/// matters. O(nnz), reuses the CSR arrays.
pub fn structure<T: Scalar>(m: &SparseMatrix<T>) -> SparseMatrix<bool> {
    let nnz = m.nvals();
    SparseMatrix::from_csr_parts(
        m.nrows(),
        m.ncols(),
        m.row_ptr().to_vec(),
        m.col_indices().to_vec(),
        vec![true; nnz],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Descriptor;
    use crate::mxm::mxm;
    use crate::semiring::Semiring;

    #[test]
    fn frontier_rows_hold_one_entry_per_record() {
        let f = frontier_matrix::<bool>(4, 8, &[(0, 3), (2, 5), (3, 3)], true);
        assert_eq!(f.nvals(), 3);
        assert_eq!(f.extract_element(0, 3), Some(true));
        assert_eq!(f.extract_element(1, 0), None);
        let (cols, _) = probe_row(&f, 2);
        assert_eq!(cols, &[5]);
    }

    #[test]
    fn frontier_mxm_carries_edge_ids_to_destinations() {
        // Edges (stored value = edge id): 0→1 (e7), 0→2 (e9), 1→2 (e4).
        let a = SparseMatrix::from_triples(4, 4, &[(0, 1, 7u64), (0, 2, 9), (1, 2, 4)]).unwrap();
        // Two records: record 0 at node 0, record 1 at node 1.
        let f = frontier_matrix::<u64>(2, 4, &[(0, 0), (1, 1)], 1);
        let c = mxm(&f, &a, &Semiring::any_second(), None, &Descriptor::default());
        let (cols, vals) = probe_row(&c, 0);
        assert_eq!(cols, &[1, 2]);
        assert_eq!(vals, &[7, 9]);
        let (cols, vals) = probe_row(&c, 1);
        assert_eq!(cols, &[2]);
        assert_eq!(vals, &[4]);
    }

    #[test]
    fn structure_preserves_pattern() {
        let a = SparseMatrix::from_triples(3, 3, &[(0, 1, 42u64), (2, 0, 7)]).unwrap();
        let s = structure(&a);
        assert_eq!(s.nvals(), 2);
        assert_eq!(s.extract_element(0, 1), Some(true));
        assert_eq!(s.extract_element(2, 0), Some(true));
        assert_eq!(s.extract_element(1, 1), None);
    }
}
