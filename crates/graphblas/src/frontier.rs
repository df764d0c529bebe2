//! Frontier matrices for algebraic traversal of a record batch.
//!
//! RedisGraph evaluates a fused `MATCH` chain for a *batch* of execution-plan
//! records at once: every distinct bound source node contributes one row to a
//! **frontier matrix** `F` (`batch × nodes`, one stored entry per row), the
//! chain becomes the product `C = F ⊕.⊗ A₁ ⊕.⊗ A₂ …` over the relations'
//! matrices, and row `i` of `C` holds exactly the destinations reachable from
//! source `i` (with path counts under the counting semiring). This module builds `F` from `(row, node)` pairs; the result
//! rows are read back out with [`SparseMatrix::row`].
//!
//! rgbench's ladder only (the operand of its `mxm` rung); T9a deletes. The
//! fused traversal (`exec/algebraic.rs` in `redisgraph-core`) reads the
//! stored rows in place a frontier row at a time instead.

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
        let (cols, _) = f.row(2);
        assert_eq!(cols, &[5]);
    }

    #[test]
    fn frontier_mxm_carries_edge_ids_to_destinations() {
        // Edges (stored value = edge id): 0→1 (e7), 0→2 (e9), 1→2 (e4).
        let a = SparseMatrix::from_triples(4, 4, &[(0, 1, 7u64), (0, 2, 9), (1, 2, 4)]).unwrap();
        // Two records: record 0 at node 0, record 1 at node 1.
        let f = frontier_matrix::<u64>(2, 4, &[(0, 0), (1, 1)], 1);
        let c = mxm(&f, &a, &Semiring::plus_times(), None, &Descriptor::default());
        let (cols, vals) = c.row(0);
        assert_eq!(cols, &[1, 2]);
        assert_eq!(vals, &[7, 9]);
        let (cols, vals) = c.row(1);
        assert_eq!(cols, &[2]);
        assert_eq!(vals, &[4]);
    }
}
