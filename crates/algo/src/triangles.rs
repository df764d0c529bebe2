//! Triangle counting with the "Sandia" masked-SpGEMM formulation:
//! `ntri = Σ (L ⊙ (L ·(+,pair) Lᵀ))` where `L` is the strictly lower triangle
//! of the symmetrised, loop-free adjacency matrix.

use graphblas::prelude::*;

/// Number of undirected triangles in `adj`, counting each triangle once.
/// Edge direction, parallel edges (one stored entry per pair) and self-loops
/// are all ignored, as in LAGraph's `LAGr_TriangleCount`.
pub fn triangle_count(adj: &SparseMatrix<bool>) -> u64 {
    // Undirected, loop-free structure.
    let sym = ewise_add_matrix(adj, &transpose(adj), &BinaryOp::LOr);
    let sym = select_matrix(&sym, &SelectOp::OffDiag);
    let lower = select_matrix(&sym, &SelectOp::StrictLower);

    // The mask is the bool pattern; the operand carries u64 so PLUS_PAIR can
    // count matched wedges.
    let lower_triples: Vec<(u64, u64, u64)> = lower.iter().map(|(r, c, _)| (r, c, 1u64)).collect();
    let l = SparseMatrix::from_triples(lower.nrows(), lower.ncols(), &lower_triples)
        .expect("in bounds");

    // C⟨L⟩ = L ·(+,pair) Lᵀ: C[i][j] counts the common lower neighbours of i
    // and j, evaluated only on positions where the edge (i, j) exists — each
    // triangle {k < j < i} is counted exactly once, at entry (i, j).
    let mask = MatrixMask::new(&lower);
    let desc = Descriptor::new().with_transpose_b().with_mask_structure();
    let wedges = mxm(&l, &l, &Semiring::<u64>::plus_pair(), Some(&mask), &desc);
    reduce_matrix_to_scalar(&wedges, &graphblas::monoid::plus_monoid())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(dim: u64, edges: &[(u64, u64)]) -> u64 {
        let triples: Vec<(u64, u64, bool)> = edges.iter().map(|&(s, t)| (s, t, true)).collect();
        triangle_count(&SparseMatrix::from_triples(dim, dim, &triples).unwrap())
    }

    #[test]
    fn single_triangle() {
        assert_eq!(count(3, &[(0, 1), (1, 2), (2, 0)]), 1);
    }

    #[test]
    fn direction_and_reciprocal_edges_do_not_double_count() {
        // Same triangle with every edge also stored reversed.
        assert_eq!(count(3, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]), 1);
    }

    #[test]
    fn k4_has_four_triangles() {
        let edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        assert_eq!(count(4, &edges), 4);
    }

    #[test]
    fn trees_and_cycles_without_chords_have_none() {
        assert_eq!(count(4, &[(0, 1), (0, 2), (0, 3)]), 0);
        assert_eq!(count(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]), 0);
    }

    #[test]
    fn self_loops_are_ignored() {
        assert_eq!(count(3, &[(0, 0), (0, 1), (1, 2), (2, 0)]), 1);
    }
}
