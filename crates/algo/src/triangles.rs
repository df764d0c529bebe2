//! Triangle counting in the "Sandia" formulation,
//! `ntri = Σ (L ⊙ (L ·(+,pair) Lᵀ))` where `L` is the strictly lower
//! triangle of the symmetrised, loop-free adjacency matrix, read as
//! Gustavson's row-wise product: entry `(i, j)` of `L · Lᵀ` is the size of
//! the intersection of the sorted rows `L[i]` and `L[j]`, and the mask asks
//! for it only where `j` is in `L[i]`. `L` is built by the stored leaves'
//! counting sort from one direction of each relation, and row `L[i]` is
//! marked in a bitmap while each `L[j]` is intersected with it.

use graphblas::{Bitmap, DeltaMatrix, Index, Scalar};

/// Number of undirected triangles in the union of `sources`, counting each
/// triangle once. Each stored pair `(u, v)` is the edge `{u, v}`: edge
/// direction, a pair stored in several sources or in both directions, and
/// self-loops are all ignored, as in LAGraph's `LAGr_TriangleCount`.
pub fn triangle_count<T: Scalar>(sources: &[&DeltaMatrix<T>]) -> u64 {
    // L: each vertex's neighbours below it, ascending and each once.
    let n = sources.iter().map(|s| s.nrows().max(s.ncols())).max().unwrap_or(0);
    let edges = |f: &mut dyn FnMut(Index, Index)| {
        for s in sources {
            s.runs(|u, cols, _| {
                let below = cols.iter().map(|&v| Index::from(v)).filter(|&v| v != u);
                below.for_each(|v| f(u.max(v), u.min(v)));
            });
        }
    };
    let lower = DeltaMatrix::from_pairs(n, n, edges, |_, _| ()).expect("stored pairs in bounds");
    // Triangle {w < u < v} is counted once, at entry (v, u), by w: a member
    // of L[u] (so below u) that L[v], marked in `in_lv`, holds too. `lower`
    // has nothing pending, so each row is one run.
    let (mut in_lv, mut triangles) = (Bitmap::new(n), 0);
    lower.runs(|_, lv, _| {
        lv.iter().for_each(|&u| _ = in_lv.insert(Index::from(u)));
        for &u in lv {
            lower.any_in_row(Index::from(u), |w| {
                triangles += u64::from(in_lv.contains(w));
                false
            });
        }
        lv.iter().for_each(|&u| _ = in_lv.remove(Index::from(u)));
    });
    triangles
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas::SparseMatrix;

    /// The count over the stored edges, and over them with their transpose.
    fn count(dim: u64, edges: &[(u64, u64)]) -> u64 {
        let triples: Vec<(u64, u64, bool)> = edges.iter().map(|&(s, t)| (s, t, true)).collect();
        let adj = DeltaMatrix::from_matrix(SparseMatrix::from_triples(dim, dim, &triples).unwrap());
        let both = triangle_count(&[&adj]);
        assert_eq!(triangle_count(&[&adj.transposed()]), both);
        both
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
