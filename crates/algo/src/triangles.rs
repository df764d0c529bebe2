//! Triangle counting in the "Sandia" formulation,
//! `ntri = Σ (L ⊙ (L ·(+,pair) Lᵀ))` where `L` is the strictly lower
//! triangle of the symmetrised, loop-free adjacency matrix, read as
//! Gustavson's row-wise product: entry `(i, j)` of `L · Lᵀ` is the size of
//! the intersection of the sorted rows `L[i]` and `L[j]`, and the mask asks
//! for it only where `j` is in `L[i]`. Row `L[i]` is marked in a bitmap
//! while each `L[j]` is intersected with it.

use graphblas::{union_row, Bitmap, Index, RowSource};

/// Number of undirected triangles in the union of `sources`, counting each
/// triangle once. `sources` must hold both directions of every relation
/// (each relation matrix and its transpose), so that a vertex's merged row
/// is its undirected neighbourhood. Edge direction, a pair stored in several
/// sources and self-loops are all ignored, as in LAGraph's
/// `LAGr_TriangleCount`.
pub fn triangle_count<R: RowSource>(sources: &[&R]) -> u64 {
    // L: each vertex's neighbours below it, ascending, as one CSR.
    let (mut row_ptr, mut lower, mut row) = (vec![0], Vec::new(), Vec::new());
    let n = sources.iter().map(|s| s.nrows()).max().unwrap_or(0);
    for v in 0..n {
        union_row(sources, v, &mut row);
        lower.extend_from_slice(&row[..row.partition_point(|&u| u < v)]);
        row_ptr.push(lower.len());
    }
    let lower_row = |v: Index| &lower[row_ptr[v as usize]..row_ptr[v as usize + 1]];
    // Triangle {w < u < v} is counted once, at entry (v, u), by w: a member
    // of L[u] (so below u) that L[v], marked in `in_lv`, holds too.
    let (mut in_lv, mut triangles) = (Bitmap::new(n), 0);
    for v in 0..n {
        let lv = lower_row(v);
        lv.iter().for_each(|&u| _ = in_lv.insert(u));
        for &u in lv {
            triangles += lower_row(u).iter().filter(|&&w| in_lv.contains(w)).count() as u64;
        }
        lv.iter().for_each(|&u| _ = in_lv.remove(u));
    }
    triangles
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas::prelude::{transpose, SparseMatrix};

    fn count(dim: u64, edges: &[(u64, u64)]) -> u64 {
        let triples: Vec<(u64, u64, bool)> = edges.iter().map(|&(s, t)| (s, t, true)).collect();
        let adj = SparseMatrix::from_triples(dim, dim, &triples).unwrap();
        triangle_count(&[&adj, &transpose(&adj)])
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
