//! Weakly connected components by union-find (LAGraph's `LAGr_ConnectedComponents`
//! answer, without its sampling): one pass over every stored edge links its
//! endpoints' trees.

use crate::dim;
use graphblas::{DeltaMatrix, Index, Scalar};

/// Component labels for the vertex set `nodes` of the union of `sources`,
/// ignoring edge direction. Each vertex is labelled with the smallest vertex
/// id of its weakly connected component, so labels are canonical: two
/// vertices are connected iff their labels are equal.
///
/// One walk of each source's rows reads every stored edge once, so a row
/// with changes pending is merged once per call. Each edge finds its
/// endpoints' roots, halving the paths it walks (a row's own root is found
/// once), and links the larger root under the smaller. A root so stays the
/// smallest id of its tree, and each vertex's root is its component's
/// smallest id. Parents are `u32`s, as stored columns are.
///
/// # Panics
/// Panics if a stored column, or a vertex of `nodes`, lies beyond the
/// dense arrays or past `u32::MAX`.
pub fn wcc<T: Scalar>(sources: &[&DeltaMatrix<T>], nodes: &[Index]) -> Vec<(Index, Index)> {
    let dim = u32::try_from(dim(sources, nodes)).expect("vertex ids a u32 holds");
    let mut parent: Vec<u32> = (0..dim).collect();
    for s in sources {
        s.runs(|u, cols, _| {
            let mut ru = root(&mut parent, u as u32);
            for &v in cols {
                let rv = root(&mut parent, v);
                parent[ru.max(rv) as usize] = ru.min(rv);
                ru = ru.min(rv);
            }
        });
    }
    nodes.iter().map(|&v| (v, Index::from(root(&mut parent, v as u32)))).collect()
}

/// The root of `v`'s tree, each vertex on the way pointed at its
/// grandparent (path halving).
fn root(parent: &mut [u32], mut v: u32) -> u32 {
    loop {
        let p = parent[v as usize];
        let grandparent = parent[p as usize];
        if grandparent == p {
            return p;
        }
        parent[v as usize] = grandparent;
        v = grandparent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas::{DeltaMatrix, SparseMatrix};

    fn labels(dim: u64, edges: &[(u64, u64)], n: u64) -> Vec<(u64, u64)> {
        let triples: Vec<(u64, u64, bool)> = edges.iter().map(|&(s, t)| (s, t, true)).collect();
        let adj = DeltaMatrix::from_matrix(SparseMatrix::from_triples(dim, dim, &triples).unwrap());
        let nodes: Vec<u64> = (0..n).collect();
        wcc(&[&adj], &nodes)
    }

    #[test]
    fn two_components_get_two_labels() {
        // {0,1,2} chained, {3,4} chained, 5 isolated
        let l = labels(8, &[(0, 1), (1, 2), (3, 4)], 6);
        assert_eq!(l, vec![(0, 0), (1, 0), (2, 0), (3, 3), (4, 3), (5, 5)]);
    }

    #[test]
    fn direction_is_ignored() {
        // 0→1 and 2→1: all three are weakly connected.
        let l = labels(4, &[(0, 1), (2, 1)], 3);
        assert!(l.iter().all(|&(_, c)| c == 0));
    }

    #[test]
    fn long_path_converges() {
        // Up the ids and down them.
        let edges: Vec<(u64, u64)> = (0..9).map(|i| (i, i + 1)).collect();
        let l = labels(10, &edges, 10);
        assert!(l.iter().all(|&(_, c)| c == 0));
        let edges: Vec<(u64, u64)> = (0..9).map(|i| (9 - i, 8 - i)).collect();
        let l = labels(10, &edges, 10);
        assert!(l.iter().all(|&(_, c)| c == 0));
    }

    #[test]
    fn empty_node_set() {
        assert!(labels(4, &[], 0).is_empty());
    }
}
