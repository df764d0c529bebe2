//! Breadth-first search levels via level-synchronous complement-masked
//! `vxm` — the canonical GraphBLAS algorithm (LAGraph
//! `LAGr_BreadthFirstSearch`).

use graphblas::prelude::*;
use graphblas::Index;

/// Hop distance of every reachable vertex from `source` following directed
/// edges of `adj`. The source gets level `0`; vertices the BFS never reaches
/// have no entry in the returned vector.
///
/// Each round is one [`bfs_push`] — `vxm` over the `ANY_PAIR` structural
/// semiring with the bitmap visited set as a complemented mask — so a vertex
/// is assigned the level of the *first* frontier that touches it. Every
/// round reuses one `reached` bitmap and emits its frontier ascending. Levels
/// are kept in a dense array and gathered into the sparse result once, at
/// the end.
///
/// # Panics
/// Panics if `source >= adj.nrows()`.
pub fn bfs_levels(adj: &SparseMatrix<bool>, source: Index) -> SparseVector<i64> {
    assert!(source < adj.nrows(), "bfs source {source} out of bounds");
    let mut levels = vec![0i64; adj.nrows() as usize];
    let mut visited = Bitmap::new(adj.nrows());
    visited.insert(source);
    let mut reached = Bitmap::new(adj.nrows());
    let mut frontier = vec![source];

    let mut level = 0i64;
    while !frontier.is_empty() {
        level += 1;
        let mut next = Vec::new();
        bfs_push(&[adj], &frontier, &mut reached, &mut visited, &mut next);
        for &v in &next {
            levels[v as usize] = level;
        }
        frontier = next;
    }
    let entries: Vec<(Index, i64)> = visited.iter().map(|v| (v, levels[v as usize])).collect();
    SparseVector::from_entries(adj.nrows(), &entries).expect("visited vertices are in bounds")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> SparseMatrix<bool> {
        // 0→1, 0→2, 1→3, 2→3, 3→4; vertex 5 isolated
        SparseMatrix::from_triples(
            6,
            6,
            &[(0, 1, true), (0, 2, true), (1, 3, true), (2, 3, true), (3, 4, true)],
        )
        .unwrap()
    }

    #[test]
    fn levels_match_hop_distances() {
        let levels = bfs_levels(&diamond(), 0);
        assert_eq!(levels.extract_element(0), Some(0));
        assert_eq!(levels.extract_element(1), Some(1));
        assert_eq!(levels.extract_element(2), Some(1));
        assert_eq!(levels.extract_element(3), Some(2));
        assert_eq!(levels.extract_element(4), Some(3));
        assert_eq!(levels.extract_element(5), None);
    }

    #[test]
    fn bfs_from_a_sink_reaches_only_itself() {
        let levels = bfs_levels(&diamond(), 4);
        assert_eq!(levels.nvals(), 1);
        assert_eq!(levels.extract_element(4), Some(0));
    }

    #[test]
    fn shortcut_edges_produce_the_shorter_level() {
        let adj =
            SparseMatrix::from_triples(4, 4, &[(0, 1, true), (1, 2, true), (0, 2, true)]).unwrap();
        let levels = bfs_levels(&adj, 0);
        assert_eq!(levels.extract_element(2), Some(1));
    }

    #[test]
    fn cycles_terminate() {
        let adj =
            SparseMatrix::from_triples(3, 3, &[(0, 1, true), (1, 2, true), (2, 0, true)]).unwrap();
        let levels = bfs_levels(&adj, 0);
        assert_eq!(levels.extract_element(0), Some(0));
        assert_eq!(levels.extract_element(1), Some(1));
        assert_eq!(levels.extract_element(2), Some(2));
    }
}
