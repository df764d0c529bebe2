//! Bitmap vertex sets and the two structural BFS-step kernels built on them.
//!
//! SuiteSparse:GraphBLAS keeps a vector whose entries are dense enough in
//! *bitmap* format — one presence bit per position, O(1) test and insert —
//! rather than as sorted index lists (Davis, *Algorithm 1000*, TOMS 2019). A
//! breadth-first search keeps its visited set in that format and takes each
//! level in whichever direction scans fewer edges (Beamer et al.,
//! *Direction-Optimizing Breadth-First Search*, SC'12):
//!
//! * [`bfs_push`] — `next⟨¬visited⟩ = frontier any.pair A`, a
//!   complement-masked `vxm` that scans the out-edges of a sparse frontier;
//! * [`bfs_pull`] — `next⟨¬visited⟩ = Aᵀ any.pair frontier`, an `mxv` over
//!   the transpose that scans the in-edges of each unvisited vertex and stops
//!   at the first one in a dense frontier.
//!
//! Both read only the matrix pattern, so one kernel serves boolean adjacency
//! and edge-id-valued relation matrices alike. Both test the mask in O(1) and
//! insert discovered vertices into `visited` in place, so a product for an
//! already-visited vertex costs one bit test and no allocation.

use crate::matrix::SparseMatrix;
use crate::types::Scalar;
use crate::vector::SparseVector;
use crate::Index;

/// A set of positions `0..size` stored as one bit per position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    size: Index,
    words: Vec<u64>,
    nvals: usize,
}

impl Bitmap {
    /// An empty set over positions `0..size`.
    pub fn new(size: Index) -> Self {
        Bitmap { size, words: vec![0; size.div_ceil(64) as usize], nvals: 0 }
    }

    /// The pattern of a sparse vector (values are ignored).
    pub fn from_vector<T: Scalar>(v: &SparseVector<T>) -> Self {
        let mut bitmap = Bitmap::new(v.size());
        for &i in v.indices() {
            bitmap.insert(i);
        }
        bitmap
    }

    /// Logical length of the set's universe.
    pub fn size(&self) -> Index {
        self.size
    }

    /// Number of positions in the set.
    pub fn nvals(&self) -> usize {
        self.nvals
    }

    /// Whether position `i` is in the set.
    ///
    /// # Panics
    /// Panics if `i` lies beyond the last word of the bitmap.
    #[inline]
    pub fn contains(&self, i: Index) -> bool {
        self.words[(i / 64) as usize] & (1 << (i % 64)) != 0
    }

    /// Add position `i`; returns whether it was absent before.
    ///
    /// # Panics
    /// Panics if `i` lies beyond the last word of the bitmap (debug builds
    /// check `i < size()` exactly).
    #[inline]
    pub fn insert(&mut self, i: Index) -> bool {
        debug_assert!(i < self.size, "bitmap index {i} out of bounds for size {}", self.size);
        // The word is indexed twice on purpose: holding a `&mut` to it while
        // updating `nvals` is miscompiled by rustc 1.95 at -O once inlined
        // (the count stops moving); the bitmap unit tests catch it.
        let (w, bit) = ((i / 64) as usize, 1u64 << (i % 64));
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.nvals += usize::from(fresh);
        fresh
    }

    /// Remove position `i`; returns whether it was present.
    pub fn remove(&mut self, i: Index) -> bool {
        let (w, bit) = ((i / 64) as usize, 1u64 << (i % 64));
        let present = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        self.nvals -= usize::from(present);
        present
    }

    /// Empty the set, keeping its size and allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.nvals = 0;
    }

    /// The positions in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = Index> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| ones(w as Index * 64, word))
    }

    /// The set as a boolean sparse vector of the same size (every stored
    /// value `true`), in one ascending pass over the words.
    pub fn to_vector(&self) -> SparseVector<bool> {
        let mut indices = Vec::with_capacity(self.nvals);
        indices.extend(self.iter());
        SparseVector::from_sorted_parts(self.size, indices, vec![true; self.nvals])
    }
}

/// The positions of the set bits of `word`, ascending, offset by `base`.
fn ones(base: Index, mut word: u64) -> impl Iterator<Item = Index> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros();
            word &= word - 1;
            base + Index::from(bit)
        })
    })
}

/// One push (top-down) BFS level: `next⟨¬visited⟩ = frontier any.pair A`.
///
/// Every column `j` of a row `i ∈ frontier` of `a` that is not yet in
/// `visited` is inserted into `visited` and appended to `next`, in discovery
/// order. Only the pattern of `a` is read.
///
/// # Panics
/// Panics if `visited.size() != a.ncols()` or if a frontier vertex is not a
/// row of `a`.
pub fn bfs_push<T: Scalar>(
    a: &SparseMatrix<T>,
    frontier: &[Index],
    visited: &mut Bitmap,
    next: &mut Vec<Index>,
) {
    assert_eq!(visited.size(), a.ncols(), "bfs_push dimension mismatch: visited.size != a.ncols");
    for &i in frontier {
        for &j in a.row(i).0 {
            if visited.insert(j) {
                next.push(j);
            }
        }
    }
}

/// One pull (bottom-up) BFS level over `at = Aᵀ`:
/// `next⟨¬visited⟩ = Aᵀ any.pair frontier`.
///
/// Every row `v` of `at` that is not in `visited` and holds a column in
/// `frontier` is inserted into `visited` and appended to `next`, ascending.
/// The `any` monoid is terminal, so each row scan stops at its first
/// frontier column. Only the pattern of `at` is read.
///
/// # Panics
/// Panics if `visited.size() != at.nrows()` or if
/// `frontier.size() != at.ncols()`.
pub fn bfs_pull<T: Scalar>(
    at: &SparseMatrix<T>,
    frontier: &Bitmap,
    visited: &mut Bitmap,
    next: &mut Vec<Index>,
) {
    assert_eq!(visited.size(), at.nrows(), "bfs_pull dimension mismatch: visited.size != at.nrows");
    assert_eq!(
        frontier.size(),
        at.ncols(),
        "bfs_pull dimension mismatch: frontier.size != at.ncols"
    );
    let size = visited.size;
    for w in 0..visited.words.len() {
        let base = w as Index * 64;
        // Bits past `size` in the last word are not positions.
        let in_range = if size - base >= 64 { !0 } else { (1 << (size - base)) - 1 };
        for v in ones(base, !visited.words[w] & in_range) {
            if at.row(v).0.iter().any(|&u| frontier.contains(u)) {
                visited.words[w] |= 1 << (v - base);
                visited.nvals += 1;
                next.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut b = Bitmap::new(130);
        assert_eq!(b.nvals(), 0);
        assert!(b.insert(0));
        assert!(b.insert(64));
        assert!(b.insert(129));
        assert!(!b.insert(64), "second insert reports present");
        assert_eq!(b.nvals(), 3);
        assert!(b.contains(129) && !b.contains(128));
        assert!(b.remove(64));
        assert!(!b.remove(64));
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![0, 129]);
        b.clear();
        assert!(b.nvals() == 0 && !b.contains(0));
        assert_eq!(b.size(), 130);
    }

    #[test]
    fn push_skips_visited_and_keeps_discovery_order() {
        // 0→2, 0→1, 1→3, 2→3
        let a = SparseMatrix::from_triples(4, 4, &[(0, 2, 7u64), (0, 1, 9), (1, 3, 1), (2, 3, 1)])
            .unwrap();
        let mut visited = Bitmap::new(4);
        visited.insert(0);
        visited.insert(2);
        let mut next = Vec::new();
        bfs_push(&a, &[0], &mut visited, &mut next);
        assert_eq!(next, vec![1]);
        next.clear();
        bfs_push(&a, &[2, 1], &mut visited, &mut next);
        assert_eq!(next, vec![3], "3 is reached twice but emitted once");
        assert_eq!(visited.nvals(), 4);
    }

    #[test]
    fn pull_ignores_the_slack_bits_of_the_last_word() {
        // 70 vertices: every one but 69 has an in-edge from 0; the pull must
        // find exactly 1..=68 and never report a position past the size.
        let triples: Vec<(u64, u64, bool)> = (1..69).map(|v| (v, 0, true)).collect();
        let at = SparseMatrix::from_triples(70, 70, &triples).unwrap();
        let mut frontier = Bitmap::new(70);
        frontier.insert(0);
        let mut visited = frontier.clone();
        let mut next = Vec::new();
        bfs_pull(&at, &frontier, &mut visited, &mut next);
        assert_eq!(next, (1..69).collect::<Vec<_>>());
        assert_eq!(visited.nvals(), 69);
        assert!(!visited.contains(69));
    }
}
