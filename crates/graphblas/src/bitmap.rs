//! Bitmap vertex sets and the two structural BFS-step kernels built on
//! them.
//!
//! SuiteSparse:GraphBLAS keeps a vector whose entries are dense enough in
//! *bitmap* format — one presence bit per position, O(1) test and insert —
//! rather than as sorted index lists (Davis, *Algorithm 1000*, TOMS 2019). A
//! breadth-first search keeps its visited set in that format and takes each
//! level in whichever direction scans fewer edges (Beamer et al.,
//! *Direction-Optimizing Breadth-First Search*, SC'12):
//!
//! * [`bfs_scan`] then [`bfs_push`] — `next⟨¬visited⟩ = frontier any.pair
//!   A`, a complement-masked `vxm` that scans the out-edges of a sparse
//!   frontier;
//! * [`bfs_pull`] — `next⟨¬visited⟩ = Aᵀ any.pair frontier`, a masked
//!   product with the transpose that scans the in-edges of each unvisited
//!   vertex and stops at the first one in a dense frontier.
//!
//! Both read only the matrix pattern, a row at a time in place
//! ([`DeltaMatrix::each_in_rows`], [`DeltaMatrix::rows_reaching`]), so one
//! kernel serves a delta matrix with or without pending changes,
//! whatever its value type: a relation matrix holding edge ids and its
//! stored transpose holding none. Both apply the mask a word of 64 vertices
//! at a time and emit `next` ascending: a push ORs every scanned edge of
//! each matrix, through its own generic scan, into a [`Reached`] set, with
//! no test or branch per edge, and then takes
//! `reached ∧ ¬visited` word by word; a pull tests only the unvisited rows
//! of each word. Neither allocates.
//!
//! The `algo` crate's algorithms and every whole-matrix copy read stored
//! matrices in place too: [`DeltaMatrix::runs`] walks every row in order,
//! and [`union_row`] merges one row of several relations.

use crate::delta::DeltaMatrix;
use crate::types::Scalar;
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
}

/// The positions of the set bits of `word`, ascending, offset by `base`.
pub(crate) fn ones(base: Index, mut word: u64) -> impl Iterator<Item = Index> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros();
            word &= word - 1;
            base + Index::from(bit)
        })
    })
}

/// The columns of `row` in the union of `sources`, into `buf`, ascending and
/// each once: a pair stored in two sources is one entry of the union.
pub fn union_row<T: Scalar>(sources: &[&DeltaMatrix<T>], row: Index, buf: &mut Vec<u32>) {
    buf.clear();
    for s in sources {
        s.any_run(row, |cols, _| {
            buf.extend_from_slice(cols);
            false
        });
    }
    if sources.len() > 1 {
        buf.sort_unstable();
        buf.dedup();
    }
}

/// The vertices one push level's [`bfs_scan`]s reach: one bit per vertex
/// and no count, so a scan sets a bit per edge with no test or branch.
/// [`bfs_push`] moves its new vertices into the visited [`Bitmap`] and
/// empties it, so one serves every level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reached {
    size: Index,
    words: Vec<u64>,
}

impl Reached {
    /// An empty set over positions `0..size`.
    pub fn new(size: Index) -> Self {
        Reached { size, words: vec![0; size.div_ceil(64) as usize] }
    }
}

/// The scan of one push (top-down) BFS level over one source `a`: the
/// columns of `a`'s `frontier` rows are ORed into `reached`, one bit per
/// scanned edge and no test. A level over the union of several sources
/// (`next⟨¬visited⟩ = frontier any.pair (A₁ ∨ A₂ ∨ …)`), of any value
/// types, scans each of them into one `reached` and then takes one
/// [`bfs_push`]. Only the pattern of `a` is read.
///
/// # Panics
/// Panics if `reached` and `a`'s columns differ in size, or if a frontier
/// vertex is not a row of `a`.
pub fn bfs_scan<T: Scalar>(a: &DeltaMatrix<T>, frontier: &[Index], reached: &mut Reached) {
    assert_eq!(reached.size, a.ncols(), "bfs_scan dimension mismatch: reached != a.ncols");
    a.each_in_rows(frontier, |j| reached.words[(j / 64) as usize] |= 1 << (j % 64));
}

/// The word pass that ends a push level after its [`bfs_scan`]s: one pass
/// over the words moves `reached ∧ ¬visited` into `visited` and appends it
/// to `next`, so `next` comes out ascending and each vertex once, however
/// many edges reach it. `reached` is empty again on return.
///
/// # Panics
/// Panics if `visited` and `reached` differ in size.
pub fn bfs_push(reached: &mut Reached, visited: &mut Bitmap, next: &mut Vec<Index>) {
    assert_eq!(visited.size(), reached.size, "bfs_push dimension mismatch: visited != reached");
    // Each fresh vertex is emitted once, so `next` grows by the count.
    let emitted = next.len();
    for (w, (reached, seen)) in reached.words.iter_mut().zip(&mut visited.words).enumerate() {
        let fresh = std::mem::take(reached) & !*seen;
        *seen |= fresh;
        if fresh != 0 {
            next.extend(ones(w as Index * 64, fresh));
        }
    }
    visited.nvals += next.len() - emitted;
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
    at: &DeltaMatrix<T>,
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
        let found = at.rows_reaching(base, !visited.words[w] & in_range, frontier);
        visited.words[w] |= found;
        visited.nvals += found.count_ones() as usize;
        next.extend(ones(base, found));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparseMatrix;

    /// A stored matrix holding `triples`.
    fn stored<T: Scalar>(n: Index, triples: &[(Index, Index, T)]) -> DeltaMatrix<T> {
        DeltaMatrix::from_matrix(SparseMatrix::from_triples(n, n, triples).unwrap())
    }

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

    /// One push step from `visited`: `next`, after checking that the step
    /// handed `reached` back empty.
    fn push<T: Scalar>(
        a: &[&DeltaMatrix<T>],
        frontier: &[Index],
        visited: &mut Bitmap,
    ) -> Vec<Index> {
        let (mut reached, mut next) = (Reached::new(visited.size()), Vec::new());
        a.iter().for_each(|a| bfs_scan(*a, frontier, &mut reached));
        bfs_push(&mut reached, visited, &mut next);
        assert_eq!(reached, Reached::new(visited.size()), "`reached` comes back empty");
        next
    }

    #[test]
    fn push_skips_visited_and_emits_ascending() {
        // 0→2, 0→1, 1→3, 2→3
        let a = stored(4, &[(0, 2, 7u64), (0, 1, 9), (1, 3, 1), (2, 3, 1)]);
        let mut visited = Bitmap::new(4);
        visited.insert(0);
        visited.insert(2);
        assert_eq!(push(&[&a], &[0], &mut visited), vec![1]);
        assert_eq!(push(&[&a], &[2, 1], &mut visited), vec![3], "3 is reached twice, emitted once");
        assert_eq!(visited.nvals(), 4);
        // Two sources are one step: their union, ascending, each vertex once.
        let b = stored(4, &[(1, 2, 1u64), (1, 0, 1)]);
        let mut visited = Bitmap::new(4);
        visited.insert(1);
        assert_eq!(push(&[&a, &b], &[1], &mut visited), vec![0, 2, 3]);
        assert_eq!(visited.nvals(), 4);
    }

    #[test]
    fn push_into_the_last_partial_word() {
        // 130 vertices: the third word holds positions 128 and 129 only.
        // Hub 0 reaches 63, 64, 127, 128 and 129 (the last twice, through
        // 1); the word pass must count and emit exactly the unvisited ones.
        let edges = [(0, 129, true), (0, 128, true), (0, 64, true), (0, 63, true), (0, 127, true)];
        let a = stored(130, &[&edges[..], &[(1, 129, true)]].concat());
        let mut visited = Bitmap::new(130);
        visited.insert(0);
        visited.insert(128);
        assert_eq!(push(&[&a], &[1, 0], &mut visited), vec![63, 64, 127, 129]);
        assert_eq!(visited.nvals(), 6);
        assert_eq!(visited.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 129]);
        assert!(push(&[&a], &[0, 1], &mut visited).is_empty());
        assert_eq!(visited.nvals(), 6);
    }

    #[test]
    fn steps_over_a_delta_matrix_equal_the_steps_over_its_export() {
        // Four 1 024-row leaves, the last one partial. Leaf 0 is dirty: row 1
        // holds a pending insert (1, 7), an insert shadowing the main entry
        // (1, 5) and a pending delete of the main entry (1, 9); row 4's only
        // change is a pending delete of (4, 9); both main entries of row 5
        // are pending deletes; rows 6 and 960 have no main entry but a
        // pending insert; row 3 has no change of its own but shares row 1's
        // dirty chunk; rows 300, 520 and 700 lie in clean chunks. Leaf 1 was
        // folded after row 1 030 gained its first entry and row 1 500 lost
        // its only one. Leaf 2 holds only a pending insert, leaf 3 only main
        // entries, one of them in its last row.
        let n = 3 * 1024 + 100;
        let main = [(1, 2), (1, 5), (1, 9), (3, 1), (3, 5), (4, 2), (4, 9), (5, 2), (5, 9)];
        let main = [&main[..], &[(300, 1), (300, 3), (300, 700), (520, 300), (700, 3), (700, 9)]];
        let main = [&main.concat()[..], &[(1100, 9), (1500, 1), (2047, 3), (3171, 9)]].concat();
        let triples: Vec<_> = main.iter().map(|&(r, c)| (r, c, r * n + c)).collect();
        let mut delta = stored(n, &triples);
        delta.set_element(1030, 7, 0);
        delta.remove_element(1500, 1).unwrap();
        delta.flush();
        delta.set_element(1, 7, 0);
        delta.set_element(1, 5, 0);
        delta.remove_element(1, 9).unwrap();
        delta.remove_element(4, 9).unwrap();
        delta.remove_element(5, 2).unwrap();
        delta.remove_element(5, 9).unwrap();
        delta.set_element(6, 9, 0);
        delta.set_element(960, 1, 0);
        delta.set_element(2100, 5, 0);
        assert_eq!(delta.pending_count(), 9);
        delta.check_invariants().unwrap();
        let export = delta.export();
        assert_eq!(export.row(1).0, &[2, 5, 7]);
        assert_eq!(delta.nvals(), export.nvals());
        for row in 0..n {
            assert_eq!(delta.degree_sum(&[row]), export.row_degree(row) as u64, "row {row}");
        }
        // The same entries folded, as a matrix with nothing pending.
        let folded = DeltaMatrix::from_matrix(export);

        let bitmap = |set: &[Index]| {
            let mut bits = Bitmap::new(n);
            set.iter().for_each(|&v| _ = bits.insert(v));
            bits
        };
        let sets: [&[Index]; 10] = [
            &[1],
            &[9],
            &[7],
            &[5],
            &[3, 300],
            &[1, 3, 300, 520, 700],
            &[0, 2, 9],
            &[5, 6, 960, 1030, 1500, 2100],
            &[2047, 3171],
            &[1, 2, 3, 5, 7, 9, 300, 700],
        ];
        for set in sets {
            for seen in [&[][..], &[3, 5, 6][..]] {
                // One step from the `seen` state: what it found, in order,
                // and the visited set it left.
                let step = |kernel: &dyn Fn(&mut Bitmap, &mut Vec<Index>)| {
                    let (mut visited, mut next) = (bitmap(seen), Vec::new());
                    kernel(&mut visited, &mut next);
                    (next, visited)
                };
                assert_eq!(
                    step(&|v, next| *next = push(&[&delta], set, v)),
                    step(&|v, next| *next = push(&[&folded], set, v)),
                    "push from {set:?}, visited {seen:?}"
                );
                let frontier = bitmap(set);
                assert_eq!(
                    step(&|v, next| bfs_pull(&delta, &frontier, v, next)),
                    step(&|v, next| bfs_pull(&folded, &frontier, v, next)),
                    "pull to {set:?}, visited {seen:?}"
                );
            }
        }
        // Rows reach their pending inserts and their folded entries, not
        // their pending deletes or the entries a fold dropped.
        let pull = |set: &[Index]| {
            let mut next = Vec::new();
            bfs_pull(&delta, &bitmap(set), &mut bitmap(&[]), &mut next);
            next
        };
        assert_eq!(pull(&[9]), vec![6, 700, 1100, 3171]);
        assert_eq!(pull(&[7]), vec![1, 1030]);
        assert_eq!(pull(&[1]), vec![3, 300, 960]);
        assert_eq!(pull(&[5]), vec![1, 3, 2100]);
    }

    #[test]
    fn pull_ignores_the_slack_bits_of_the_last_word() {
        // 70 vertices: every one but 69 has an in-edge from 0; the pull must
        // find exactly 1..=68 and never report a position past the size.
        let triples: Vec<(u64, u64, bool)> = (1..69).map(|v| (v, 0, true)).collect();
        let at = stored(70, &triples);
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
