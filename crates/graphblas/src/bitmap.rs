//! Bitmap vertex sets, [`RowSource`] (the one way to read a stored matrix),
//! and the two structural BFS-step kernels built on them.
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
//! * [`bfs_pull`] — `next⟨¬visited⟩ = Aᵀ any.pair frontier`, a masked
//!   product with the transpose that scans the in-edges of each unvisited
//!   vertex and stops at the first one in a dense frontier.
//!
//! Both read only the matrix pattern, a row at a time through [`RowSource`],
//! so one kernel serves any CSR matrix and a delta matrix with pending
//! changes alike. Both apply the mask a word of 64 vertices at a time and
//! emit `next` ascending: a push ORs every scanned edge into a bitmap of
//! reached vertices, with no test or branch per edge, and then takes
//! `reached ∧ ¬visited` word by word; a pull tests only the unvisited rows
//! of each word. Neither allocates.
//!
//! The `algo` crate's algorithms and every whole-matrix copy read stored
//! matrices through [`RowSource`] too: [`RowSource::runs`] walks every row
//! in order, and [`union_row`] merges one row of several relations.

use crate::matrix::SparseMatrix;
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

/// A matrix read in place, a row at a time or in one row-major walk: the
/// one way the BFS-step kernels, the `algo` crate and every whole-matrix
/// copy read a stored matrix.
pub trait RowSource {
    /// The stored value type.
    type Value: Scalar;
    /// Number of rows.
    fn nrows(&self) -> Index;
    /// Number of columns.
    fn ncols(&self) -> Index;
    /// Call `f` on the entries of `row` as runs of ascending columns with
    /// their values, in column order, until it returns `true`; returns
    /// whether it did. A row may come as several runs, some of them empty.
    fn any_run(&self, row: Index, f: impl FnMut(&[Index], &[Self::Value]) -> bool) -> bool;

    /// Call `f(row, cols, vals)` on every run of the matrix, row-major, as
    /// [`RowSource::any_run`] splits each row: the whole-matrix walk. Rows
    /// with no entry may be skipped.
    fn runs(&self, f: impl FnMut(Index, &[Index], &[Self::Value]));

    /// Call `f` on the columns of `row`, ascending, until it returns `true`;
    /// returns whether it did.
    fn any_in_row(&self, row: Index, mut f: impl FnMut(Index) -> bool) -> bool {
        self.any_run(row, |cols, _| cols.iter().any(|&j| f(j)))
    }

    /// Call `f` on the columns of each of `rows` in turn: a push step's unit
    /// of work. A source stored in blocks of rows looks a block up once for
    /// a run of rows in it.
    fn each_in_rows(&self, rows: &[Index], mut f: impl FnMut(Index)) {
        for &row in rows {
            self.any_in_row(row, |j| {
                f(j);
                false
            });
        }
    }

    /// Of the rows `base + i` for each set bit `i` of `rows` (`base` a
    /// multiple of 64), the ones holding a column in `frontier`, as bits of
    /// the same word: a pull step's unit of work. A source stored in blocks
    /// of rows reads the word's block once.
    fn rows_reaching(&self, base: Index, rows: u64, frontier: &Bitmap) -> u64 {
        let reaches = |&v: &Index| self.any_in_row(v, |u| frontier.contains(u));
        ones(base, rows).filter(reaches).fold(0, |bits, v| bits | 1 << (v - base))
    }
}

/// The columns of `row` in the union of `sources`, into `buf`, ascending and
/// each once: a pair stored in two sources is one entry of the union.
pub fn union_row<R: RowSource>(sources: &[&R], row: Index, buf: &mut Vec<Index>) {
    buf.clear();
    for s in sources {
        s.any_in_row(row, |j| {
            buf.push(j);
            false
        });
    }
    if sources.len() > 1 {
        buf.sort_unstable();
        buf.dedup();
    }
}

impl<T: Scalar> RowSource for SparseMatrix<T> {
    type Value = T;

    fn nrows(&self) -> Index {
        self.nrows()
    }

    fn ncols(&self) -> Index {
        self.ncols()
    }

    fn any_run(&self, row: Index, mut f: impl FnMut(&[Index], &[T]) -> bool) -> bool {
        let (cols, vals) = self.row(row);
        f(cols, vals)
    }

    fn runs(&self, mut f: impl FnMut(Index, &[Index], &[T])) {
        for row in 0..self.nrows() {
            let (cols, vals) = self.row(row);
            if !cols.is_empty() {
                f(row, cols, vals);
            }
        }
    }
}

/// One push (top-down) BFS level over the union of `sources`:
/// `next⟨¬visited⟩ = frontier any.pair (A₁ ∨ A₂ ∨ …)`.
///
/// The columns of the frontier rows of every source are ORed into
/// `reached`, one bit per scanned edge and no test. One pass over the words
/// then moves `reached ∧ ¬visited` into `visited` and appends it to `next`,
/// so `next` comes out ascending and each vertex once, however many edges
/// reach it. `reached` must be all-zero on entry and is all-zero again on
/// return: a caller keeps one for every level. Only the pattern of the
/// sources is read.
///
/// # Panics
/// Panics if `visited`, `reached` and the sources' columns differ in size,
/// or if a frontier vertex is not a row of a source.
pub fn bfs_push<R: RowSource>(
    sources: &[&R],
    frontier: &[Index],
    reached: &mut Bitmap,
    visited: &mut Bitmap,
    next: &mut Vec<Index>,
) {
    assert_eq!(visited.size(), reached.size(), "bfs_push dimension mismatch: visited != reached");
    debug_assert!(reached.words.iter().all(|&w| w == 0), "bfs_push needs an empty `reached`");
    for a in sources {
        assert_eq!(visited.size(), a.ncols(), "bfs_push dimension mismatch: visited != a.ncols");
        a.each_in_rows(frontier, |j| reached.words[(j / 64) as usize] |= 1 << (j % 64));
    }
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
pub fn bfs_pull(
    at: &impl RowSource,
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
    use crate::DeltaMatrix;

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
    fn push(a: &[&impl RowSource], frontier: &[Index], visited: &mut Bitmap) -> Vec<Index> {
        let (mut reached, mut next) = (Bitmap::new(visited.size()), Vec::new());
        bfs_push(a, frontier, &mut reached, visited, &mut next);
        assert_eq!(reached, Bitmap::new(visited.size()), "`reached` comes back all-zero");
        next
    }

    #[test]
    fn push_skips_visited_and_emits_ascending() {
        // 0→2, 0→1, 1→3, 2→3
        let a = SparseMatrix::from_triples(4, 4, &[(0, 2, 7u64), (0, 1, 9), (1, 3, 1), (2, 3, 1)])
            .unwrap();
        let mut visited = Bitmap::new(4);
        visited.insert(0);
        visited.insert(2);
        assert_eq!(push(&[&a], &[0], &mut visited), vec![1]);
        assert_eq!(push(&[&a], &[2, 1], &mut visited), vec![3], "3 is reached twice, emitted once");
        assert_eq!(visited.nvals(), 4);
        // Two sources are one step: their union, ascending, each vertex once.
        let b = SparseMatrix::from_triples(4, 4, &[(1, 2, 1u64), (1, 0, 1)]).unwrap();
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
        let a = SparseMatrix::from_triples(130, 130, &[&edges[..], &[(1, 129, true)]].concat())
            .unwrap();
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
        let mut delta =
            DeltaMatrix::from_matrix(SparseMatrix::from_triples(n, n, &triples).unwrap());
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
                    step(&|v, next| *next = push(&[&export], set, v)),
                    "push from {set:?}, visited {seen:?}"
                );
                let frontier = bitmap(set);
                assert_eq!(
                    step(&|v, next| bfs_pull(&delta, &frontier, v, next)),
                    step(&|v, next| bfs_pull(&export, &frontier, v, next)),
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
