//! Delta matrices: RedisGraph's production answer to write amplification.
//!
//! A [`DeltaMatrix`] stores its rows in ranges of `LEAF_ROWS` (1 024) rows,
//! the leaves of a copy-on-write [`ChunkTable`]. A leaf holds its range's
//! **main** entries as an immutable CSR slice and, while it has changes
//! pending, two small buffers per `CHUNK_ROWS` (64) rows:
//!
//! * **delta-plus** (`DP`) — entries inserted (or overwritten) since the
//!   leaf's last fold, keyed by coordinate;
//! * **delta-minus** (`DM`) — coordinates of main entries deleted since
//!   then.
//!
//! Every read accessor presents the *merged* view `(M \ DM) ∪ DP` (with `DP`
//! taking precedence over `M` on overlap), so readers never observe a torn
//! state, while each write is an O(log pending) map update instead of a CSR
//! rebuild. A leaf **folds** alone, into a fresh leaf, once its pending
//! structural changes — inserts of new entries and deletes of main entries
//! — reach its share of the flush threshold: the threshold divided by the
//! number of leaves, at least one. The threshold so stays a cap on the whole
//! matrix's pending changes, and a threshold of 1 folds every insert and
//! delete. A `DP` entry that overwrites a main entry's value is buffered like
//! any other but not counted: RedisGraph writes such an overwrite into `M`
//! in place, which an immutable leaf cannot take. [`DeltaMatrix::flush`]
//! folds every leaf with changes pending. This is the crate's only
//! pending-update mechanism: [`SparseMatrix`] itself has no write path.
//!
//! A fold copies each 64-row chunk with nothing pending as one slice, and
//! walks the rows of the others in order, visiting each row's pending
//! changes in column order and copying the main entries between them as
//! whole slices. Both buffers are kept sorted by coordinate, so the fold
//! hashes and sorts nothing, and it costs one leaf's entries however large
//! the matrix is. A row read ([`DeltaMatrix::any_run`], under the BFS kernels
//! too) walks one row the same way. A leaf with changes
//! pending counts every row's: a row with none is its CSR slice, a read
//! searches only the buffers holding the row's changes, and a merged degree
//! is O(1). A leaf with nothing pending carries no buffers and no counts.
//!
//! Each CSR slice carries a mask of its non-empty rows, 16 words, built with
//! the slice. A pull step ANDs each 64-row word of unvisited rows with it,
//! and with a dirty chunk also ORs in the rows with an insert pending, so it
//! reads only rows that can hold an entry: those with nothing pending
//! straight from the slice, the rest merged. Whole-matrix walks (`export`,
//! `to_triples`, `transposed`) skip rows the same way. At rgbench's scale
//! 15, where 8 944 of the 32 768 rows of the transpose are empty, a
//! typical `khop_k6` seed's fifth hop, a pull finding ~10 vertices, took
//! 28–53 µs while every unvisited row was read and takes 7–12 µs so; its
//! fourth, finding 1 300–2 000, took 88–154 µs and takes 55–99 µs
//! (`examples/khop_hops.rs`, three runs each, shared 2-core x86 host).
//!
//! A stored column is a `u32` (so no dimension passes [`MAX_DIM`]), and a
//! stored transpose or label diagonal is a `DeltaMatrix<()>`, its columns
//! alone: narrower adjacency is smaller and, traversal being memory-bound,
//! faster to read (Ligra+, Shun, Dhulipala & Blelloch, DCC 2015). A stored
//! edge at rgbench's scale 15 so costs 12.3 B in its relation and 4.3 B in
//! the transpose, against 16.3 B in each with `u64` columns and copied
//! cells (`examples/load_memory.rs`). [`DeltaMatrix::from_pairs`], a
//! counting sort, builds every matrix that no fold makes.
//!
//! Invariants (checked by [`DeltaMatrix::check_invariants`]):
//!
//! * `DM` only names coordinates that exist in its leaf's main entries;
//! * `DP` and `DM` are disjoint — a delete of a pending insert simply drops
//!   the `DP` entry, and an insert over a pending delete drops the `DM` entry;
//! * each leaf holds only rows of its own range, is never kept empty, keeps
//!   no empty buffers, and counts each row's changes exactly;
//! * each CSR slice's rows ascend, and its mask names exactly its non-empty
//!   rows.
//!
//! ## Snapshots
//!
//! A clone — the consistent snapshot a reader takes — bumps the table's root
//! however many entries or pending changes the matrix holds. A write after a
//! clone copies the leaf it touches, sharing the leaf's CSR slice and every
//! buffer chunk but the one it writes, which it copies; and that leaf's path
//! through the table. A fold publishes a fresh leaf in its slot and leaves
//! the old one to the clones that hold it, so a clone reads every row as it
//! was, and the last clone's drop frees only the leaves that no newer state
//! shares. No step copies or frees more than one leaf's entries. Taking a
//! snapshot after each of 25 000 random edge inserts on Graph500 scale 15
//! (0.78 M edges, 2-core x86 host, `examples/fold_pause.rs`), the slowest
//! insert, a fold of the heaviest leaf (172 k entries), takes 1.8 ms and the
//! slowest snapshot drop 34 µs, where a whole-matrix fold took 26 ms and the
//! drop that freed the old matrices 2.1 ms; at scale 18 (6.7 M edges),
//! 8.5 ms and 98 µs against 252 ms and 20 ms. A leaf is a range of rows,
//! so it cannot bound its entries: Graph500's low ids are its hubs, and the
//! first 1 024 rows hold 0.64 M entries at scale 18.

use crate::bitmap::{ones, Bitmap};
use crate::chunk_table::ChunkTable;
use crate::error::{check_index, GrbError, GrbResult};
use crate::matrix::SparseMatrix;
use crate::types::Scalar;
use crate::Index;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::mem::size_of_val;
use std::sync::{Arc, Weak};

/// Default number of pending changes that caps a matrix's buffers
/// (RedisGraph ships `DELTA_MAX_PENDING_CHANGES = 10000`).
pub const DEFAULT_FLUSH_THRESHOLD: usize = 10_000;

/// Rows per leaf: the range a fold rebuilds. A push step and a degree sum
/// look a leaf up once for a run of rows in it, a pull step once per 64
/// rows. With 64-row leaves, two table levels deep at rgbench's 32 768
/// rows, rgbench's `khop_k6` ran ~25% slower than over one CSR; with
/// 1 024-row leaves, one level, ~5% slower while a pull read every
/// unvisited row, and at ~1.5× that qps once it read only the rows that can
/// hold an entry (ten paired runs, 2-core x86 host).
const LEAF_ROWS: Index = 1024;
/// Rows per pending-change chunk: the part of a leaf's buffers that a write
/// after a clone copies.
const CHUNK_ROWS: Index = 64;
/// Chunks per leaf.
const CHUNKS: usize = (LEAF_ROWS / CHUNK_ROWS) as usize;
/// The largest dimension a delta matrix takes: a stored column is a `u32`.
pub const MAX_DIM: Index = u32::MAX as Index;
/// 64-row words per leaf, in a CSR slice's mask of non-empty rows.
const WORDS: usize = (LEAF_ROWS / 64) as usize;
// A bitmap word of 64 rows is one chunk of one leaf (`rows_reaching`).
const _: () = assert!(CHUNK_ROWS == 64 && LEAF_ROWS.is_multiple_of(CHUNK_ROWS));

/// One leaf: the main entries of one `LEAF_ROWS`-row range, and its pending
/// changes while it has any.
#[derive(Clone, Debug)]
pub struct Leaf<T> {
    /// The folded rows, shared by every copy of the leaf that a write after
    /// a clone makes.
    main: Arc<Csr<T>>,
    pending: Option<Box<Pending<T>>>,
}

/// The main entries of a leaf's rows: row offset `o` is
/// `cols[row_ptr[o]..row_ptr[o + 1]]`, ascending, with its `vals`.
#[derive(Debug)]
struct Csr<T> {
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<T>,
    /// Bit `o % 64` of word `o / 64` is set when row offset `o` has an
    /// entry, so a pull step skips the rows with none a word at a time.
    nonempty: [u64; WORDS],
}

/// The pending changes of one leaf, by `CHUNK_ROWS`-row chunk: a write
/// after a clone copies this table of chunk pointers and one chunk.
#[derive(Clone, Debug)]
struct Pending<T> {
    /// Slot `k` holds the changes of the leaf's `k`-th chunk of rows, and is
    /// empty while that chunk has none.
    chunks: [Option<Arc<Chunk<T>>>; CHUNKS],
    /// Entries across every chunk's `DP` and `DM`.
    entries: usize,
    /// The `DP` entries that overwrite a main entry's value: not structural
    /// changes, so not counted toward the fold threshold.
    overwrites: usize,
}

/// The pending changes of one `CHUNK_ROWS`-row range.
#[derive(Clone, Debug)]
struct Chunk<T> {
    /// `DP`: entries inserted or overwritten since the leaf's last fold.
    plus: BTreeMap<(Index, Index), T>,
    /// `DM`: main coordinates deleted since the leaf's last fold.
    minus: BTreeSet<(Index, Index)>,
    /// What each row of the range (by offset) has pending, so a reader
    /// learns it without searching either tree.
    rows: [RowChanges; CHUNK_ROWS as usize],
}

/// The pending changes of one row: its entries in `DP` and in `DM`, and its
/// merged degree minus its main degree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RowChanges {
    plus: u32,
    minus: u32,
    degree: i32,
}

/// The slot of `row`'s leaf.
fn slot(row: Index) -> usize {
    (row / LEAF_ROWS) as usize
}

/// The position of `row` in its leaf.
fn offset(row: Index) -> usize {
    (row % LEAF_ROWS) as usize
}

/// Number of leaves covering `nrows` rows.
fn leaf_count(nrows: Index) -> usize {
    nrows.div_ceil(LEAF_ROWS) as usize
}

impl<T: Scalar> Csr<T> {
    /// A CSR with no row ended yet, to be filled row by row.
    fn open(capacity: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(LEAF_ROWS as usize + 1);
        row_ptr.push(0);
        let (cols, vals) = (Vec::with_capacity(capacity), Vec::with_capacity(capacity));
        Csr { row_ptr, cols, vals, nonempty: [0; WORDS] }
    }

    /// End every row before offset `o`; a row given no entry stays empty.
    fn end_rows(&mut self, o: usize) {
        self.row_ptr.resize(o + 1, self.cols.len());
    }

    /// The main entries of the row at offset `o`.
    fn row(&self, o: usize) -> (&[u32], &[T]) {
        let (start, end) = (self.row_ptr[o], self.row_ptr[o + 1]);
        (&self.cols[start..end], &self.vals[start..end])
    }

    /// The main value at row offset `o`, column `col`.
    fn get(&self, o: usize, col: Index) -> Option<T> {
        let (cols, vals) = self.row(o);
        let col = u32::try_from(col).ok()?;
        cols.binary_search(&col).ok().map(|p| vals[p])
    }

    /// Bytes of the three arrays.
    fn bytes(&self) -> usize {
        size_of_val(&self.row_ptr[..]) + size_of_val(&self.cols[..]) + size_of_val(&self.vals[..])
    }

    /// The checks that hold for as long as the slice lives, since no leaf
    /// changes the slice it holds: its arrays agree, its rows ascend and its
    /// mask names exactly its non-empty rows.
    fn check(&self) -> Result<(), String> {
        let ptr = &self.row_ptr;
        if ptr.len() != LEAF_ROWS as usize + 1
            || ptr[0] != 0
            || ptr[LEAF_ROWS as usize] != self.cols.len()
            || self.vals.len() != self.cols.len()
        {
            return Err("its CSR arrays disagree".into());
        }
        for o in 0..LEAF_ROWS as usize {
            let (start, end) = (ptr[o], ptr[o + 1]);
            if start > end || self.cols[start..end].windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("row offset {o} is unsorted"));
            }
            if (self.nonempty[o / 64] >> (o % 64) & 1 == 1) != (start < end) {
                return Err(format!("its mask disagrees at row offset {o}"));
            }
        }
        Ok(())
    }
}

impl<T> Default for Pending<T> {
    fn default() -> Self {
        Pending { chunks: Default::default(), entries: 0, overwrites: 0 }
    }
}

impl<T> Default for Chunk<T> {
    fn default() -> Self {
        let rows = [RowChanges::default(); CHUNK_ROWS as usize];
        Chunk { plus: BTreeMap::new(), minus: BTreeSet::new(), rows }
    }
}

/// The slot of `row`'s chunk in its leaf.
fn chunk_slot(row: Index) -> usize {
    offset(row) / CHUNK_ROWS as usize
}

impl<T: Scalar> Pending<T> {
    /// Buffered structural changes: what the fold threshold counts.
    fn changes(&self) -> usize {
        self.entries - self.overwrites
    }

    /// The chunk holding `row`'s changes, for writing: created if absent,
    /// copied first if a clone shares it.
    fn chunk_mut(&mut self, row: Index) -> &mut Chunk<T> {
        Arc::make_mut(self.chunks[chunk_slot(row)].get_or_insert_with(Default::default))
    }
}

impl<T: Scalar> Leaf<T> {
    /// A leaf of `main`'s rows with nothing pending, or none if it has no
    /// entry.
    fn clean(mut main: Csr<T>) -> Option<Self> {
        main.end_rows(LEAF_ROWS as usize);
        main.cols.shrink_to_fit();
        main.vals.shrink_to_fit();
        main.nonempty = [0; WORDS];
        for o in 0..LEAF_ROWS as usize {
            main.nonempty[o / 64] |= u64::from(main.row_ptr[o] < main.row_ptr[o + 1]) << (o % 64);
        }
        (!main.cols.is_empty()).then(|| Leaf { main: Arc::new(main), pending: None })
    }

    /// The chunk holding `row`'s pending changes, if it has any.
    fn chunk(&self, row: Index) -> Option<&Chunk<T>> {
        self.pending.as_ref()?.chunks[chunk_slot(row)].as_deref()
    }

    /// Of the 64 rows from offset `first` (a multiple of 64, so one chunk's):
    /// the ones that may hold an entry, having a main entry or an insert
    /// pending, and the ones with changes pending, as bits by row.
    fn word(&self, first: usize) -> (u64, u64) {
        let (mut live, mut changed) = (self.main.nonempty[first / 64], 0);
        let chunk = self.pending.as_ref().and_then(|p| p.chunks[first / 64].as_deref());
        for (o, r) in chunk.iter().flat_map(|c| c.rows.iter().enumerate()) {
            live |= u64::from(r.plus > 0) << o;
            changed |= u64::from(r.plus + r.minus > 0) << o;
        }
        (live, changed)
    }

    /// The merged degree of `row`.
    fn degree(&self, row: Index) -> isize {
        let pending =
            self.chunk(row).map_or(0, |c| c.rows[row as usize % CHUNK_ROWS as usize].degree);
        self.main.row(offset(row)).0.len() as isize + pending as isize
    }

    /// `row`'s merged entries as runs, until `f` returns `true` (returns
    /// whether it did): the CSR row itself when the row has nothing
    /// pending, otherwise as [`any_run`] splits it.
    fn any_run(&self, row: Index, mut f: impl FnMut(&[u32], &[T]) -> bool) -> bool {
        let (cols, vals) = self.main.row(offset(row));
        let Some(p) = self.chunk(row) else { return f(cols, vals) };
        let RowChanges { plus, minus, .. } = p.rows[row as usize % CHUNK_ROWS as usize];
        if plus + minus == 0 {
            return f(cols, vals);
        }
        // A buffer with none of the row's changes is not searched at all.
        let plus = (plus > 0).then(|| p.plus.range((row, 0)..).take(plus as usize));
        let plus = plus.into_iter().flatten().map(|(&(_, c), v)| (c as u32, v));
        let minus = (minus > 0).then(|| p.minus.range((row, 0)..).take(minus as usize));
        any_run((cols, vals), plus, minus.into_iter().flatten().map(|&(_, c)| c as u32), f)
    }

    /// The fold: this leaf's merged rows, starting at row `first`, written
    /// into `out`, an emptied CSR. A chunk of rows with nothing pending is
    /// copied as one slice of the main entries, its row pointers shifted;
    /// only the rows of the other chunks are merged.
    fn fold_into(&self, first: Index, mut out: Csr<T>) -> Csr<T> {
        let chunks = self.pending.as_deref().map_or(&[][..], |p| &p.chunks[..]);
        let dirty = chunks.iter().flatten();
        let degrees = dirty.flat_map(|c| c.rows.iter().map(|r| r.degree as isize));
        let nvals = (self.main.cols.len() as isize + degrees.sum::<isize>()) as usize;
        out.cols.reserve_exact(nvals);
        out.vals.reserve_exact(nvals);
        let main = &self.main;
        for k in 0..CHUNKS {
            let rows = k * CHUNK_ROWS as usize..(k + 1) * CHUNK_ROWS as usize;
            if chunks.get(k).is_some_and(Option::is_some) {
                for o in rows {
                    self.any_run(first + o as Index, |cols, vals| {
                        out.cols.extend_from_slice(cols);
                        out.vals.extend_from_slice(vals);
                        false
                    });
                    out.end_rows(o + 1);
                }
                continue;
            }
            let (start, end, base) =
                (main.row_ptr[rows.start], main.row_ptr[rows.end], out.cols.len());
            out.cols.extend_from_slice(&main.cols[start..end]);
            out.vals.extend_from_slice(&main.vals[start..end]);
            let ends = &main.row_ptr[rows.start + 1..=rows.end];
            out.row_ptr.extend(ends.iter().map(|&p| p - start + base));
        }
        out
    }
}

/// A sparse matrix with buffered mutations, stored as leaves of main CSR
/// rows and their pending additions and deletions, each leaf folded on its
/// own.
#[derive(Clone, Debug)]
pub struct DeltaMatrix<T: Scalar> {
    /// Slot `i` holds rows `i * LEAF_ROWS .. (i + 1) * LEAF_ROWS`, and is
    /// empty while that range has no entry and nothing pending.
    leaves: ChunkTable<Leaf<T>>,
    nrows: Index,
    ncols: Index,
    /// Entries across every leaf's `DP` and `DM`.
    pending: usize,
    /// Exact number of entries in the merged view, maintained incrementally.
    nvals: usize,
    flush_threshold: usize,
    /// Lifetime count of leaf folds (the observability counter behind
    /// `GRAPH.INFO`'s `delta_flushes`).
    flush_count: u64,
    spares: Spares<T>,
}

/// How many replaced CSR slices a matrix keeps for its next folds.
const SPARES: usize = 2;

/// The CSR slices that folds replaced, kept so that a later fold refills
/// their arrays once no clone holds them. Refilled and regrown in place, an
/// array stays where the allocator first put it: fresh arrays, taken from
/// whichever allocator arena the writing thread uses, would strand the
/// replaced arrays' memory in theirs. A clone starts with none.
#[derive(Debug)]
struct Spares<T>(Vec<Arc<Csr<T>>>);

impl<T> Clone for Spares<T> {
    fn clone(&self) -> Self {
        Spares(Vec::new())
    }
}

impl<T: Scalar> Spares<T> {
    /// A kept slice that no leaf holds any more, emptied.
    fn take(&mut self) -> Option<Csr<T>> {
        let i = self.0.iter().position(|main| Arc::strong_count(main) == 1)?;
        let mut main = Arc::try_unwrap(self.0.swap_remove(i)).ok()?;
        main.row_ptr.truncate(1);
        main.cols.clear();
        main.vals.clear();
        Some(main)
    }

    /// Keep a replaced slice, letting the oldest kept one go.
    fn keep(&mut self, main: Arc<Csr<T>>) {
        if self.0.len() == SPARES {
            self.0.remove(0);
        }
        self.0.push(main);
    }
}

impl<T: Scalar> PartialEq for DeltaMatrix<T> {
    fn eq(&self, other: &Self) -> bool {
        self.nrows() == other.nrows()
            && self.ncols() == other.ncols()
            && self.to_triples() == other.to_triples()
    }
}

impl<T: Scalar> DeltaMatrix<T> {
    /// Create an empty `nrows × ncols` delta matrix with the default flush
    /// threshold. Allocates no leaf. A dimension past [`MAX_DIM`] is an
    /// error, refused before anything is allocated.
    pub fn new(nrows: Index, ncols: Index) -> GrbResult<Self> {
        check_dim(nrows, ncols)?;
        Ok(DeltaMatrix {
            leaves: ChunkTable::new(leaf_count(nrows)),
            nrows,
            ncols,
            pending: 0,
            nvals: 0,
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
            flush_count: 0,
            spares: Spares(Vec::new()),
        })
    }

    /// A delta matrix holding `main`'s entries, with nothing pending: tests,
    /// and rgbench's ladder (T9a deletes that use).
    ///
    /// # Panics
    /// Panics if a dimension of `main` is past [`MAX_DIM`].
    pub fn from_matrix(main: SparseMatrix<T>) -> Self {
        let walk = |f: &mut dyn FnMut(Index, Index)| main.iter().for_each(|(r, c, _)| f(r, c));
        let mut vals = main.raw_values().iter();
        Self::from_pairs(main.nrows(), main.ncols(), walk, |_, _| *vals.next().expect("a value"))
            .expect("dimensions a leaf takes")
    }

    /// The bulk-load path: a matrix with nothing pending from the
    /// `(row, col)` pairs that `walk` hands its callback, built by a
    /// counting sort with no copy of the pairs. `walk` runs twice and must
    /// hand over the same pairs both times, in any order, repeats allowed.
    /// The first walk counts each row's pairs, which sizes every leaf
    /// exactly; the second places each column in its row; then each row is
    /// sorted and deduplicated in place, and `value(row, col)` gives each
    /// entry its value, in row-major order. A pair out of bounds, or a
    /// dimension past [`MAX_DIM`], is an error.
    pub fn from_pairs(
        nrows: Index,
        ncols: Index,
        walk: impl Fn(&mut dyn FnMut(Index, Index)),
        mut value: impl FnMut(Index, Index) -> T,
    ) -> GrbResult<Self> {
        let mut m = Self::new(nrows, ncols)?;
        // Each row's count, then its next free position in its leaf.
        let (mut next, mut outside) = (vec![0usize; nrows as usize], Ok(()));
        walk(&mut |r, c| match check_index(r, nrows).and(check_index(c, ncols)) {
            Ok(()) => next[r as usize] += 1,
            Err(e) => outside = Err(e),
        });
        outside?;
        let mut parts: Vec<Csr<T>> = next
            .chunks_mut(LEAF_ROWS as usize)
            .map(|counts| {
                let mut part = Csr::open(0);
                let mut end = 0;
                for count in counts {
                    (*count, end) = (end, end + *count);
                    part.row_ptr.push(end);
                }
                part.cols = vec![0; end];
                part.end_rows(LEAF_ROWS as usize);
                part
            })
            .collect();
        walk(&mut |r, c| {
            let pos = &mut next[r as usize];
            parts[slot(r)].cols[*pos] = c as u32;
            *pos += 1;
        });
        drop(next);
        for (i, mut part) in parts.into_iter().enumerate() {
            // Each row sorted, and its distinct columns moved down to `end`.
            let (mut start, mut end) = (0, 0);
            part.vals.reserve_exact(part.cols.len());
            for o in 0..LEAF_ROWS as usize {
                let (row_end, row_start) = (part.row_ptr[o + 1], end);
                part.cols[start..row_end].sort_unstable();
                for k in start..row_end {
                    let c = part.cols[k];
                    if end == row_start || part.cols[end - 1] != c {
                        part.cols[end] = c;
                        part.vals.push(value(i as Index * LEAF_ROWS + o as Index, Index::from(c)));
                        end += 1;
                    }
                }
                (start, part.row_ptr[o + 1]) = (row_end, end);
            }
            part.cols.truncate(end);
            m.nvals += end;
            m.leaves.set(i, Leaf::clean(part));
        }
        Ok(m)
    }

    /// The pattern of the merged view's transpose, with nothing pending and
    /// the same fold threshold, built by [`DeltaMatrix::from_pairs`] from two
    /// walks of the leaves ([`DeltaMatrix::runs`]). The walks visit rows in
    /// order, so each transposed row arrives ascending and its sort is one
    /// pass.
    pub fn transposed(&self) -> DeltaMatrix<()> {
        let walk = |f: &mut dyn FnMut(Index, Index)| {
            self.runs(|row, cols, _| cols.iter().for_each(|&c| f(Index::from(c), row)));
        };
        let mut t = DeltaMatrix::from_pairs(self.ncols, self.nrows, walk, |_, _| ())
            .expect("stored entries are in bounds");
        t.flush_threshold = self.flush_threshold;
        t
    }

    /// Number of rows.
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Number of entries in the merged view (exact, O(1)).
    pub fn nvals(&self) -> usize {
        self.nvals
    }

    /// Number of buffered changes awaiting a fold.
    pub fn pending_count(&self) -> usize {
        self.pending
    }

    /// True when no leaf has anything pending: every entry is a main entry.
    pub fn is_flushed(&self) -> bool {
        self.pending == 0
    }

    /// Number of leaf folds this matrix has performed over its lifetime (a
    /// clone inherits its source's count and diverges from there).
    pub fn flush_count(&self) -> u64 {
        self.flush_count
    }

    /// The cap on pending structural changes (inserts of new entries,
    /// deletes of main entries); buffered overwrites of main values do not
    /// count. Each leaf folds at its share of it.
    pub fn flush_threshold(&self) -> usize {
        self.flush_threshold
    }

    /// Set the fold threshold, and fold every leaf already at its new share.
    /// `1` folds every insert and delete at once (the eager behaviour);
    /// large values batch more. Overwrites of main values stay buffered
    /// until a fold. A threshold of `0` is treated as `1`.
    pub fn set_flush_threshold(&mut self, threshold: usize) {
        self.flush_threshold = threshold.max(1);
        let share = self.fold_share();
        self.fold_where(|p| p.changes() >= share);
    }

    // ----------------------------------------------------------- mutation

    /// The leaf holding `row`, if any.
    fn leaf(&self, row: Index) -> Option<&Leaf<T>> {
        self.leaves.get(slot(row))
    }

    /// How many structural changes a leaf buffers before it folds.
    fn fold_share(&self) -> usize {
        (self.flush_threshold / self.leaves.len().max(1)).max(1)
    }

    /// Insert or overwrite a single entry. O(log pending); never rebuilds a
    /// CSR (until its leaf's share of the threshold trips).
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds; see
    /// [`DeltaMatrix::try_set_element`].
    pub fn set_element(&mut self, row: Index, col: Index, value: T) {
        self.try_set_element(row, col, value).expect("index out of bounds");
    }

    /// Fallible element assignment.
    pub fn try_set_element(&mut self, row: Index, col: Index, value: T) -> GrbResult<()> {
        check_index(row, self.nrows())?;
        check_index(col, self.ncols())?;
        let absent = self.extract_element(row, col).is_none();
        self.nvals += usize::from(absent);
        // A leaf is created for a write into an empty range; a leaf a clone
        // shares is copied, buffers only.
        let leaf = self.leaves.get_or_insert_with(slot(row), || {
            let mut main = Csr::open(0);
            main.end_rows(LEAF_ROWS as usize);
            Leaf { main: Arc::new(main), pending: None }
        });
        let p = leaf.pending.get_or_insert_with(Default::default);
        let chunk = p.chunk_mut(row);
        // An insert cancels a pending delete of the same coordinate; the new
        // value still has to shadow the (stale) main entry, so it goes to DP
        // unconditionally.
        let cancelled = chunk.minus.remove(&(row, col));
        let fresh = chunk.plus.insert((row, col), value).is_none();
        let changes = &mut chunk.rows[row as usize % CHUNK_ROWS as usize];
        changes.plus += u32::from(fresh);
        changes.minus -= u32::from(cancelled);
        changes.degree += i32::from(absent);
        p.entries = p.entries + usize::from(fresh) - usize::from(cancelled);
        // A fresh entry over a live or a deleted main entry overwrites it.
        p.overwrites += usize::from(fresh && (!absent || cancelled));
        self.pending = self.pending + usize::from(fresh) - usize::from(cancelled);
        self.maybe_fold(row);
        Ok(())
    }

    /// Delete an entry. Deleting an absent entry is a no-op. A delete of a
    /// pending insert just drops the buffered insert; only main entries earn
    /// a delta-minus record.
    pub fn remove_element(&mut self, row: Index, col: Index) -> GrbResult<()> {
        check_index(row, self.nrows())?;
        check_index(col, self.ncols())?;
        if self.extract_element(row, col).is_none() {
            return Ok(());
        }
        self.nvals -= 1;
        let leaf = self.leaves.get_mut(slot(row)).expect("a live entry has a leaf");
        let in_main = leaf.main.get(offset(row), col).is_some();
        let p = leaf.pending.get_or_insert_with(Default::default);
        let chunk = p.chunk_mut(row);
        let dropped = chunk.plus.remove(&(row, col)).is_some();
        let recorded = in_main && chunk.minus.insert((row, col));
        let changes = &mut chunk.rows[row as usize % CHUNK_ROWS as usize];
        changes.plus -= u32::from(dropped);
        changes.minus += u32::from(recorded);
        changes.degree -= 1;
        if chunk.plus.is_empty() && chunk.minus.is_empty() {
            p.chunks[chunk_slot(row)] = None;
        }
        p.entries = p.entries + usize::from(recorded) - usize::from(dropped);
        p.overwrites -= usize::from(dropped && in_main);
        if p.entries == 0 {
            leaf.pending = None;
            if leaf.main.cols.is_empty() {
                self.leaves.set(slot(row), None);
            }
        }
        self.pending = self.pending + usize::from(recorded) - usize::from(dropped);
        self.maybe_fold(row);
        Ok(())
    }

    /// Grow the matrix: add empty leaf slots, keeping every leaf, pending
    /// changes included. A matrix only grows: shrinking either dimension is
    /// an error, as is a dimension past [`MAX_DIM`], and changes nothing.
    pub fn resize(&mut self, nrows: Index, ncols: Index) -> GrbResult<()> {
        check_dim(nrows, ncols)?;
        if nrows < self.nrows || ncols < self.ncols {
            let (rows, cols) = (self.nrows, self.ncols);
            return Err(GrbError::InvalidValue(format!(
                "{nrows} x {ncols} shrinks {rows} x {cols}"
            )));
        }
        // Readers holding a clone keep the old dimensions.
        self.leaves.resize(leaf_count(nrows));
        (self.nrows, self.ncols) = (nrows, ncols);
        Ok(())
    }

    /// Fold every leaf with changes pending. Cheap no-op when nothing is
    /// pending.
    pub fn flush(&mut self) {
        if !self.is_flushed() {
            self.fold_where(|_| true);
        }
    }

    /// Fold every leaf whose buffers `due` picks.
    fn fold_where(&mut self, due: impl Fn(&Pending<T>) -> bool) {
        let picked =
            |(i, leaf): (usize, &Leaf<T>)| leaf.pending.as_deref().is_some_and(&due).then_some(i);
        let slots: Vec<usize> = self.leaves.iter().filter_map(picked).collect();
        for i in slots {
            self.fold(i);
        }
    }

    /// Fold `row`'s leaf if its structural changes reached its share of the
    /// threshold.
    fn maybe_fold(&mut self, row: Index) {
        let share = self.fold_share();
        let pending = self.leaf(row).and_then(|leaf| leaf.pending.as_deref());
        if pending.is_some_and(|p| p.changes() >= share) {
            self.fold(slot(row));
        }
    }

    /// Merge slot `i`'s buffers into a fresh leaf published in that slot.
    /// The old leaf is only read, never copied or modified: a clone holding
    /// it keeps it, and it is freed when no one does.
    fn fold(&mut self, i: usize) {
        let Some(leaf) = self.leaves.get(i) else { return };
        let Some(p) = leaf.pending.as_deref() else { return };
        self.pending -= p.entries;
        self.flush_count += 1;
        let out = self.spares.take().unwrap_or_else(|| Csr::open(0));
        let folded = Leaf::clean(leaf.fold_into(i as Index * LEAF_ROWS, out));
        self.spares.keep(Arc::clone(&leaf.main));
        self.leaves.set(i, folded);
    }

    // ------------------------------------------------------------ readers

    /// Read a single entry through the merged view.
    pub fn extract_element(&self, row: Index, col: Index) -> Option<T> {
        let leaf = self.leaf(row)?;
        if let Some(chunk) = leaf.chunk(row) {
            if let Some(&v) = chunk.plus.get(&(row, col)) {
                return Some(v);
            }
            if chunk.minus.contains(&(row, col)) {
                return None;
            }
        }
        leaf.main.get(offset(row), col)
    }

    /// Whether the merged view stores an entry at `(row, col)`.
    pub fn contains(&self, row: Index, col: Index) -> bool {
        self.extract_element(row, col).is_some()
    }

    /// Call `f` on the entries of one row of the merged view in ascending
    /// column order until it returns `true`; returns whether it did. A row
    /// with nothing pending is its leaf's CSR slice; otherwise the slice is
    /// walked in runs between the row's pending changes, as by the fold.
    pub fn any_entry_in_row(&self, row: Index, mut f: impl FnMut(Index, T) -> bool) -> bool {
        self.any_run(row, |cols, vals| cols.iter().zip(vals).any(|(&c, &v)| f(Index::from(c), v)))
    }

    /// The merged degrees of `rows`, summed (Beamer's rule asks for a
    /// frontier's).
    pub fn degree_sum(&self, rows: &[Index]) -> u64 {
        self.with_leaves(rows).map(|(row, leaf)| leaf.degree(row) as u64).sum()
    }

    /// Each of `rows` that has a leaf, with it: a run of rows in one leaf
    /// looks it up once.
    fn with_leaves<'a>(&'a self, rows: &'a [Index]) -> impl Iterator<Item = (Index, &'a Leaf<T>)> {
        let mut cached = None;
        rows.iter().filter_map(move |&row| {
            let leaf = match cached {
                Some((i, leaf)) if i == slot(row) => leaf,
                _ => cached.insert((slot(row), self.leaf(row))).1,
            };
            Some((row, leaf?))
        })
    }

    /// Export the merged view as `(row, col, value)` triples in row-major
    /// order.
    pub fn to_triples(&self) -> Vec<(Index, Index, T)> {
        let mut out = Vec::with_capacity(self.nvals);
        let entries = |row, cols: &[u32], vals: &[T]| {
            out.extend(cols.iter().zip(vals).map(|(&c, &v)| (row, Index::from(c), v)));
        };
        self.runs(entries);
        out
    }

    /// Materialise the merged view as a standalone [`SparseMatrix`], in one
    /// walk of the leaves ([`DeltaMatrix::runs`]). Only tests, diagnostics
    /// and rgbench's ladder take one: every production reader (the BFS-step
    /// kernels, the `algo` crate, the label scan) reads the merged rows in
    /// place.
    pub fn export(&self) -> SparseMatrix<T> {
        let mut row_ptr = vec![0; self.nrows as usize + 1];
        let (mut cols, mut vals) = (Vec::with_capacity(self.nvals), Vec::with_capacity(self.nvals));
        self.runs(|row, c, v| {
            row_ptr[row as usize + 1] += c.len();
            cols.extend(c.iter().map(|&c| Index::from(c)));
            vals.extend_from_slice(v);
        });
        for row in 0..self.nrows as usize {
            row_ptr[row + 1] += row_ptr[row];
        }
        SparseMatrix::from_csr(self.nrows, self.ncols, row_ptr, cols, vals).expect("a valid CSR")
    }

    /// The leaves: the table a clone shares (diagnostic/test use, through
    /// [`ChunkTable::ptr_eq`], [`ChunkTable::leaves_not_shared_with`] and
    /// [`ChunkTable::leaves`]).
    pub fn table(&self) -> &ChunkTable<Leaf<T>> {
        &self.leaves
    }

    /// Bytes of the leaves' CSR arrays: the main entries and their row
    /// pointers, not the buffers.
    pub fn main_bytes(&self) -> usize {
        self.leaves.iter().map(|(_, leaf)| leaf.main.bytes()).sum()
    }

    /// Validate the delta-matrix invariants, each leaf's CSR slice included.
    pub fn check_invariants(&self) -> GrbResult<()> {
        self.check_invariants_with(&mut CheckedSlices::default())
    }

    /// [`DeltaMatrix::check_invariants`], checking only the CSR slices that
    /// `checked` does not hold yet and adding them to it: a script that
    /// checks a matrix and its clones after every step checks each slice
    /// once.
    pub fn check_invariants_with(&self, checked: &mut CheckedSlices<T>) -> GrbResult<()> {
        let invalid = |message: String| Err(GrbError::InvalidValue(message));
        let (leaves, nrows) = (self.leaves.len(), self.nrows());
        if leaves != leaf_count(nrows) {
            return invalid(format!("{leaves} leaves for {nrows} rows"));
        }
        let (mut pending, mut nvals) = (0, 0);
        for (i, leaf) in self.leaves.iter() {
            let (first, main) = (i as Index * LEAF_ROWS, &leaf.main);
            if let Entry::Vacant(unchecked) = checked.0.entry(Arc::as_ptr(main)) {
                if let Err(e) = main.check() {
                    return invalid(format!("leaf {i}: {e}"));
                }
                unchecked.insert(Arc::downgrade(main));
            }
            // No entry lies past the matrix's last row or column.
            let past = nrows.saturating_sub(first).min(LEAF_ROWS) as usize;
            let wide = |&c: &u32| Index::from(c) >= self.ncols;
            if main.row_ptr[past] != main.cols.len() || main.cols.iter().any(wide) {
                return invalid(format!("leaf {i} holds an entry out of range"));
            }
            nvals += main.cols.len() as i64;
            let Some(p) = leaf.pending.as_deref() else {
                if main.cols.is_empty() {
                    return invalid(format!("leaf {i} is kept empty"));
                }
                continue;
            };
            let (mut entries, mut overwrites) = (0, 0);
            for (k, chunk) in p.chunks.iter().enumerate() {
                let Some(chunk) = chunk else { continue };
                if chunk.plus.is_empty() && chunk.minus.is_empty() {
                    return invalid(format!("leaf {i} keeps chunk {k} empty"));
                }
                let mut rows = [RowChanges::default(); CHUNK_ROWS as usize];
                let plus = chunk.plus.keys().map(|key| (key, true));
                for (&(r, c), inserted) in plus.chain(chunk.minus.iter().map(|key| (key, false))) {
                    if slot(r) != i || chunk_slot(r) != k {
                        return invalid(format!("({r}, {c}) is buffered in leaf {i}, chunk {k}"));
                    }
                    let in_main = main.get(offset(r), c).is_some();
                    let changes = &mut rows[r as usize % CHUNK_ROWS as usize];
                    if inserted {
                        changes.plus += 1;
                        changes.degree += i32::from(!in_main);
                        overwrites += usize::from(in_main);
                    } else if in_main && !chunk.plus.contains_key(&(r, c)) {
                        changes.minus += 1;
                        changes.degree -= 1;
                    } else {
                        return invalid(format!(
                            "delta-minus names ({r}, {c}), no live main entry"
                        ));
                    }
                }
                if let Some(o) = (0..rows.len()).find(|&o| rows[o] != chunk.rows[o]) {
                    return invalid(format!("leaf {i}, chunk {k} miscounts row offset {o}"));
                }
                entries += chunk.plus.len() + chunk.minus.len();
                nvals += rows.iter().map(|changes| i64::from(changes.degree)).sum::<i64>();
            }
            if entries == 0 || (entries, overwrites) != (p.entries, p.overwrites) {
                let (cached, buffered) = ((p.entries, p.overwrites), (entries, overwrites));
                return invalid(format!(
                    "leaf {i} caches {cached:?} entries, overwrites; {buffered:?}"
                ));
            }
            pending += entries;
        }
        if pending != self.pending {
            return invalid(format!("cached pending count {} != buffered {pending}", self.pending));
        }
        if nvals != self.nvals as i64 {
            return invalid(format!("cached nvals {} != merged count {nvals}", self.nvals));
        }
        Ok(())
    }
}

/// Refuse a dimension past [`MAX_DIM`].
fn check_dim(nrows: Index, ncols: Index) -> GrbResult<()> {
    match nrows.max(ncols) {
        dim if dim > MAX_DIM => Err(GrbError::InvalidValue(format!(
            "dimension {dim} is past {MAX_DIM}, the most a u32 column indexes"
        ))),
        _ => Ok(()),
    }
}

/// The CSR slices that [`DeltaMatrix::check_invariants_with`] has checked,
/// by address. Each is held by a `Weak`, which keeps its allocation, so no
/// later slice can take a checked one's address while this record lasts.
#[derive(Debug)]
pub struct CheckedSlices<T>(HashMap<*const Csr<T>, Weak<Csr<T>>>);

impl<T> Default for CheckedSlices<T> {
    fn default() -> Self {
        CheckedSlices(HashMap::new())
    }
}

/// One row of the merged view as runs, in column order, until `f` returns
/// `true` (returns whether it did): the main row `(cols, vals)` in slices
/// between the row's pending changes, and each pending insert as a slice of
/// one. `plus` and `minus` yield exactly the row's `DP` and `DM` entries,
/// ascending; a main entry at an insert's column is shadowed by it.
fn any_run<'a, T: Scalar>(
    (cols, vals): (&[u32], &'a [T]),
    plus: impl Iterator<Item = (u32, &'a T)>,
    minus: impl Iterator<Item = u32>,
    mut f: impl FnMut(&[u32], &[T]) -> bool,
) -> bool {
    let (mut plus, mut minus) = (plus.peekable(), minus.peekable());
    let mut k = 0;
    loop {
        let insert = plus.peek().copied();
        let Some(col) = insert.map(|(c, _)| c).into_iter().chain(minus.peek().copied()).min()
        else {
            return f(&cols[k..], &vals[k..]);
        };
        let end = k + cols[k..].partition_point(|&c| c < col);
        if f(&cols[k..end], &vals[k..end]) {
            return true;
        }
        // A main entry at `col` is shadowed by the insert or deleted.
        k = if cols.get(end) == Some(&col) { end + 1 } else { end };
        match insert {
            Some((c, v)) if c == col => {
                plus.next();
                if f(std::slice::from_ref(&c), std::slice::from_ref(v)) {
                    return true;
                }
            }
            _ => {
                minus.next();
            }
        }
    }
}

/// The merged view read in place, a row at a time or in one row-major walk:
/// the one way the BFS-step kernels, the `algo` crate and every
/// whole-matrix copy read a stored matrix.
impl<T: Scalar> DeltaMatrix<T> {
    /// Call `f` on the entries of `row` as runs of ascending `u32` columns
    /// with their values, in column order, until it returns `true`; returns
    /// whether it did. A row may come as several runs, some of them empty.
    pub fn any_run(&self, row: Index, f: impl FnMut(&[u32], &[T]) -> bool) -> bool {
        self.leaf(row).is_some_and(|leaf| leaf.any_run(row, f))
    }

    /// Call `f` on the columns of `row`, ascending, until it returns `true`;
    /// returns whether it did.
    pub fn any_in_row(&self, row: Index, mut f: impl FnMut(Index) -> bool) -> bool {
        self.any_run(row, |cols, _| cols.iter().any(|&j| f(Index::from(j))))
    }

    /// Call `f(row, cols, vals)` on every run of the matrix, row-major, as
    /// [`DeltaMatrix::any_run`] splits each row: the whole-matrix walk. A
    /// leaf at a time, and only the rows that may hold an entry (see
    /// [`Leaf::word`]).
    pub fn runs(&self, mut f: impl FnMut(Index, &[u32], &[T])) {
        for (i, leaf) in self.leaves.iter() {
            for first in (0..LEAF_ROWS as usize).step_by(64) {
                let base = i as Index * LEAF_ROWS + first as Index;
                for row in ones(base, leaf.word(first).0) {
                    leaf.any_run(row, |cols, vals| {
                        f(row, cols, vals);
                        false
                    });
                }
            }
        }
    }

    /// Call `f` on the columns of each of `rows` in turn: a push step's unit
    /// of work. A run of rows in one leaf looks the leaf up once.
    pub fn each_in_rows(&self, rows: &[Index], mut f: impl FnMut(Index)) {
        for (row, leaf) in self.with_leaves(rows) {
            leaf.any_run(row, |cols, _| {
                cols.iter().for_each(|&j| f(Index::from(j)));
                false
            });
        }
    }

    /// Of the rows `base + i` for each set bit `i` of `rows` (`base` a
    /// multiple of 64), the ones holding a column in `frontier`, as bits of
    /// the same word: a pull step's unit of work. One leaf lookup for the
    /// word's 64 rows, none for an empty leaf. Only the rows with a main
    /// entry or a pending insert are read: a row with nothing pending
    /// straight from the CSR slice, the others merged.
    pub fn rows_reaching(&self, base: Index, rows: u64, frontier: &Bitmap) -> u64 {
        let Some(leaf) = self.leaf(base) else { return 0 };
        let (main, first) = (&leaf.main, offset(base));
        let (live, changed) = leaf.word(first);
        let rows = rows & live;
        let reaches = |cols: &[u32]| cols.iter().any(|&u| frontier.contains(Index::from(u)));
        let mut found = 0;
        for bit in ones(0, rows & !changed) {
            // The columns alone: slicing `vals` too (`Csr::row`) read
            // ~5% lower `khop_k6` qps in three paired runs.
            let o = first + bit as usize;
            found |= u64::from(reaches(&main.cols[main.row_ptr[o]..main.row_ptr[o + 1]])) << bit;
        }
        for bit in ones(0, rows & changed) {
            found |= u64::from(leaf.any_run(base + bit, |cols, _| reaches(cols))) << bit;
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk_table::tests::nodes_copied;
    use crate::transpose::transpose;

    fn seeded() -> DeltaMatrix<i64> {
        let main = SparseMatrix::from_triples(4, 4, &[(0, 1, 10), (1, 2, 20), (3, 0, 30)]).unwrap();
        DeltaMatrix::from_matrix(main)
    }

    /// Entries held in the leaves' CSR slices, pending changes aside.
    fn main_entries<T: Scalar>(m: &DeltaMatrix<T>) -> usize {
        m.leaves.iter().map(|(_, leaf)| leaf.main.cols.len()).sum()
    }

    /// Whether no leaf carries buffers or per-row counts.
    fn every_leaf_clean<T: Scalar>(m: &DeltaMatrix<T>) -> bool {
        m.leaves.iter().all(|(_, leaf)| leaf.pending.is_none())
    }

    #[test]
    fn merged_view_overlays_pending_changes() {
        let mut m = seeded();
        m.set_element(2, 2, 99); // new entry
        m.set_element(0, 1, 11); // overwrite a main entry
        m.remove_element(1, 2).unwrap(); // delete a main entry
        assert_eq!(m.extract_element(2, 2), Some(99));
        assert_eq!(m.extract_element(0, 1), Some(11));
        assert_eq!(m.extract_element(1, 2), None);
        assert_eq!(m.extract_element(3, 0), Some(30));
        assert_eq!(m.nvals(), 3);
        assert!(!m.is_flushed());
        m.check_invariants().unwrap();
    }

    #[test]
    fn flush_folds_buffers_into_main() {
        let mut m = seeded();
        m.set_element(2, 2, 99);
        m.remove_element(0, 1).unwrap();
        let before = m.to_triples();
        m.flush();
        assert!(m.is_flushed() && every_leaf_clean(&m));
        assert_eq!(m.to_triples(), before);
        assert_eq!(main_entries(&m), 3);
        m.check_invariants().unwrap();
    }

    #[test]
    fn delete_of_pending_insert_leaves_no_trace() {
        let mut m = seeded();
        m.set_element(2, 3, 7);
        m.remove_element(2, 3).unwrap();
        assert_eq!(m.extract_element(2, 3), None);
        assert_eq!(m.pending_count(), 0, "insert+delete of a new entry must cancel out");
        assert!(every_leaf_clean(&m), "the emptied buffers are dropped");
        assert_eq!(m.nvals(), 3);
        m.check_invariants().unwrap();
    }

    #[test]
    fn insert_over_pending_delete_cancels_the_delete() {
        let mut m = seeded();
        m.remove_element(0, 1).unwrap();
        m.set_element(0, 1, 42);
        assert_eq!(m.extract_element(0, 1), Some(42));
        assert_eq!(m.nvals(), 3);
        m.flush();
        assert_eq!(m.extract_element(0, 1), Some(42));
        m.check_invariants().unwrap();
    }

    #[test]
    fn threshold_triggers_automatic_flush() {
        let mut m = DeltaMatrix::<bool>::new(8, 8).unwrap();
        m.set_flush_threshold(3);
        m.set_element(0, 0, true);
        m.set_element(1, 1, true);
        assert_eq!(m.pending_count(), 2);
        m.set_element(2, 2, true); // trips the threshold
        assert!(m.is_flushed());
        assert_eq!(main_entries(&m), 3);
    }

    #[test]
    fn overwrites_of_main_values_do_not_count_toward_the_threshold() {
        let mut m = seeded();
        m.set_flush_threshold(2);
        // Two overwrites, one of them over a pending delete: buffered, and
        // read back, but no fold.
        m.set_element(0, 1, 7);
        m.remove_element(1, 2).unwrap();
        m.set_element(1, 2, 8);
        assert_eq!((m.pending_count(), m.flush_count()), (2, 0));
        assert_eq!((m.extract_element(0, 1), m.extract_element(1, 2)), (Some(7), Some(8)));
        m.check_invariants().unwrap();
        // Deleting an overwritten entry is a structural change; so is a new
        // entry, the second of them, which folds.
        m.remove_element(0, 1).unwrap();
        assert_eq!((m.pending_count(), m.flush_count()), (2, 0));
        m.check_invariants().unwrap();
        m.set_element(3, 3, 9);
        assert!(m.is_flushed());
        assert_eq!(m.to_triples(), vec![(1, 2, 8), (3, 0, 30), (3, 3, 9)]);
    }

    #[test]
    fn eager_threshold_flushes_every_mutation() {
        let mut m = DeltaMatrix::<i64>::new(4, 4).unwrap();
        m.set_flush_threshold(1);
        m.set_element(1, 2, 5);
        assert!(m.is_flushed());
        m.remove_element(1, 2).unwrap();
        assert!(m.is_flushed());
        assert_eq!(m.nvals(), 0);
    }

    /// One merged row, read through `any_entry_in_row`.
    fn row_of(m: &DeltaMatrix<i64>, row: Index) -> Vec<(Index, i64)> {
        let mut out = Vec::new();
        m.any_entry_in_row(row, |c, v| {
            out.push((c, v));
            false
        });
        out
    }

    #[test]
    fn any_entry_in_row_merges_in_column_order() {
        let mut m = seeded();
        m.set_element(0, 0, 1);
        m.set_element(0, 3, 3);
        m.set_element(0, 1, 11);
        assert_eq!(row_of(&m, 0), vec![(0, 1), (1, 11), (3, 3)]);
        m.remove_element(0, 1).unwrap();
        assert_eq!(row_of(&m, 0), vec![(0, 1), (3, 3)]);
        assert_eq!(m.degree_sum(&[0]), 2);
        // Row 1 shares row 0's leaf but has no change of its own.
        assert_eq!(row_of(&m, 1), vec![(2, 20)]);
        // The walk stops at the first entry `f` accepts.
        let mut seen = Vec::new();
        assert!(m.any_entry_in_row(0, |c, _| {
            seen.push(c);
            c == 0
        }));
        assert_eq!(seen, vec![0]);
        m.check_invariants().unwrap();
    }

    #[test]
    fn export_walks_the_leaves_and_merges_pending_changes() {
        let mut m = seeded();
        assert_eq!(m.export(), SparseMatrix::from_triples(4, 4, &m.to_triples()).unwrap());
        m.set_element(2, 2, 1);
        m.remove_element(0, 1).unwrap();
        let export = m.export();
        export.check_invariants().unwrap();
        assert_eq!(export.to_triples(), vec![(1, 2, 20), (2, 2, 1), (3, 0, 30)]);
        assert_eq!(export.nvals(), m.nvals());
        assert!(!m.is_flushed(), "exporting folds nothing");
    }

    #[test]
    fn grow_resize_keeps_pending_buffers() {
        let mut m = seeded();
        m.set_element(2, 2, 99);
        m.remove_element(0, 1).unwrap();
        m.resize(10, 10).unwrap();
        assert_eq!(m.nrows(), 10);
        assert!(!m.is_flushed(), "growing must not force a flush");
        assert_eq!(m.extract_element(2, 2), Some(99));
        assert_eq!(m.extract_element(0, 1), None);
        m.set_element(9, 9, 1);
        m.flush();
        m.check_invariants().unwrap();
        assert_eq!(m.nvals(), 4);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let mut m = DeltaMatrix::<i64>::new(2, 2).unwrap();
        assert!(m.try_set_element(2, 0, 1).is_err());
        assert!(m.remove_element(0, 2).is_err());
    }

    #[test]
    fn snapshot_pins_epoch_across_flush() {
        let mut m = seeded();
        let pinned = m.clone();
        m.set_element(2, 2, 99);
        m.flush();
        assert_eq!(m.flush_count(), pinned.flush_count() + 1);
        // The pinned clone still shows the pre-fold state…
        assert_eq!(pinned.extract_element(2, 2), None);
        assert_eq!(main_entries(&pinned), 3);
        // …while the folded leaf has the write.
        assert_eq!(m.extract_element(2, 2), Some(99));
        assert_eq!(main_entries(&m), 4);
        pinned.check_invariants().unwrap();
        m.check_invariants().unwrap();
    }

    #[test]
    fn pinned_epoch_is_reclaimed_when_last_reader_drops() {
        let mut m = seeded();
        let pinned = m.clone();
        let weak = Arc::downgrade(pinned.leaves.leaf(0).unwrap());
        m.set_element(0, 0, 1);
        m.flush(); // publishes a fresh leaf; the old one lives via `pinned`
        assert!(weak.upgrade().is_some(), "a pinned leaf must stay alive");
        drop(pinned);
        assert!(weak.upgrade().is_none(), "the last reader drop reclaims the leaf");
    }

    /// Every leaf's `Weak` handle, by slot.
    fn weak_leaves<T: Scalar>(m: &DeltaMatrix<T>) -> Vec<Weak<Leaf<T>>> {
        m.leaves.leaves().map(|(_, leaf)| Arc::downgrade(leaf)).collect()
    }

    #[test]
    fn write_heavy_loop_does_not_accumulate_epochs() {
        // Four leaves, one long-lived reader pinning the first state.
        let n = 4 * LEAF_ROWS;
        let mut m = DeltaMatrix::from_matrix(
            SparseMatrix::from_triples(n, n, &[(0, 0, 0), (LEAF_ROWS, 0, 0)]).unwrap(),
        );
        let pinned = m.clone();
        let first = weak_leaves(&pinned);
        let mut weaks = Vec::new();
        for i in 0..50u64 {
            m.set_element((i * 37) % n, (i * 7) % n, i as i64);
            m.flush();
            weaks.extend(weak_leaves(&m));
        }
        // Only the newest version of each leaf stays alive, not all 50, and
        // the versions the reader holds.
        let live: Vec<_> = weaks.iter().filter_map(Weak::upgrade).collect();
        fn held(m: &DeltaMatrix<i64>, leaf: &Arc<Leaf<i64>>) -> bool {
            m.leaves.leaves().any(|(_, l)| Arc::ptr_eq(l, leaf))
        }
        let kept = |leaf: &Arc<Leaf<i64>>| held(&m, leaf) || held(&pinned, leaf);
        assert!(live.iter().all(kept), "a replaced leaf outlived its last holder");
        assert!(first.iter().all(|w| w.upgrade().is_some()), "the reader's leaves stay alive");
        drop(live);
        drop(pinned);
        assert!(first.iter().all(|w| w.upgrade().is_none()), "its drop frees its own leaves");
    }

    #[test]
    fn clone_is_a_consistent_snapshot() {
        let mut m = seeded();
        m.set_element(2, 2, 5); // leave a pending insert in the buffers
        let snap = m.clone();
        m.set_element(3, 3, 7);
        m.remove_element(0, 1).unwrap();
        m.flush();
        // The snapshot still sees exactly the state at clone time.
        assert_eq!(snap.extract_element(2, 2), Some(5));
        assert_eq!(snap.extract_element(3, 3), None);
        assert_eq!(snap.extract_element(0, 1), Some(10));
        snap.check_invariants().unwrap();
        m.check_invariants().unwrap();
    }

    /// A `leaves`-leaf matrix with `per_leaf` pending inserts in every leaf
    /// and a main row per leaf, so deletes earn delta-minus records.
    fn pending_in_every_leaf(leaves: Index, per_leaf: Index) -> DeltaMatrix<i64> {
        let n = leaves * LEAF_ROWS;
        let main: Vec<_> = (0..leaves).map(|i| (i * LEAF_ROWS, 0, -1)).collect();
        let mut m = DeltaMatrix::from_matrix(SparseMatrix::from_triples(n, n, &main).unwrap());
        m.set_flush_threshold(usize::MAX);
        for r in (0..n).step_by((LEAF_ROWS / per_leaf) as usize) {
            m.set_element(r, r, r as i64);
        }
        m
    }

    #[test]
    fn clone_shares_every_chunk_and_a_write_copies_one() {
        let mut m = pending_in_every_leaf(16, 64);
        assert_eq!(m.pending_count(), 16 * 64);
        let snap = m.clone();
        let unshared = |m: &DeltaMatrix<i64>| m.leaves.leaves_not_shared_with(&snap.leaves);
        assert!(m.leaves.ptr_eq(&snap.leaves), "a clone shares the whole table");
        assert_eq!(unshared(&m), 0, "a clone copies no leaf");
        let before = snap.to_triples();

        m.set_element(3, 7, 1); // leaf 0
        assert_eq!(unshared(&m), 1);
        m.set_element(5, 9, 2); // leaf 0 again: already private
        assert_eq!(unshared(&m), 1);
        m.remove_element(LEAF_ROWS, 0).unwrap(); // a main entry in leaf 1
        assert_eq!(unshared(&m), 2);
        m.remove_element(7 * LEAF_ROWS + 3, 0).unwrap(); // absent: no copy
        assert_eq!(unshared(&m), 2);
        assert_eq!(m.leaves.iter().count(), 16, "leaves 2..16 stay shared");
        // A copied leaf shares its CSR slice and every chunk of its buffers
        // but the one written.
        let main = |m: &DeltaMatrix<i64>, i| Arc::clone(&m.leaves.get(i).unwrap().main);
        assert!(Arc::ptr_eq(&main(&m, 1), &main(&snap, 1)));
        let chunks =
            |m: &DeltaMatrix<i64>| m.leaves.get(0).unwrap().pending.clone().unwrap().chunks;
        let (mine, theirs) = (chunks(&m), chunks(&snap));
        let same = |k: usize| Arc::ptr_eq(mine[k].as_ref().unwrap(), theirs[k].as_ref().unwrap());
        assert_eq!((0..CHUNKS).filter(|&k| !same(k)).collect::<Vec<_>>(), vec![0]);

        assert_eq!(snap.to_triples(), before, "the clone sees exactly its own state");
        snap.check_invariants().unwrap();
        m.check_invariants().unwrap();
    }

    #[test]
    fn flush_after_clone_leaves_the_clones_chunks_intact() {
        let mut m = pending_in_every_leaf(16, 8);
        let snap = m.clone();
        let before = snap.to_triples();
        let weak = Arc::downgrade(snap.leaves.leaf(5).unwrap());
        m.remove_element(5 * LEAF_ROWS, 0).unwrap();
        m.flush();
        assert!(every_leaf_clean(&m), "a fold drains every leaf's buffers");
        assert_eq!(m.leaves.leaves_not_shared_with(&snap.leaves), 16, "each fold is a fresh leaf");
        assert_eq!(m.leaves.len(), 16);
        assert_eq!(snap.to_triples(), before);
        assert_eq!(snap.pending_count(), 16 * 8);
        snap.check_invariants().unwrap();
        drop(snap);
        assert!(weak.upgrade().is_none(), "the last holder's drop frees a leaf");
    }

    #[test]
    fn rows_on_either_side_of_a_chunk_boundary_stay_apart() {
        let n = 3 * LEAF_ROWS;
        let mut m = DeltaMatrix::<i64>::new(n, n).unwrap();
        m.set_flush_threshold(usize::MAX);
        let edges = [CHUNK_ROWS - 1, CHUNK_ROWS, LEAF_ROWS - 1, LEAF_ROWS, 2 * LEAF_ROWS - 1];
        for r in edges.into_iter().chain([2 * LEAF_ROWS]) {
            m.set_element(r, r, r as i64);
            m.set_element(r, 0, 1);
        }
        m.flush();
        m.remove_element(LEAF_ROWS - 1, 0).unwrap();
        m.set_element(LEAF_ROWS, 1, 5);
        // Likewise on either side of a chunk boundary inside a leaf.
        m.remove_element(CHUNK_ROWS, 0).unwrap();
        m.set_element(CHUNK_ROWS - 1, 1, 6);
        let row = |r: Index| row_of(&m, r);
        assert_eq!(row(CHUNK_ROWS), vec![(CHUNK_ROWS, CHUNK_ROWS as i64)]);
        let below = (CHUNK_ROWS - 1) as i64;
        assert_eq!(row(CHUNK_ROWS - 1), vec![(0, 1), (1, 6), (CHUNK_ROWS - 1, below)]);
        assert_eq!(row(LEAF_ROWS - 1), vec![(LEAF_ROWS - 1, (LEAF_ROWS - 1) as i64)]);
        assert_eq!(row(LEAF_ROWS), vec![(0, 1), (1, 5), (LEAF_ROWS, LEAF_ROWS as i64)]);
        let triples = m.to_triples();
        assert!(triples.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        assert_eq!(triples.len(), m.nvals());
        m.check_invariants().unwrap();
        // Deleting the only pending insert of a leaf drops its buffers.
        m.remove_element(LEAF_ROWS, 1).unwrap();
        assert!(m.leaves.get(1).unwrap().pending.is_none());
        m.check_invariants().unwrap();
    }

    #[test]
    fn resize_keeps_one_chunk_per_row_range() {
        let mut m = DeltaMatrix::<i64>::new(10, 10).unwrap();
        assert_eq!(m.leaves.len(), 1);
        m.set_element(9, 9, 1);
        m.resize(LEAF_ROWS * 2 + 1, 10).unwrap();
        assert_eq!(m.leaves.len(), 3);
        m.set_element(LEAF_ROWS * 2, 3, 2);
        m.check_invariants().unwrap();
        // A matrix only grows: shrinking either dimension, even while
        // growing the other, is refused and changes nothing.
        assert!(m.resize(LEAF_ROWS, 10).is_err() && m.resize(LEAF_ROWS * 3, 5).is_err());
        assert_eq!((m.nrows(), m.ncols(), m.leaves.len()), (LEAF_ROWS * 2 + 1, 10, 3));
        assert_eq!(m.to_triples(), vec![(9, 9, 1), (LEAF_ROWS * 2, 3, 2)]);
    }

    #[test]
    fn equality_ignores_buffer_state() {
        let mut a = seeded();
        let mut b = seeded();
        a.set_element(2, 2, 5);
        b.set_element(2, 2, 5);
        b.flush();
        assert_eq!(a, b);
        b.remove_element(2, 2).unwrap();
        assert_ne!(a, b);
    }

    /// A 40-leaf matrix (two table levels) with entries in every leaf,
    /// folding at 4 structural changes a leaf.
    fn forty_leaves() -> DeltaMatrix<i64> {
        let n = 40 * LEAF_ROWS;
        let pairs = |f: &mut dyn FnMut(Index, Index)| (0..n).for_each(|r| f(r, (r * 7) % n));
        let mut m = DeltaMatrix::from_pairs(n, n, pairs, |r, _| r as i64).unwrap();
        m.set_flush_threshold(4 * 40);
        assert_eq!(m.fold_share(), 4);
        m
    }

    #[test]
    fn a_leaf_fold_copies_that_leaf_and_its_table_path_only() {
        let mut m = forty_leaves();
        assert!(every_leaf_clean(&m), "a loaded leaf carries no per-row counts");
        let snap = m.clone();
        let (row, slot) = (5 * LEAF_ROWS + 3, 5);
        let old = Arc::downgrade(snap.leaves.leaf(slot).unwrap());
        // Three writes: buffered in a copy of the leaf (its CSR slice still
        // shared), along one copied table path.
        for col in 0..3 {
            m.set_element(row, col, -1);
        }
        assert_eq!((m.flush_count(), m.leaves.leaves_not_shared_with(&snap.leaves)), (0, 1));
        assert_eq!(nodes_copied(&m.leaves, &snap.leaves), 3, "root, leaf-level node, leaf");
        // The fourth folds it into a fresh leaf, on the same path.
        m.remove_element(row, (row * 7) % m.nrows()).unwrap();
        assert_eq!(m.flush_count(), 1);
        assert!(m.is_flushed() && every_leaf_clean(&m));
        assert_eq!(m.leaves.leaves_not_shared_with(&snap.leaves), 1);
        assert_eq!(nodes_copied(&m.leaves, &snap.leaves), 3);
        // The reader pinned before the fold keeps its old row; every other
        // leaf is the same allocation on both sides.
        assert_eq!(row_of(&snap, row), vec![((row * 7) % m.nrows(), row as i64)]);
        assert_eq!(row_of(&m, row), vec![(0, -1), (1, -1), (2, -1)]);
        let shared = |i| Arc::ptr_eq(m.leaves.leaf(i).unwrap(), snap.leaves.leaf(i).unwrap());
        assert!((0..40).filter(|&i| i != slot).all(shared));
        assert!(old.upgrade().is_some());
        m.check_invariants().unwrap();
        snap.check_invariants().unwrap();
    }

    #[test]
    fn dropping_the_last_pin_frees_only_its_own_leaves() {
        let mut m = forty_leaves();
        let first = m.clone();
        for col in 0..4 {
            m.set_element(5 * LEAF_ROWS, col + 1, 0); // folds leaf 5
        }
        let second = m.clone();
        for col in 0..4 {
            m.set_element(30 * LEAF_ROWS, col + 1, 0); // folds leaf 30
        }
        assert_eq!(m.flush_count(), 2);
        let (weak_first, weak_second) = (weak_leaves(&first), weak_leaves(&second));
        drop(first);
        // The first pin held leaf 5's old version alone.
        let live =
            |weaks: &[Weak<Leaf<i64>>]| weaks.iter().filter(|w| w.upgrade().is_some()).count();
        assert!(weak_first[5].upgrade().is_none());
        assert_eq!(live(&weak_first), 39, "leaves shared with newer states stay");
        drop(second);
        assert!(weak_second[30].upgrade().is_none());
        assert_eq!(live(&weak_second), 39);
        assert_eq!(live(&weak_leaves(&m)), 40);
    }

    #[test]
    fn transposed_equals_the_transpose_kernel_on_the_merged_view() {
        let mut m = forty_leaves();
        m.set_flush_threshold(usize::MAX);
        m.set_element(3, 2_000, 9);
        m.remove_element(64, 448).unwrap();
        m.set_element(2_559, 0, 8);
        let t = m.transposed();
        t.check_invariants().unwrap();
        assert!(t.is_flushed() && every_leaf_clean(&t));
        let pattern = |m: &SparseMatrix<i64>| {
            let triples: Vec<_> = m.iter().map(|(r, c, _)| (r, c, ())).collect();
            SparseMatrix::from_triples(m.nrows(), m.ncols(), &triples).unwrap()
        };
        assert_eq!(t.export(), pattern(&transpose(&m.export())));
        assert_eq!((t.nvals(), t.flush_threshold()), (m.nvals(), m.flush_threshold()));
        let wide =
            DeltaMatrix::from_matrix(SparseMatrix::from_triples(3, 200, &[(2, 199, 1)]).unwrap());
        assert_eq!(wide.transposed().to_triples(), vec![(199, 2, ())]);
    }

    #[test]
    fn from_pairs_sorts_dedups_numbers_in_order_and_rejects_pairs_out_of_range() {
        let n = 3 * LEAF_ROWS;
        // Each entry's value is its rank in row-major order.
        let build = |pairs: &[(Index, Index)]| {
            let mut rank = 0;
            let walk = |f: &mut dyn FnMut(Index, Index)| pairs.iter().for_each(|&(r, c)| f(r, c));
            DeltaMatrix::from_pairs(n, 4, walk, |_, _| (rank, rank += 1).0)
        };
        let far = 2 * LEAF_ROWS + 2;
        let m = build(&[(far, 2), (1, 0), (0, 3), (far, 0), (1, 0), (0, 1), (far, 2)]).unwrap();
        let want = [(0, 1, 0), (0, 3, 1), (1, 0, 2), (far, 0, 3), (far, 2, 4)];
        assert_eq!(m.to_triples(), want);
        assert_eq!((m.nvals(), m.is_flushed()), (5, true));
        assert_eq!(m.leaves.iter().map(|(i, _)| i).collect::<Vec<_>>(), vec![0, 2]);
        m.check_invariants().unwrap();
        assert!(build(&[]).unwrap().leaves.iter().next().is_none());
        assert!(build(&[(0, 0), (n, 0)]).is_err() && build(&[(0, 4), (1, 1)]).is_err());
    }

    #[test]
    fn a_dimension_past_u32_is_refused_before_anything_is_allocated() {
        let past = MAX_DIM + 1;
        for (nrows, ncols) in [(past, 1), (1, past), (u64::MAX, u64::MAX)] {
            assert!(DeltaMatrix::<()>::new(nrows, ncols).is_err(), "{nrows} x {ncols}");
            // The walk never runs: no count array of `nrows` is allocated.
            let walk = |_: &mut dyn FnMut(Index, Index)| panic!("walked a refused matrix");
            assert!(DeltaMatrix::from_pairs(nrows, ncols, walk, |_, _| ()).is_err());
        }
        let mut m = seeded();
        m.set_element(2, 2, 5);
        assert!(m.resize(past, 4).is_err() && m.resize(4, past).is_err());
        assert_eq!(
            (m.nrows(), m.ncols(), m.pending_count()),
            (4, 4, 1),
            "a refusal changes nothing"
        );
        assert!(m.resize(MAX_DIM, MAX_DIM).is_ok());
        assert_eq!((m.nrows(), m.extract_element(2, 2)), (MAX_DIM, Some(5)));
        m.set_element(MAX_DIM - 1, MAX_DIM - 1, 7);
        assert_eq!(m.extract_element(MAX_DIM - 1, MAX_DIM - 1), Some(7));
        // A column an `Index` holds but a `u32` does not is absent, not
        // truncated onto column 0.
        assert_eq!(m.extract_element(0, 1 << 32), None);
    }

    #[test]
    fn a_fold_copies_clean_chunks_whole_and_merges_only_dirty_ones() {
        // Entries in every chunk of leaf 0; changes in chunks 1 and 15 only.
        let n = LEAF_ROWS;
        let walk = |f: &mut dyn FnMut(Index, Index)| (0..n).step_by(3).for_each(|r| f(r, r % 7));
        let mut m = DeltaMatrix::from_pairs(n, n, walk, |r, _| r as i64).unwrap();
        m.set_flush_threshold(usize::MAX);
        let before = m.clone();
        m.set_element(CHUNK_ROWS + 1, 9, -1);
        m.remove_element(CHUNK_ROWS + 3, 3).unwrap();
        m.set_element(LEAF_ROWS - 1, 0, -2);
        let want = m.to_triples();
        m.flush();
        assert_eq!(m.to_triples(), want);
        m.check_invariants().unwrap();
        // The clean chunks' rows read as before the fold.
        let clean = |r: &Index| (r / CHUNK_ROWS) != 1 && (r / CHUNK_ROWS) != 15;
        assert!((0..n).filter(clean).all(|r| row_of(&m, r) == row_of(&before, r)));
    }
}
