//! Delta matrices: RedisGraph's production answer to write amplification.
//!
//! A [`DeltaMatrix`] wraps an immutable **main** CSR matrix together with two
//! small pending buffers:
//!
//! * **delta-plus** (`DP`) — entries inserted (or overwritten) since the last
//!   flush, keyed by coordinate;
//! * **delta-minus** (`DM`) — coordinates of main-matrix entries deleted since
//!   the last flush.
//!
//! Every read accessor presents the *merged* view `(M \ DM) ∪ DP` (with `DP`
//! taking precedence over `M` on overlap), so readers never observe a torn
//! state, while each write is an O(log pending) map update instead of a CSR
//! rebuild. [`DeltaMatrix::flush`] folds both buffers into a fresh main matrix
//! in one merge-build; a configurable threshold on the pending structural
//! changes — inserts of new entries and deletes of main entries — triggers
//! that flush automatically so writes stay O(1) amortized under sustained
//! load. A `DP` entry that overwrites a main entry's value is buffered like
//! any other but not counted toward the threshold: RedisGraph writes such an
//! overwrite into `M` in place, which an immutable epoch cannot take.
//! This is the crate's only pending-update mechanism: [`SparseMatrix`] itself
//! has no write path.
//!
//! The merge walks the main CSR once in row order, visits each row's pending
//! changes in column order and copies the main entries between them as whole
//! slices. Both buffers are kept sorted by coordinate, so the fold hashes and
//! sorts nothing. [`DeltaMatrix::export`] and [`DeltaMatrix::view`] build the
//! same merged CSR without publishing it. Folding 9 000 inserts and 1 000
//! deletes into a 782 k-entry matrix (Graph500 scale 15, 2-core x86 host)
//! takes 1.7–1.9 ms, with or without a snapshot pinning the old CSR.
//!
//! A row read ([`DeltaMatrix::any_entry_in_row`], and the BFS kernels'
//! [`RowSource`]) walks one row the same way. Each chunk counts every row's
//! pending changes: a row with none is its main CSR slice, a read searches
//! only the buffers holding the row's changes, and a merged degree is O(1).
//!
//! Invariants (checked by [`DeltaMatrix::check_invariants`]):
//!
//! * `DM` only names coordinates that exist in the main matrix;
//! * `DP` and `DM` are disjoint — a delete of a pending insert simply drops
//!   the `DP` entry, and an insert over a pending delete drops the `DM` entry;
//! * each buffer chunk (below) holds only rows of its own range, is never
//!   kept empty, and counts each row's changes exactly.
//!
//! ## Epochs and snapshots
//!
//! The main matrix is held behind an [`Arc`]: each flushed CSR is an immutable
//! **epoch**. [`DeltaMatrix::main_shared`] hands out a reference-counted pin
//! on the current epoch. A flush builds the next epoch into a fresh
//! allocation and publishes it with [`Arc::new`], so a pinned epoch is never
//! modified and costs the fold nothing extra; it is reclaimed when its last
//! pin drops. Only a resize changes the main matrix through
//! [`Arc::make_mut`], which copies it first if an epoch is pinned.
//!
//! The pending buffers are shared the same way, by row range: `DP`/`DM` are
//! split into chunks of `CHUNK_ROWS` (64) rows, the leaves of a
//! copy-on-write [`ChunkTable`]. A clone — the consistent snapshot a reader
//! takes — bumps the table's root however many changes are pending, and a
//! write after a clone copies the one chunk it touches and that chunk's
//! path through the table. A flush installs an empty table, leaving a clone
//! that shares the old one untouched. On the rgbench graph (Graph500 scale
//! 15, 0.8 M edges, 2-core x86 host), alternating one write with one
//! whole-graph snapshot, the snapshot takes 0.3–0.6 µs (0.2 µs at scale 17,
//! 3.3 M edges), where bumping one pointer per 256-row chunk and entity
//! block took 10–13 µs (41 µs at scale 17); the write beside it takes
//! 3.8–6.0 µs, where copying whole chunks and blocks took 16–20 µs.

use crate::bitmap::RowSource;
use crate::chunk_table::ChunkTable;
use crate::error::{check_index, GrbError, GrbResult};
use crate::matrix::SparseMatrix;
use crate::types::Scalar;
use crate::Index;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Default number of pending changes that triggers an automatic flush
/// (RedisGraph ships `DELTA_MAX_PENDING_CHANGES = 10000`).
pub const DEFAULT_FLUSH_THRESHOLD: usize = 10_000;

/// Rows per pending-buffer chunk: the leaf a write after a clone copies.
/// Smaller chunks copy fewer pending entries but need more table levels:
/// at rgbench's 49 152 rows, 32-row chunks take three levels where 64-row
/// chunks take two, and a write beside a snapshot measured slower with
/// them.
const CHUNK_ROWS: Index = 64;

/// The pending changes of one `CHUNK_ROWS`-row range: a leaf of the
/// matrix's [`ChunkTable`].
#[derive(Clone, Debug)]
pub struct Chunk<T> {
    /// `DP`: entries inserted or overwritten since the last flush.
    plus: BTreeMap<(Index, Index), T>,
    /// `DM`: main-matrix coordinates deleted since the last flush.
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

impl<T> Default for Chunk<T> {
    fn default() -> Self {
        Chunk {
            plus: BTreeMap::new(),
            minus: BTreeSet::new(),
            rows: [RowChanges::default(); CHUNK_ROWS as usize],
        }
    }
}

/// The position of `row` in its chunk.
fn offset(row: Index) -> usize {
    (row % CHUNK_ROWS) as usize
}

/// Number of chunks covering `nrows` rows.
fn chunk_count(nrows: Index) -> usize {
    nrows.div_ceil(CHUNK_ROWS) as usize
}

/// A sparse matrix with buffered mutations: main CSR + pending additions +
/// pending deletions, flushed in bulk.
#[derive(Clone, Debug)]
pub struct DeltaMatrix<T: Scalar> {
    /// The current epoch: an immutable, shareable CSR.
    main: Arc<SparseMatrix<T>>,
    /// `DP` and `DM` by row range: slot `i` covers rows
    /// `i * CHUNK_ROWS .. (i + 1) * CHUNK_ROWS` and is empty while nothing
    /// in that range is pending.
    chunks: ChunkTable<Chunk<T>>,
    /// Entries across every chunk's `DP` and `DM`.
    pending: usize,
    /// The `DP` entries among them that overwrite a main entry's value: not
    /// structural changes, so not counted toward `flush_threshold`.
    overwrites: usize,
    /// Exact number of entries in the merged view, maintained incrementally.
    nvals: usize,
    flush_threshold: usize,
    /// Publication counter: bumped whenever the main matrix's *contents*
    /// change (flush or shrinking resize).
    epoch: u64,
    /// Lifetime count of CSR rebuilds caused by folding pending buffers
    /// (the observability counter behind `GRAPH.INFO`'s `delta_flushes`).
    flush_count: u64,
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
    /// threshold.
    pub fn new(nrows: Index, ncols: Index) -> Self {
        Self::from_matrix(SparseMatrix::new(nrows, ncols))
    }

    /// Wrap an existing matrix as the main matrix. This is the bulk-load
    /// path: construct the CSR directly from triples, then hand it over with
    /// empty pending buffers.
    pub fn from_matrix(main: SparseMatrix<T>) -> Self {
        let nvals = main.nvals();
        DeltaMatrix {
            chunks: ChunkTable::new(chunk_count(main.nrows())),
            main: Arc::new(main),
            pending: 0,
            overwrites: 0,
            nvals,
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
            epoch: 0,
            flush_count: 0,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> Index {
        self.main.nrows()
    }

    /// Number of columns.
    pub fn ncols(&self) -> Index {
        self.main.ncols()
    }

    /// Number of entries in the merged view (exact, O(1)).
    pub fn nvals(&self) -> usize {
        self.nvals
    }

    /// Number of buffered changes awaiting a flush.
    pub fn pending_count(&self) -> usize {
        self.pending
    }

    /// True when both pending buffers are empty, i.e. the main matrix *is*
    /// the merged view.
    pub fn is_flushed(&self) -> bool {
        self.pending == 0
    }

    /// Number of buffer folds this matrix has performed over its lifetime
    /// (a clone inherits its source's count and diverges from there).
    pub fn flush_count(&self) -> u64 {
        self.flush_count
    }

    /// The count of pending structural changes (inserts of new entries,
    /// deletes of main entries) that triggers an automatic flush; buffered
    /// overwrites of main values do not count.
    pub fn flush_threshold(&self) -> usize {
        self.flush_threshold
    }

    /// Set the automatic-flush threshold. `1` makes every insert and delete
    /// flush immediately (the eager behaviour); large values batch more.
    /// Overwrites of main values stay buffered until a flush.
    /// A threshold of `0` is treated as `1`.
    pub fn set_flush_threshold(&mut self, threshold: usize) {
        self.flush_threshold = threshold.max(1);
        self.maybe_flush();
    }

    // ----------------------------------------------------------- mutation

    /// The pending changes of `row`'s chunk, if any. A matrix with nothing
    /// pending answers without walking the table.
    fn chunk(&self, row: Index) -> Option<&Chunk<T>> {
        if self.is_flushed() {
            return None;
        }
        self.chunks.get((row / CHUNK_ROWS) as usize)
    }

    /// The chunk of `row` for writing, created if absent and copied first
    /// (with its table path) if a clone still shares it.
    fn chunk_mut(&mut self, row: Index) -> &mut Chunk<T> {
        self.chunks.get_or_insert_with((row / CHUNK_ROWS) as usize, Default::default)
    }

    /// Every pending insert, in row-major order.
    fn plus_entries(&self) -> impl Iterator<Item = (&(Index, Index), &T)> {
        self.chunks.iter().flat_map(|(_, c)| c.plus.iter())
    }

    /// Every pending delete, in row-major order.
    fn minus_entries(&self) -> impl Iterator<Item = &(Index, Index)> {
        self.chunks.iter().flat_map(|(_, c)| c.minus.iter())
    }

    /// Insert or overwrite a single entry. O(log pending); never rebuilds the
    /// CSR (until the flush threshold trips).
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
        // An insert cancels a pending delete of the same coordinate; the new
        // value still has to shadow the (stale) main entry, so it goes to DP
        // unconditionally.
        let chunk = self.chunk_mut(row);
        let cancelled = chunk.minus.remove(&(row, col));
        let fresh = chunk.plus.insert((row, col), value).is_none();
        let changes = &mut chunk.rows[offset(row)];
        changes.plus += u32::from(fresh);
        changes.minus -= u32::from(cancelled);
        changes.degree += i32::from(absent);
        self.pending = self.pending + usize::from(fresh) - usize::from(cancelled);
        // A fresh entry over a live or a deleted main entry overwrites it.
        self.overwrites += usize::from(fresh && (!absent || cancelled));
        self.maybe_flush();
        Ok(())
    }

    /// Delete an entry. Deleting an absent entry is a no-op. A delete of a
    /// pending insert just drops the buffered insert; only entries stored in
    /// the main matrix earn a delta-minus record.
    pub fn remove_element(&mut self, row: Index, col: Index) -> GrbResult<()> {
        check_index(row, self.nrows())?;
        check_index(col, self.ncols())?;
        if self.extract_element(row, col).is_none() {
            return Ok(());
        }
        self.nvals -= 1;
        let in_main = self.main.contains(row, col);
        let slot = (row / CHUNK_ROWS) as usize;
        let chunk = self.chunk_mut(row);
        let dropped = chunk.plus.remove(&(row, col)).is_some();
        let recorded = in_main && chunk.minus.insert((row, col));
        let changes = &mut chunk.rows[offset(row)];
        changes.plus -= u32::from(dropped);
        changes.minus += u32::from(recorded);
        changes.degree -= 1;
        if chunk.plus.is_empty() && chunk.minus.is_empty() {
            self.chunks.remove(slot);
        }
        self.pending = self.pending + usize::from(recorded) - usize::from(dropped);
        self.overwrites -= usize::from(dropped && in_main);
        self.maybe_flush();
        Ok(())
    }

    /// Resize the matrix. Growing keeps the pending buffers (all buffered
    /// coordinates stay in bounds) and the epoch number; shrinking either
    /// dimension flushes first and lets the CSR rebuild drop out-of-range
    /// entries.
    pub fn resize(&mut self, nrows: Index, ncols: Index) {
        let shrinks = nrows < self.nrows() || ncols < self.ncols();
        if shrinks {
            self.flush();
        }
        // Readers pinning the old allocation keep the old dimensions.
        Arc::make_mut(&mut self.main).resize(nrows, ncols);
        self.chunks.resize(chunk_count(nrows));
        if shrinks {
            self.nvals = self.main.nvals();
            self.epoch += 1;
        }
    }

    /// Fold both pending buffers into a fresh main matrix in one merge-build
    /// and publish it as the next epoch. Cheap no-op when nothing is pending.
    ///
    /// The current epoch is only read, never copied or modified, so a reader
    /// pinning it (via [`DeltaMatrix::main_shared`] or a clone of this matrix)
    /// costs the fold nothing.
    pub fn flush(&mut self) {
        if self.is_flushed() {
            return;
        }
        self.main = Arc::new(self.merged());
        // Dropping the chunks leaves a clone that shares them untouched.
        self.chunks.clear();
        self.pending = 0;
        self.overwrites = 0;
        self.epoch += 1;
        self.flush_count += 1;
        debug_assert_eq!(self.main.nvals(), self.nvals, "flush changed the merged entry count");
    }

    /// The merged view `(M \ DM) ∪ DP` as a fresh CSR, built in one
    /// row-ordered walk over the main matrix and the chunks (see the module
    /// docs). [`DeltaMatrix::flush`] publishes it; [`DeltaMatrix::view`] and
    /// [`DeltaMatrix::export`] hand it out.
    fn merged(&self) -> SparseMatrix<T> {
        let mut out_ptr = Vec::with_capacity(self.nrows() as usize + 1);
        let mut out_cols = Vec::with_capacity(self.nvals);
        let mut out_vals = Vec::with_capacity(self.nvals);
        out_ptr.push(0);
        let mut plus = self.plus_entries().map(|(&(_, c), v)| (c, v));
        let mut minus = self.minus_entries().map(|&(_, c)| c);
        for row in 0..self.nrows() {
            let changes = self.chunk(row).map_or_else(RowChanges::default, |c| c.rows[offset(row)]);
            let plus = plus.by_ref().take(changes.plus as usize);
            let minus = minus.by_ref().take(changes.minus as usize);
            any_run(self.main.row(row), plus, minus, |cols, vals| {
                out_cols.extend_from_slice(cols);
                out_vals.extend_from_slice(vals);
                false
            });
            out_ptr.push(out_cols.len());
        }
        SparseMatrix::from_csr_parts(self.nrows(), self.ncols(), out_ptr, out_cols, out_vals)
    }

    fn maybe_flush(&mut self) {
        if self.pending - self.overwrites >= self.flush_threshold {
            self.flush();
        }
    }

    // ------------------------------------------------------------ readers

    /// Read a single entry through the merged view.
    pub fn extract_element(&self, row: Index, col: Index) -> Option<T> {
        if let Some(chunk) = self.chunk(row) {
            if let Some(&v) = chunk.plus.get(&(row, col)) {
                return Some(v);
            }
            if chunk.minus.contains(&(row, col)) {
                return None;
            }
        }
        self.main.extract_element(row, col)
    }

    /// Whether the merged view stores an entry at `(row, col)`.
    pub fn contains(&self, row: Index, col: Index) -> bool {
        self.extract_element(row, col).is_some()
    }

    /// Call `f` on the entries of one row of the merged view in ascending
    /// column order until it returns `true`; returns whether it did. A row
    /// with nothing pending is its main CSR slice; otherwise the main row is
    /// walked in runs between the row's pending changes, as by the flush.
    pub fn any_entry_in_row(&self, row: Index, mut f: impl FnMut(Index, T) -> bool) -> bool {
        let (cols, vals) = self.main.row(row);
        let mut each = |cols: &[Index], vals: &[T]| cols.iter().zip(vals).any(|(&c, &v)| f(c, v));
        let changes = self.chunk(row).map(|c| (c, c.rows[offset(row)]));
        let dirty = changes.filter(|(_, r)| r.plus + r.minus > 0);
        let Some((chunk, RowChanges { plus, minus, .. })) = dirty else { return each(cols, vals) };
        // A buffer with none of the row's changes is not searched at all.
        let plus = (plus > 0).then(|| chunk.plus.range((row, 0)..).take(plus as usize));
        let plus = plus.into_iter().flatten().map(|(&(_, c), v)| (c, v));
        let minus = (minus > 0).then(|| chunk.minus.range((row, 0)..).take(minus as usize));
        any_run((cols, vals), plus, minus.into_iter().flatten().map(|&(_, c)| c), each)
    }

    /// Number of entries in one row of the merged view (Beamer's rule asks
    /// once per frontier vertex).
    pub fn row_degree(&self, row: Index) -> usize {
        let pending = self.chunk(row).map_or(0, |c| c.rows[offset(row)].degree as isize);
        (self.main.row_degree(row) as isize + pending) as usize
    }

    /// Export the merged view as `(row, col, value)` triples in row-major
    /// order.
    pub fn to_triples(&self) -> Vec<(Index, Index, T)> {
        self.view().to_triples()
    }

    /// Materialise the merged view as a standalone [`SparseMatrix`].
    pub fn export(&self) -> SparseMatrix<T> {
        self.view().into_owned()
    }

    /// The merged view as a [`SparseMatrix`] reference: a zero-cost borrow of
    /// the main matrix when nothing is pending, a materialised copy otherwise.
    /// Only consumers of a whole matrix need it: row-at-a-time readers (the
    /// BFS-step kernels, through [`RowSource`]) read the merged rows in place.
    pub fn view(&self) -> Cow<'_, SparseMatrix<T>> {
        if self.is_flushed() {
            Cow::Borrowed(&self.main)
        } else {
            Cow::Owned(self.merged())
        }
    }

    /// Direct access to the main matrix: the merged view itself while
    /// [`DeltaMatrix::is_flushed`], only its flushed part otherwise.
    pub fn main(&self) -> &SparseMatrix<T> {
        &self.main
    }

    /// The publication counter: how many times a new main matrix has been
    /// published (flush or shrinking resize) since construction.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Pin the current epoch: a shared handle on the immutable main CSR.
    ///
    /// Flushes always publish the next epoch into a fresh allocation, so the
    /// pinned one never changes; it is reclaimed when its last handle drops.
    /// Note the handle is the *flushed* state only — pending buffers are not
    /// included (clone the whole `DeltaMatrix` for a merged-view snapshot).
    pub fn main_shared(&self) -> Arc<SparseMatrix<T>> {
        Arc::clone(&self.main)
    }

    /// The pending buffers by row range: the table a clone shares
    /// (diagnostic/test use, through [`ChunkTable::ptr_eq`] and
    /// [`ChunkTable::leaves_not_shared_with`]).
    pub fn pending_chunks(&self) -> &ChunkTable<Chunk<T>> {
        &self.chunks
    }

    /// Validate the delta-matrix invariants on top of the main CSR's own.
    pub fn check_invariants(&self) -> GrbResult<()> {
        self.main.check_invariants()?;
        let invalid = |message: String| Err(GrbError::InvalidValue(message));
        let (chunks, nrows) = (self.chunks.len(), self.nrows());
        if chunks != chunk_count(nrows) {
            return invalid(format!("{chunks} buffer chunks for {nrows} rows"));
        }
        let (mut pending, mut overwrites, mut nvals) = (0, 0, self.main.nvals() as i64);
        for (i, chunk) in self.chunks.iter() {
            if chunk.plus.is_empty() && chunk.minus.is_empty() {
                return invalid(format!("buffer chunk {i} is kept empty"));
            }
            let mut rows = Chunk::<T>::default().rows;
            let plus = chunk.plus.keys().map(|key| (key, true));
            for (&(r, c), inserted) in plus.chain(chunk.minus.iter().map(|key| (key, false))) {
                if r / CHUNK_ROWS != i as Index {
                    return invalid(format!("({r}, {c}) is buffered in chunk {i}"));
                }
                let in_main = self.main.contains(r, c);
                let changes = &mut rows[offset(r)];
                if inserted {
                    changes.plus += 1;
                    changes.degree += i32::from(!in_main);
                    overwrites += usize::from(in_main);
                } else if in_main && !chunk.plus.contains_key(&(r, c)) {
                    changes.minus += 1;
                    changes.degree -= 1;
                } else {
                    return invalid(format!("delta-minus names ({r}, {c}), no live main entry"));
                }
            }
            if let Some(o) = (0..rows.len()).find(|&o| rows[o] != chunk.rows[o]) {
                return invalid(format!("chunk {i} miscounts the changes of row offset {o}"));
            }
            pending += chunk.plus.len() + chunk.minus.len();
            nvals += rows.iter().map(|changes| i64::from(changes.degree)).sum::<i64>();
        }
        if pending != self.pending {
            return invalid(format!("cached pending count {} != buffered {pending}", self.pending));
        }
        if overwrites != self.overwrites {
            let cached = self.overwrites;
            return invalid(format!("cached overwrite count {cached} != buffered {overwrites}"));
        }
        if nvals != self.nvals as i64 {
            return invalid(format!("cached nvals {} != merged count {nvals}", self.nvals));
        }
        Ok(())
    }
}

/// One row of the merged view as runs, in column order, until `f` returns
/// `true` (returns whether it did): the main row `(cols, vals)` in slices
/// between the row's pending changes, and each pending insert as a slice of
/// one. `plus` and `minus` yield exactly the row's `DP` and `DM` entries,
/// ascending; a main entry at an insert's column is shadowed by it.
fn any_run<'a, T: Scalar>(
    (cols, vals): (&[Index], &'a [T]),
    plus: impl Iterator<Item = (Index, &'a T)>,
    minus: impl Iterator<Item = Index>,
    mut f: impl FnMut(&[Index], &[T]) -> bool,
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

/// The merged view, a row at a time (see [`DeltaMatrix::any_entry_in_row`]).
impl<T: Scalar> RowSource for DeltaMatrix<T> {
    fn nrows(&self) -> Index {
        self.nrows()
    }

    fn ncols(&self) -> Index {
        self.ncols()
    }

    fn any_in_row<F: FnMut(Index) -> bool>(&self, row: Index, mut f: F) -> bool {
        self.any_entry_in_row(row, |j, _| f(j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> DeltaMatrix<i64> {
        let main = SparseMatrix::from_triples(4, 4, &[(0, 1, 10), (1, 2, 20), (3, 0, 30)]).unwrap();
        DeltaMatrix::from_matrix(main)
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
        assert!(m.is_flushed());
        assert_eq!(m.to_triples(), before);
        assert_eq!(m.main().nvals(), 3);
        m.check_invariants().unwrap();
    }

    #[test]
    fn delete_of_pending_insert_leaves_no_trace() {
        let mut m = seeded();
        m.set_element(2, 3, 7);
        m.remove_element(2, 3).unwrap();
        assert_eq!(m.extract_element(2, 3), None);
        assert_eq!(m.pending_count(), 0, "insert+delete of a new entry must cancel out");
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
        let mut m = DeltaMatrix::<bool>::new(8, 8);
        m.set_flush_threshold(3);
        m.set_element(0, 0, true);
        m.set_element(1, 1, true);
        assert_eq!(m.pending_count(), 2);
        m.set_element(2, 2, true); // trips the threshold
        assert!(m.is_flushed());
        assert_eq!(m.main().nvals(), 3);
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
        let mut m = DeltaMatrix::<i64>::new(4, 4);
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
        assert_eq!(m.row_degree(0), 2);
        // Row 1 shares row 0's chunk but has no change of its own.
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
    fn view_borrows_when_flushed_and_merges_when_not() {
        let mut m = seeded();
        assert!(matches!(m.view(), Cow::Borrowed(_)));
        m.set_element(2, 2, 1);
        let view = m.view();
        assert!(matches!(view, Cow::Owned(_)));
        assert_eq!(view.extract_element(2, 2), Some(1));
        assert_eq!(view.nvals(), m.nvals());
    }

    #[test]
    fn grow_resize_keeps_pending_buffers() {
        let mut m = seeded();
        m.set_element(2, 2, 99);
        m.remove_element(0, 1).unwrap();
        m.resize(10, 10);
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
    fn shrink_resize_drops_out_of_range_entries() {
        let mut m = seeded();
        m.set_element(3, 3, 99);
        m.resize(2, 3);
        assert!(m.is_flushed());
        assert_eq!(m.to_triples(), vec![(0, 1, 10), (1, 2, 20)]);
        assert_eq!(m.nvals(), 2);
        m.check_invariants().unwrap();
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let mut m = DeltaMatrix::<i64>::new(2, 2);
        assert!(m.try_set_element(2, 0, 1).is_err());
        assert!(m.remove_element(0, 2).is_err());
    }

    #[test]
    fn snapshot_pins_epoch_across_flush() {
        let mut m = seeded();
        let epoch0 = m.epoch();
        let pinned = m.main_shared();
        m.set_element(2, 2, 99);
        m.flush();
        assert_eq!(m.epoch(), epoch0 + 1);
        // The pinned epoch still shows the pre-flush state…
        assert_eq!(pinned.extract_element(2, 2), None);
        // …while the published epoch has the write.
        assert_eq!(m.main().extract_element(2, 2), Some(99));
        m.check_invariants().unwrap();
    }

    #[test]
    fn pinned_epoch_is_reclaimed_when_last_reader_drops() {
        let mut m = seeded();
        let pinned = m.main_shared();
        let weak = Arc::downgrade(&pinned);
        m.set_element(0, 0, 1);
        m.flush(); // publishes the next epoch; the old one lives via `pinned`
        assert!(weak.upgrade().is_some(), "a pinned epoch must stay alive");
        drop(pinned);
        assert!(weak.upgrade().is_none(), "the last reader drop reclaims the epoch");
    }

    #[test]
    fn write_heavy_loop_does_not_accumulate_epochs() {
        let mut m = DeltaMatrix::<i64>::new(64, 64);
        let pinned = m.main_shared(); // one long-lived reader on epoch 0
        let mut weaks = Vec::new();
        for i in 0..50u64 {
            m.set_element(i % 64, (i * 7) % 64, i as i64);
            m.flush();
            weaks.push(Arc::downgrade(&m.main_shared()));
        }
        let live = weaks.iter().filter(|w| w.upgrade().is_some()).count();
        assert_eq!(live, 1, "only the newest epoch may stay alive, not all 50");
        drop(pinned);
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

    /// A 16-chunk matrix with `per_chunk` pending inserts in every chunk and
    /// a flushed main row per chunk, so deletes earn delta-minus records.
    fn pending_in_every_chunk(per_chunk: Index) -> DeltaMatrix<i64> {
        let n = 16 * CHUNK_ROWS;
        let main: Vec<_> = (0..16).map(|i| (i * CHUNK_ROWS, 0, -1)).collect();
        let mut m = DeltaMatrix::from_matrix(SparseMatrix::from_triples(n, n, &main).unwrap());
        m.set_flush_threshold(usize::MAX);
        for r in (0..n).step_by((CHUNK_ROWS / per_chunk) as usize) {
            m.set_element(r, r, r as i64);
        }
        m
    }

    #[test]
    fn clone_shares_every_chunk_and_a_write_copies_one() {
        let mut m = pending_in_every_chunk(64);
        assert_eq!(m.pending_count(), 16 * 64);
        let snap = m.clone();
        let unshared = |m: &DeltaMatrix<i64>| m.chunks.leaves_not_shared_with(&snap.chunks);
        assert!(m.chunks.ptr_eq(&snap.chunks), "a clone shares the whole table");
        assert_eq!(unshared(&m), 0, "a clone copies no buffer entry");
        let before = snap.to_triples();

        m.set_element(3, 7, 1); // chunk 0
        assert_eq!(unshared(&m), 1);
        m.set_element(5, 9, 2); // chunk 0 again: already private
        assert_eq!(unshared(&m), 1);
        m.remove_element(CHUNK_ROWS, 0).unwrap(); // a main entry in chunk 1
        assert_eq!(unshared(&m), 2);
        m.remove_element(7 * CHUNK_ROWS + 3, 0).unwrap(); // absent: no copy
        assert_eq!(unshared(&m), 2);
        assert_eq!(m.chunks.iter().count(), 16, "chunks 2..16 stay shared");

        assert_eq!(snap.to_triples(), before, "the clone sees exactly its own state");
        snap.check_invariants().unwrap();
        m.check_invariants().unwrap();
    }

    #[test]
    fn flush_after_clone_leaves_the_clones_chunks_intact() {
        let mut m = pending_in_every_chunk(8);
        let snap = m.clone();
        let before = snap.to_triples();
        let weak = Arc::downgrade(snap.chunks.leaf(5).unwrap());
        m.remove_element(5 * CHUNK_ROWS, 0).unwrap();
        m.flush();
        assert_eq!(m.chunks.iter().count(), 0, "a fold drains every chunk");
        assert_eq!(m.chunks.len(), 16);
        assert_eq!(snap.to_triples(), before);
        assert_eq!(snap.pending_count(), 16 * 8);
        snap.check_invariants().unwrap();
        drop(snap);
        assert!(weak.upgrade().is_none(), "the last holder's drop frees a chunk");
    }

    #[test]
    fn rows_on_either_side_of_a_chunk_boundary_stay_apart() {
        let n = 3 * CHUNK_ROWS;
        let mut m = DeltaMatrix::<i64>::new(n, n);
        m.set_flush_threshold(usize::MAX);
        for r in [CHUNK_ROWS - 1, CHUNK_ROWS, 2 * CHUNK_ROWS - 1, 2 * CHUNK_ROWS] {
            m.set_element(r, r, r as i64);
            m.set_element(r, 0, 1);
        }
        m.flush();
        m.remove_element(CHUNK_ROWS - 1, 0).unwrap();
        m.set_element(CHUNK_ROWS, 1, 5);
        let row = |r: Index| row_of(&m, r);
        assert_eq!(row(CHUNK_ROWS - 1), vec![(CHUNK_ROWS - 1, (CHUNK_ROWS - 1) as i64)]);
        assert_eq!(row(CHUNK_ROWS), vec![(0, 1), (1, 5), (CHUNK_ROWS, CHUNK_ROWS as i64)]);
        let triples = m.to_triples();
        assert!(triples.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        assert_eq!(triples.len(), m.nvals());
        m.check_invariants().unwrap();
        // Deleting the only pending insert of a chunk releases the chunk.
        m.remove_element(CHUNK_ROWS, 1).unwrap();
        assert!(m.chunks.get(1).is_none());
        m.check_invariants().unwrap();
    }

    #[test]
    fn resize_keeps_one_chunk_per_row_range() {
        let mut m = DeltaMatrix::<i64>::new(10, 10);
        assert_eq!(m.chunks.len(), 1);
        m.set_element(9, 9, 1);
        m.resize(CHUNK_ROWS * 2 + 1, 10);
        assert_eq!(m.chunks.len(), 3);
        m.set_element(CHUNK_ROWS * 2, 3, 2);
        m.check_invariants().unwrap();
        m.resize(CHUNK_ROWS, 10);
        assert_eq!(m.chunks.len(), 1);
        assert_eq!(m.to_triples(), vec![(9, 9, 1)]);
        m.check_invariants().unwrap();
    }

    #[test]
    fn resize_growing_rows_while_shrinking_columns_adds_chunks() {
        let mut m = DeltaMatrix::<i64>::new(10, 10);
        m.set_element(3, 7, 1); // dropped: column 7 is out of the new range
        m.resize(600, 5);
        assert_eq!(m.chunks.len(), chunk_count(600));
        m.set_element(300, 4, 2);
        assert_eq!(m.to_triples(), vec![(300, 4, 2)]);
        m.check_invariants().unwrap();
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
}
