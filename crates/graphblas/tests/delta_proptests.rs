//! Differential property tests for [`graphblas::DeltaMatrix`].
//!
//! Every test drives a delta matrix with a random interleaving of
//! set / delete / flush operations and checks it element-for-element against
//! eager application of the same sequence:
//!
//! * a dense `HashMap` reference (the simplest possible oracle);
//! * a [`SparseMatrix`] built from that reference with `from_triples` at each
//!   check, so the merged view is compared with an independently built CSR;
//! * an eager `DeltaMatrix` with `flush_threshold = 1`.
//!
//! Flushes are injected at arbitrary points in the sequence, and small
//! auto-flush thresholds force additional flushes mid-stream, so the
//! delete-of-pending-insert / insert-over-pending-delete transitions are all
//! exercised with every possible buffer state.
//!
//! The rows are split into leaves of 1 024, each a CSR slice with its own
//! buffers in 64-row chunks, held by a copy-on-write `ChunkTable`, so a
//! clone shares them, a later write copies only its own leaf's path and
//! chunk, and a fold replaces one leaf. A 10×10 matrix lives in one leaf;
//! the wide scripts below draw rows from both sides of chunk and leaf
//! boundaries over 36 leaves (past the 32 one table level holds), fold each
//! leaf at its share of thresholds from 1 up, clone at random points, and
//! check every clone against the dense model frozen at clone time after the
//! original has gone on to set, remove and flush.
//!
//! A script checks the invariants after every step through one
//! [`CheckedSlices`] record, so each leaf's immutable CSR slice is checked
//! once, when it first appears, however many steps and clones share it.

use graphblas::delta::CheckedSlices;
use graphblas::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

const DIM: u64 = 10;

/// One merged row, read through `any_entry_in_row`.
fn row_of(delta: &DeltaMatrix<i64>, row: u64) -> Vec<(u64, i64)> {
    let mut out = Vec::new();
    delta.any_entry_in_row(row, |c, v| {
        out.push((c, v));
        false
    });
    out
}

/// One scripted operation: `kind` 0–3 = set, 4–5 = remove, 6 = explicit flush
/// (sets are over-weighted so matrices actually fill up).
type ScriptedOp = (u8, u64, u64, i64);

fn ops() -> impl Strategy<Value = Vec<ScriptedOp>> {
    prop::collection::vec((0u8..7, 0..DIM, 0..DIM, -50i64..50), 0..120)
}

/// Apply one scripted op to the delta matrix under test and to the dense
/// reference.
fn apply(op: ScriptedOp, delta: &mut DeltaMatrix<i64>, dense: &mut HashMap<(u64, u64), i64>) {
    let (kind, r, c, v) = op;
    match kind {
        0..=3 => {
            delta.set_element(r, c, v);
            dense.insert((r, c), v);
        }
        4 | 5 => {
            delta.remove_element(r, c).unwrap();
            dense.remove(&(r, c));
        }
        _ => delta.flush(),
    }
}

/// The CSR oracle: the dense reference built straight into a `DIM × DIM`
/// [`SparseMatrix`].
fn eager(dense: &HashMap<(u64, u64), i64>) -> SparseMatrix<i64> {
    let triples: Vec<_> = dense.iter().map(|(&(r, c), &v)| (r, c, v)).collect();
    SparseMatrix::from_triples(DIM, DIM, &triples).unwrap()
}

/// The delta-matrix invariants, checking only the CSR slices that `checked`
/// has not seen.
fn check(delta: &DeltaMatrix<i64>, checked: &mut CheckedSlices<i64>) -> Result<(), TestCaseError> {
    delta.check_invariants_with(checked).map_err(|e| TestCaseError::fail(format!("{e}")))
}

/// Assert the delta matrix's merged view equals the dense reference,
/// element-wise over the full index space.
fn assert_matches_dense(
    delta: &DeltaMatrix<i64>,
    dense: &HashMap<(u64, u64), i64>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(delta.nvals(), dense.len());
    for r in 0..DIM {
        for c in 0..DIM {
            prop_assert_eq!(
                delta.extract_element(r, c),
                dense.get(&(r, c)).copied(),
                "mismatch at ({}, {})",
                r,
                c
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn interleaved_ops_match_dense_reference(script in ops(), threshold in 1usize..40) {
        let mut delta = DeltaMatrix::<i64>::new(DIM, DIM).unwrap();
        delta.set_flush_threshold(threshold);
        let (mut dense, mut checked) = (HashMap::new(), CheckedSlices::default());
        for &op in &script {
            apply(op, &mut delta, &mut dense);
            check(&delta, &mut checked)?;
        }
        // Merged view agrees with both oracles at the end of the script…
        assert_matches_dense(&delta, &dense)?;
        prop_assert_eq!(delta.to_triples(), eager(&dense).to_triples());
        // …and still does after a final flush collapses the buffers.
        delta.flush();
        prop_assert!(delta.is_flushed());
        assert_matches_dense(&delta, &dense)?;
        prop_assert_eq!(delta.to_triples(), eager(&dense).to_triples());
    }

    #[test]
    fn flush_at_arbitrary_point_is_transparent(script in ops(), cut in 0usize..120) {
        // Two runs of the same script: one flushes at an arbitrary mid-point,
        // the other never flushes (huge threshold). Readers must not be able
        // to tell them apart.
        let mut flushed = DeltaMatrix::<i64>::new(DIM, DIM).unwrap();
        let mut buffered = DeltaMatrix::<i64>::new(DIM, DIM).unwrap();
        flushed.set_flush_threshold(usize::MAX);
        buffered.set_flush_threshold(usize::MAX);
        let mut dense = HashMap::new();
        for (i, &op) in script.iter().enumerate() {
            apply(op, &mut flushed, &mut dense);
            let (kind, r, c, v) = op;
            match kind {
                0..=3 => buffered.set_element(r, c, v),
                4 | 5 => buffered.remove_element(r, c).unwrap(),
                _ => {} // explicit flush: a no-op difference by design
            }
            if i == cut {
                flushed.flush();
            }
        }
        assert_matches_dense(&flushed, &dense)?;
        prop_assert_eq!(flushed.to_triples(), buffered.to_triples());
        prop_assert_eq!(flushed.nvals(), buffered.nvals());
    }

    #[test]
    fn delete_of_pending_insert_cases(coords in prop::collection::vec((0..DIM, 0..DIM), 1..20)) {
        // For every coordinate: insert while absent, delete while pending,
        // re-insert, flush, delete while stored, re-insert over the pending
        // delete — the full transition diagram of one cell.
        let mut delta = DeltaMatrix::<i64>::new(DIM, DIM).unwrap();
        delta.set_flush_threshold(usize::MAX);
        let (mut dense, mut checked) = (HashMap::new(), CheckedSlices::default());
        for (i, &(r, c)) in coords.iter().enumerate() {
            let v = i as i64;
            delta.set_element(r, c, v);
            dense.insert((r, c), v);
            delta.remove_element(r, c).unwrap();
            dense.remove(&(r, c));
            delta.set_element(r, c, v + 1);
            dense.insert((r, c), v + 1);
            check(&delta, &mut checked)?;
        }
        delta.flush();
        for &(r, c) in &coords {
            delta.remove_element(r, c).unwrap();
            dense.remove(&(r, c));
            delta.set_element(r, c, -1);
            dense.insert((r, c), -1);
        }
        delta.check_invariants().map_err(|e| TestCaseError::fail(format!("{e}")))?;
        assert_matches_dense(&delta, &dense)?;
    }

    #[test]
    fn any_entry_in_row_matches_dense_rows(script in ops()) {
        let mut delta = DeltaMatrix::<i64>::new(DIM, DIM).unwrap();
        delta.set_flush_threshold(usize::MAX);
        let mut dense = HashMap::new();
        for &op in &script {
            apply(op, &mut delta, &mut dense);
        }
        for r in 0..DIM {
            let merged = row_of(&delta, r);
            let mut expected: Vec<(u64, i64)> = dense
                .iter()
                .filter(|&(&(row, _), _)| row == r)
                .map(|(&(_, c), &v)| (c, v))
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(merged, expected, "row {} diverged", r);
        }
    }

    #[test]
    fn export_and_view_match_merged_state(script in ops(), threshold in 1usize..60) {
        let mut delta = DeltaMatrix::<i64>::new(DIM, DIM).unwrap();
        delta.set_flush_threshold(threshold);
        let mut dense = HashMap::new();
        for &op in &script {
            apply(op, &mut delta, &mut dense);
        }
        let exported = delta.export();
        exported.check_invariants().map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(&exported, &eager(&dense));
        prop_assert_eq!(delta.to_triples(), eager(&dense).to_triples());
    }
}

/// Rows of the wide scripts: in each of twelve ranges of three 1 024-row
/// leaves, the first two, both sides of the first 64-row chunk boundary and
/// of the first leaf boundary, and the last.
const WIDE_ROW_OFFSETS: [u64; 7] = [0, 1, 63, 64, 1023, 1024, WIDE_STRIDE - 1];
const WIDE_STRIDE: u64 = 3 * 1024;
const WIDE_CHUNKS: u64 = 12;
const WIDE_COLS: u64 = 6;

/// One wide op: `kind` 0–3 = set, 4–5 = remove, 6 = flush, 7 = clone;
/// the row is `chunk * WIDE_STRIDE + WIDE_ROW_OFFSETS[offset]`.
type WideOp = (u8, u64, usize, u64, i64);

fn wide_ops() -> impl Strategy<Value = Vec<WideOp>> {
    prop::collection::vec(
        (0u8..8, 0..WIDE_CHUNKS, 0..WIDE_ROW_OFFSETS.len(), 0..WIDE_COLS, -50i64..50),
        0..160,
    )
}

fn wide_rows() -> impl Iterator<Item = u64> {
    (0..WIDE_CHUNKS).flat_map(|c| WIDE_ROW_OFFSETS.iter().map(move |o| c * WIDE_STRIDE + o))
}

/// Check a delta matrix against a dense model on every row a wide script
/// can touch, and its whole merged view against the model's triples.
fn assert_frozen(
    delta: &DeltaMatrix<i64>,
    dense: &HashMap<(u64, u64), i64>,
    checked: &mut CheckedSlices<i64>,
) -> Result<(), TestCaseError> {
    check(delta, checked)?;
    prop_assert_eq!(delta.nvals(), dense.len());
    let mut expected: Vec<(u64, u64, i64)> = dense.iter().map(|(&(r, c), &v)| (r, c, v)).collect();
    expected.sort_unstable();
    prop_assert_eq!(delta.to_triples(), expected.clone());
    for r in wide_rows() {
        let row: Vec<(u64, i64)> =
            expected.iter().filter(|t| t.0 == r).map(|&(_, c, v)| (c, v)).collect();
        prop_assert_eq!(row_of(delta, r), row, "row {} diverged", r);
        for c in 0..WIDE_COLS {
            prop_assert_eq!(delta.extract_element(r, c), dense.get(&(r, c)).copied());
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn clones_stay_frozen_across_chunk_boundaries(script in wide_ops(), threshold in 1usize..400) {
        let n = WIDE_CHUNKS * WIDE_STRIDE;
        let mut delta = DeltaMatrix::<i64>::new(n, WIDE_COLS).unwrap();
        delta.set_flush_threshold(threshold);
        let (mut dense, mut checked) = (HashMap::new(), CheckedSlices::default());
        let mut clones = Vec::new();
        for &(kind, chunk, offset, c, v) in &script {
            let r = chunk * WIDE_STRIDE + WIDE_ROW_OFFSETS[offset];
            match kind {
                0..=3 => {
                    delta.set_element(r, c, v);
                    dense.insert((r, c), v);
                }
                4 | 5 => {
                    delta.remove_element(r, c).unwrap();
                    dense.remove(&(r, c));
                }
                6 => delta.flush(),
                _ => clones.push((delta.clone(), dense.clone())),
            }
            check(&delta, &mut checked)?;
        }
        assert_frozen(&delta, &dense, &mut checked)?;
        // Every clone still shows exactly the state it was taken at…
        for (clone, frozen) in &clones {
            assert_frozen(clone, frozen, &mut checked)?;
        }
        // …and still does once the original folds everything it shares. The
        // folds publish exactly the CSR `export` builds without publishing.
        let exported = delta.export();
        delta.flush();
        prop_assert!(delta.is_flushed());
        assert_frozen(&delta, &dense, &mut checked)?;
        exported.check_invariants().map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(&exported, &delta.export());
        for (clone, frozen) in &clones {
            assert_frozen(clone, frozen, &mut checked)?;
        }
        // Clones are full matrices in their own right: writing to one leaves
        // the original and the other clones alone.
        if let Some((first, frozen)) = clones.first_mut() {
            first.set_element(1023, 0, 99);
            first.remove_element(1024, 1).unwrap();
            first.flush();
            frozen.insert((1023, 0), 99);
            frozen.remove(&(1024, 1));
            assert_frozen(first, frozen, &mut checked)?;
        }
        assert_frozen(&delta, &dense, &mut checked)?;
        for (clone, frozen) in clones.iter().skip(1) {
            assert_frozen(clone, frozen, &mut checked)?;
        }
    }
}
