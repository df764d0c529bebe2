//! Property-based tests for the GraphBLAS data structures and kernels.
//!
//! The properties mirror the algebraic identities the library is supposed to
//! satisfy: agreement between sparse kernels and dense reference
//! implementations, transpose involution, and semiring identities used by the
//! traversal engine. Update sequences are covered by `delta_proptests.rs`.

use graphblas::prelude::*;
use proptest::prelude::*;

const DIM: u64 = 12;
/// Rectangular dimensions for the transpose tests (shape must round-trip too).
const RDIM_ROWS: u64 = 9;
const RDIM_COLS: u64 = 13;

/// Strategy: a list of in-bounds (row, col, value) triples.
fn triples() -> impl Strategy<Value = Vec<(u64, u64, i64)>> {
    prop::collection::vec(((0..DIM), (0..DIM), -100i64..100), 0..80)
}

/// Strategy: triples in bounds for a rectangular `RDIM_ROWS × RDIM_COLS` matrix.
fn rect_triples() -> impl Strategy<Value = Vec<(u64, u64, i64)>> {
    prop::collection::vec(((0..RDIM_ROWS), (0..RDIM_COLS), -100i64..100), 0..80)
}

/// Row `i` of `A` as a sparse vector of length `A.ncols()`: the reference
/// `vxm` is checked against.
fn extract_row<T: Scalar>(a: &SparseMatrix<T>, i: u64) -> GrbResult<SparseVector<T>> {
    if i >= a.nrows() {
        return Err(GrbError::IndexOutOfBounds { index: i, bound: a.nrows() });
    }
    let (cols, vals) = a.row(i);
    let entries: Vec<_> = cols.iter().copied().zip(vals.iter().copied()).collect();
    SparseVector::from_entries(a.ncols(), &entries)
}

/// Column `j` of `A` as a sparse vector of length `A.nrows()`.
fn extract_col<T: Scalar>(a: &SparseMatrix<T>, j: u64) -> GrbResult<SparseVector<T>> {
    if j >= a.ncols() {
        return Err(GrbError::IndexOutOfBounds { index: j, bound: a.ncols() });
    }
    let entries: Vec<_> =
        (0..a.nrows()).filter_map(|r| Some((r, a.extract_element(r, j)?))).collect();
    SparseVector::from_entries(a.nrows(), &entries)
}

fn extract_fixture() -> SparseMatrix<i64> {
    SparseMatrix::from_triples(
        4,
        4,
        &[(0, 0, 1), (0, 3, 2), (1, 1, 3), (2, 0, 4), (3, 2, 5), (3, 3, 6)],
    )
    .unwrap()
}

#[test]
fn extract_row_and_col() {
    let r = extract_row(&extract_fixture(), 0).unwrap();
    assert_eq!(r.to_entries(), vec![(0, 1), (3, 2)]);
    let c = extract_col(&extract_fixture(), 0).unwrap();
    assert_eq!(c.to_entries(), vec![(0, 1), (2, 4)]);
}

#[test]
fn extract_rejects_out_of_bounds() {
    assert!(extract_row(&extract_fixture(), 4).is_err());
    assert!(extract_col(&extract_fixture(), 9).is_err());
}

/// Dense reference multiply under plus_times.
fn dense_mxm(a: &SparseMatrix<i64>, b: &SparseMatrix<i64>) -> Vec<Vec<i64>> {
    let mut da = vec![vec![0i64; DIM as usize]; DIM as usize];
    let mut db = vec![vec![0i64; DIM as usize]; DIM as usize];
    for (r, c, v) in a.to_triples() {
        da[r as usize][c as usize] = v;
    }
    for (r, c, v) in b.to_triples() {
        db[r as usize][c as usize] = v;
    }
    let mut dc = vec![vec![0i64; DIM as usize]; DIM as usize];
    for i in 0..DIM as usize {
        for k in 0..DIM as usize {
            if da[i][k] == 0 {
                continue;
            }
            for j in 0..DIM as usize {
                dc[i][j] = dc[i][j].wrapping_add(da[i][k].wrapping_mul(db[k][j]));
            }
        }
    }
    dc
}

proptest! {
    #[test]
    fn transpose_is_an_involution(ts in triples()) {
        let m = SparseMatrix::from_triples(DIM, DIM, &ts).unwrap();
        let tt = transpose(&transpose(&m));
        prop_assert_eq!(tt, m);
    }

    #[test]
    fn transpose_swaps_every_entry(ts in triples()) {
        let m = SparseMatrix::from_triples(DIM, DIM, &ts).unwrap();
        let t = transpose(&m);
        for (r, c, v) in m.to_triples() {
            prop_assert_eq!(t.extract_element(c, r), Some(v));
        }
        prop_assert_eq!(t.nvals(), m.nvals());
    }

    #[test]
    fn mxm_plus_times_matches_dense_reference(ta in triples(), tb in triples()) {
        let a = SparseMatrix::from_triples_dup(DIM, DIM, &ta, |x, y| x.wrapping_add(y)).unwrap();
        let b = SparseMatrix::from_triples_dup(DIM, DIM, &tb, |x, y| x.wrapping_add(y)).unwrap();
        let c = mxm(&a, &b, &Semiring::plus_times(), None, &Descriptor::default());
        let dc = dense_mxm(&a, &b);
        for i in 0..DIM {
            for j in 0..DIM {
                let sparse = c.extract_element(i, j).unwrap_or(0);
                // A stored explicit zero is allowed; value must match the dense result.
                prop_assert_eq!(sparse, dc[i as usize][j as usize], "mismatch at ({}, {})", i, j);
            }
        }
    }

    #[test]
    fn vxm_equals_row_of_mxm(ts in triples(), src in 0..DIM) {
        // Multiplying by an indicator vector e_src must equal extracting row src
        // of A (over any semiring; we use plus_times).
        let a = SparseMatrix::from_triples(DIM, DIM, &ts).unwrap();
        let mut e = SparseVector::<i64>::new(DIM);
        e.set_element(src, 1);
        let w = vxm(&e, &a, &Semiring::plus_times(), None, &Descriptor::default());
        let row = extract_row(&a, src).unwrap();
        prop_assert_eq!(w.to_entries(), row.to_entries());
    }

    #[test]
    fn masked_mxm_is_subset_of_unmasked(ta in triples(), tb in triples(), tm in triples()) {
        let a = SparseMatrix::from_triples(DIM, DIM, &ta).unwrap();
        let b = SparseMatrix::from_triples(DIM, DIM, &tb).unwrap();
        let mask_pattern: Vec<_> = tm.iter().map(|&(r, c, _)| (r, c, true)).collect();
        let mask_m = SparseMatrix::from_triples(DIM, DIM, &mask_pattern).unwrap();
        let mask = MatrixMask::new(&mask_m);
        let unmasked = mxm(&a, &b, &Semiring::plus_times(), None, &Descriptor::default());
        let masked = mxm(&a, &b, &Semiring::plus_times(), Some(&mask), &Descriptor::default());
        prop_assert!(masked.nvals() <= unmasked.nvals());
        for (r, c, v) in masked.to_triples() {
            prop_assert_eq!(unmasked.extract_element(r, c), Some(v));
            prop_assert!(mask_m.contains(r, c));
        }
    }

    #[test]
    fn transpose_involution_holds_on_rectangular_matrices(ts in rect_triples()) {
        let m = SparseMatrix::from_triples(RDIM_ROWS, RDIM_COLS, &ts).unwrap();
        let t = transpose(&m);
        prop_assert_eq!(t.nrows(), RDIM_COLS);
        prop_assert_eq!(t.ncols(), RDIM_ROWS);
        prop_assert!(t.check_invariants().is_ok());
        let tt = transpose(&t);
        prop_assert_eq!(tt, m);
    }

    #[test]
    fn vector_updates_preserve_invariants(entries in prop::collection::vec(((0..DIM), -50i64..50), 0..40)) {
        let mut v = SparseVector::<i64>::new(DIM);
        let mut last = std::collections::HashMap::new();
        for &(i, x) in &entries {
            v.set_element(i, x);
            last.insert(i, x);
        }
        v.check_invariants().unwrap();
        prop_assert_eq!(v.nvals(), last.len());
        for (&i, &x) in &last {
            prop_assert_eq!(v.extract_element(i), Some(x));
        }
    }
}

/// Strategy: a matrix size (deliberately not always a multiple of 64, the
/// bitmap word width) and raw coordinates to be reduced modulo it.
fn sized_pattern() -> impl Strategy<Value = (u64, Vec<(u64, u64)>)> {
    (1u64..150, prop::collection::vec((any::<u64>(), any::<u64>()), 0..400))
}

/// An `n × n` pattern matrix from raw coordinates, with the given values.
fn pattern_matrix<T: Scalar>(
    n: u64,
    raw: &[(u64, u64)],
    value: impl Fn(usize) -> T,
) -> SparseMatrix<T> {
    let triples: Vec<(u64, u64, T)> =
        raw.iter().enumerate().map(|(k, &(r, c))| (r % n, c % n, value(k))).collect();
    SparseMatrix::from_triples(n, n, &triples).unwrap()
}

/// `a` as a stored matrix, which the BFS kernels read.
fn stored<T: Scalar>(a: &SparseMatrix<T>) -> DeltaMatrix<T> {
    DeltaMatrix::from_matrix(a.clone())
}

/// The pattern of a vertex set as a bitmap.
fn bitmap_of(v: &SparseVector<bool>) -> Bitmap {
    let mut bits = Bitmap::new(v.size());
    v.indices().iter().for_each(|&i| _ = bits.insert(i));
    bits
}

/// A bitmap as a boolean vertex set.
fn vector_of(bits: &Bitmap) -> SparseVector<bool> {
    let entries: Vec<(u64, bool)> = bits.iter().map(|i| (i, true)).collect();
    SparseVector::from_entries(bits.size(), &entries).unwrap()
}

/// A boolean vertex set of size `n` from raw positions.
fn vertex_set(n: u64, raw: &[u64]) -> SparseVector<bool> {
    let entries: Vec<(u64, bool)> = raw.iter().map(|&i| (i % n, true)).collect();
    SparseVector::from_entries(n, &entries).unwrap()
}

proptest! {
    #[test]
    fn bfs_push_equals_masked_vxm_then_ewise_add(
        pattern in sized_pattern(),
        raw_frontier in prop::collection::vec(any::<u64>(), 0..20),
        raw_visited in prop::collection::vec(any::<u64>(), 0..60),
    ) {
        let (n, edges) = pattern;
        let a = pattern_matrix(n, &edges, |_| true);
        let frontier = vertex_set(n, &raw_frontier);
        let visited = vertex_set(n, &raw_visited);
        let desc = Descriptor::new().with_mask_complement().with_mask_structure();
        let want_next =
            vxm(&frontier, &a, &Semiring::lor_land(), Some(&VectorMask::new(&visited)), &desc);
        let want_visited = ewise_add_vector(&visited, &want_next, &BinaryOp::LOr);

        let mut bits = bitmap_of(&visited);
        let (mut reached, mut next) = (Reached::new(n), Vec::new());
        bfs_scan(&stored(&a), frontier.indices(), &mut reached);
        bfs_push(&mut reached, &mut bits, &mut next);
        prop_assert_eq!(next.as_slice(), want_next.indices(), "push output is ascending");
        prop_assert_eq!(&reached, &Reached::new(n), "`reached` comes back empty");
        prop_assert_eq!(vector_of(&bits), want_visited);

        // Edge-id-valued matrices with the same pattern take the same step,
        // reusing the `reached` set the first step handed back.
        let ids = pattern_matrix(n, &edges, |k| k as u64);
        let mut id_bits = bitmap_of(&visited);
        let mut id_next = Vec::new();
        bfs_scan(&stored(&ids), frontier.indices(), &mut reached);
        bfs_push(&mut reached, &mut id_bits, &mut id_next);
        prop_assert_eq!(&id_next, &next);
        prop_assert_eq!(&id_bits, &bits);
        prop_assert_eq!(&reached, &Reached::new(n));
    }

    #[test]
    fn bfs_push_over_two_matrices_is_one_step_over_their_union(
        pattern in sized_pattern(),
        raw_other in prop::collection::vec((any::<u64>(), any::<u64>()), 0..120),
        raw_frontier in prop::collection::vec(any::<u64>(), 0..20),
        raw_visited in prop::collection::vec(any::<u64>(), 0..60),
    ) {
        // An undirected hop pushes through a matrix and its transpose, which
        // hold different value types; an untyped one through every type's
        // matrix.
        let (n, edges) = pattern;
        let (a, b) = (pattern_matrix(n, &edges, |_| true), pattern_matrix(n, &raw_other, |k| k));
        let union = pattern_matrix(n, &[&edges[..], &raw_other[..]].concat(), |_| true);
        let frontier = vertex_set(n, &raw_frontier);
        let visited = vertex_set(n, &raw_visited);
        let desc = Descriptor::new().with_mask_complement().with_mask_structure();
        let want_next =
            vxm(&frontier, &union, &Semiring::lor_land(), Some(&VectorMask::new(&visited)), &desc);

        let mut bits = bitmap_of(&visited);
        let (mut reached, mut next) = (Reached::new(n), Vec::new());
        bfs_scan(&stored(&a), frontier.indices(), &mut reached);
        bfs_scan(&stored(&b), frontier.indices(), &mut reached);
        bfs_push(&mut reached, &mut bits, &mut next);
        prop_assert_eq!(next.as_slice(), want_next.indices(), "one ascending union");
        prop_assert_eq!(&reached, &Reached::new(n));
        prop_assert_eq!(vector_of(&bits), ewise_add_vector(&visited, &want_next, &BinaryOp::LOr));
    }

    #[test]
    fn bfs_pull_equals_masked_mxv_over_the_explicit_transpose(
        pattern in sized_pattern(),
        raw_frontier in prop::collection::vec(any::<u64>(), 0..60),
        raw_visited in prop::collection::vec(any::<u64>(), 0..60),
    ) {
        let (n, edges) = pattern;
        let a = pattern_matrix(n, &edges, |k| k as u64);
        let at = transpose(&a);
        let frontier = vertex_set(n, &raw_frontier);
        let visited = vertex_set(n, &raw_visited);
        // A pull over Aᵀ computes Aᵀ·frontier, which is frontier·A: the
        // oracle is a masked vxm over the pattern of A.
        let desc = Descriptor::new().with_mask_complement().with_mask_structure();
        let pattern = pattern_matrix(n, &edges, |_| true);
        let want =
            vxm(&frontier, &pattern, &Semiring::lor_land(), Some(&VectorMask::new(&visited)), &desc);

        let mut bits = bitmap_of(&visited);
        let mut next = Vec::new();
        bfs_pull(&stored(&at), &bitmap_of(&frontier), &mut bits, &mut next);
        prop_assert_eq!(next.as_slice(), want.indices(), "pull output is ascending");

        // Pull over Aᵀ and push over A are the same level.
        let mut push_bits = bitmap_of(&visited);
        let (mut reached, mut push_next) = (Reached::new(n), Vec::new());
        bfs_scan(&stored(&a), frontier.indices(), &mut reached);
        bfs_push(&mut reached, &mut push_bits, &mut push_next);
        prop_assert_eq!(push_next, next);
        prop_assert_eq!(push_bits, bits);
    }
}
