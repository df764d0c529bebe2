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

/// Column `j` of `A` as a sparse vector of length `A.nrows()`: the reference
/// `mxv` and `mxm` are checked against.
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
    fn ewise_add_is_commutative_and_counts_union(ta in triples(), tb in triples()) {
        let a = SparseMatrix::from_triples(DIM, DIM, &ta).unwrap();
        let b = SparseMatrix::from_triples(DIM, DIM, &tb).unwrap();
        let ab = ewise_add_matrix(&a, &b, &BinaryOp::Plus);
        let ba = ewise_add_matrix(&b, &a, &BinaryOp::Plus);
        prop_assert_eq!(&ab, &ba);
        // union pattern size
        let mut coords: std::collections::HashSet<(u64, u64)> = std::collections::HashSet::new();
        coords.extend(a.to_triples().iter().map(|&(r, c, _)| (r, c)));
        coords.extend(b.to_triples().iter().map(|&(r, c, _)| (r, c)));
        prop_assert_eq!(ab.nvals(), coords.len());
    }

    #[test]
    fn reduce_matrix_scalar_equals_sum_of_triples(ts in triples()) {
        let a = SparseMatrix::from_triples_dup(DIM, DIM, &ts, |x, y| x.wrapping_add(y)).unwrap();
        let total: i64 = a.to_triples().iter().map(|&(_, _, v)| v).sum();
        prop_assert_eq!(reduce_matrix_to_scalar(&a, &graphblas::monoid::plus_monoid()), total);
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
    fn mxv_matches_dense_reference(ts in triples(), entries in prop::collection::vec(((0..DIM), -50i64..50), 0..24)) {
        let a = SparseMatrix::from_triples(DIM, DIM, &ts).unwrap();
        let mut u = SparseVector::<i64>::new(DIM);
        for &(j, x) in &entries {
            u.set_element(j, x);
        }
        let w = mxv(&a, &u, &Semiring::plus_times(), None, &Descriptor::default());
        // Dense reference: w[i] = Σ_j a[i][j] * u[j], absent ⇔ no stored a[i][j]
        // meets a stored u[j] (GraphBLAS keeps structural zeros out of the result).
        let dense_u: Vec<Option<i64>> = u.to_dense();
        for i in 0..DIM {
            let (cols, vals) = a.row(i);
            let mut acc: Option<i64> = None;
            for (&j, &av) in cols.iter().zip(vals.iter()) {
                if let Some(uv) = dense_u[j as usize] {
                    acc = Some(acc.unwrap_or(0).wrapping_add(av.wrapping_mul(uv)));
                }
            }
            prop_assert_eq!(w.extract_element(i), acc, "row {}", i);
        }
    }

    #[test]
    fn mxv_agrees_with_mxm_columns(ta in triples(), tb in triples()) {
        // Multiplying A by each column of B must reproduce the corresponding
        // column of A ⊕.⊗ B — the defining relation between mxv and mxm.
        let a = SparseMatrix::from_triples(DIM, DIM, &ta).unwrap();
        let b = SparseMatrix::from_triples(DIM, DIM, &tb).unwrap();
        let c = mxm(&a, &b, &Semiring::plus_times(), None, &Descriptor::default());
        for j in 0..DIM {
            let b_col = extract_col(&b, j).unwrap();
            let w = mxv(&a, &b_col, &Semiring::plus_times(), None, &Descriptor::default());
            let c_col = extract_col(&c, j).unwrap();
            prop_assert_eq!(w.to_entries(), c_col.to_entries(), "column {}", j);
        }
    }

    #[test]
    fn mxv_on_explicit_transpose_equals_vxm(ts in triples(), entries in prop::collection::vec(((0..DIM), -50i64..50), 0..24)) {
        // Pull traversal over Aᵀ and push traversal over A are the same map:
        // Aᵀ ⊕.⊗ u == u ⊕.⊗ A.
        let a = SparseMatrix::from_triples(DIM, DIM, &ts).unwrap();
        let mut u = SparseVector::<i64>::new(DIM);
        for &(j, x) in &entries {
            u.set_element(j, x);
        }
        let pull = mxv(&transpose(&a), &u, &Semiring::plus_times(), None, &Descriptor::default());
        let push = vxm(&u, &a, &Semiring::plus_times(), None, &Descriptor::default());
        prop_assert_eq!(pull.to_entries(), push.to_entries());
    }

    #[test]
    fn mxv_indicator_extracts_matrix_columns(ts in triples(), col in 0..DIM) {
        // A ⊕.⊗ e_col over plus_times is exactly column `col` of A.
        let a = SparseMatrix::from_triples(DIM, DIM, &ts).unwrap();
        let mut e = SparseVector::<i64>::new(DIM);
        e.set_element(col, 1);
        let w = mxv(&a, &e, &Semiring::plus_times(), None, &Descriptor::default());
        let column = extract_col(&a, col).unwrap();
        prop_assert_eq!(w.to_entries(), column.to_entries());
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

        let mut bits = Bitmap::from_vector(&visited);
        let (mut reached, mut next) = (Bitmap::new(n), Vec::new());
        bfs_push(&[&a], frontier.indices(), &mut reached, &mut bits, &mut next);
        prop_assert_eq!(next.as_slice(), want_next.indices(), "push output is ascending");
        prop_assert_eq!(&reached, &Bitmap::new(n), "`reached` comes back all-zero");
        prop_assert_eq!(bits.to_vector(), want_visited);

        // Edge-id-valued matrices with the same pattern take the same step,
        // reusing the `reached` bitmap the first step handed back.
        let ids = pattern_matrix(n, &edges, |k| k as u64);
        let mut id_bits = Bitmap::from_vector(&visited);
        let mut id_next = Vec::new();
        bfs_push(&[&ids], frontier.indices(), &mut reached, &mut id_bits, &mut id_next);
        prop_assert_eq!(&id_next, &next);
        prop_assert_eq!(&id_bits, &bits);
        prop_assert_eq!(&reached, &Bitmap::new(n));
    }

    #[test]
    fn bfs_push_over_two_matrices_is_one_step_over_their_union(
        pattern in sized_pattern(),
        raw_other in prop::collection::vec((any::<u64>(), any::<u64>()), 0..120),
        raw_frontier in prop::collection::vec(any::<u64>(), 0..20),
        raw_visited in prop::collection::vec(any::<u64>(), 0..60),
    ) {
        // An undirected hop pushes through a matrix and its transpose; an
        // untyped one through every type's matrix.
        let (n, edges) = pattern;
        let (a, b) = (pattern_matrix(n, &edges, |_| true), pattern_matrix(n, &raw_other, |_| true));
        let union = ewise_add_matrix(&a, &b, &BinaryOp::LOr);
        let frontier = vertex_set(n, &raw_frontier);
        let visited = vertex_set(n, &raw_visited);
        let desc = Descriptor::new().with_mask_complement().with_mask_structure();
        let want_next =
            vxm(&frontier, &union, &Semiring::lor_land(), Some(&VectorMask::new(&visited)), &desc);

        let mut bits = Bitmap::from_vector(&visited);
        let (mut reached, mut next) = (Bitmap::new(n), Vec::new());
        bfs_push(&[&a, &b], frontier.indices(), &mut reached, &mut bits, &mut next);
        prop_assert_eq!(next.as_slice(), want_next.indices(), "one ascending union");
        prop_assert_eq!(&reached, &Bitmap::new(n));
        prop_assert_eq!(bits.to_vector(), ewise_add_vector(&visited, &want_next, &BinaryOp::LOr));
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
        let desc = Descriptor::new().with_mask_complement().with_mask_structure();
        let frontier_ids = SparseVector::from_entries(
            n,
            &frontier.indices().iter().map(|&i| (i, 1u64)).collect::<Vec<_>>(),
        )
        .unwrap();
        let want =
            mxv(&at, &frontier_ids, &Semiring::any_pair(), Some(&VectorMask::new(&visited)), &desc);

        let mut bits = Bitmap::from_vector(&visited);
        let mut next = Vec::new();
        bfs_pull(&at, &Bitmap::from_vector(&frontier), &mut bits, &mut next);
        prop_assert_eq!(next.as_slice(), want.indices(), "pull output is ascending");

        // Pull over Aᵀ and push over A are the same level.
        let mut push_bits = Bitmap::from_vector(&visited);
        let (mut reached, mut push_next) = (Bitmap::new(n), Vec::new());
        bfs_push(&[&a], frontier.indices(), &mut reached, &mut push_bits, &mut push_next);
        prop_assert_eq!(push_next, next);
        prop_assert_eq!(push_bits, bits);
    }

    #[test]
    fn bitmap_roundtrips_through_sparse_vector(
        n in 1u64..300,
        raw in prop::collection::vec(any::<u64>(), 0..120),
    ) {
        for size in [n, 1, 63, 64, 65, 128, 130] {
            let v = vertex_set(size, &raw);
            let bits = Bitmap::from_vector(&v);
            prop_assert_eq!(bits.size(), size);
            prop_assert_eq!(bits.nvals(), v.nvals());
            prop_assert_eq!(bits.to_vector(), v.clone());
            prop_assert!((0..size).all(|i| bits.contains(i) == v.contains(i)));
            // Values are dropped: only the pattern crosses over.
            let ids = SparseVector::from_entries(
                size,
                &v.indices().iter().map(|&i| (i, i * 7)).collect::<Vec<_>>(),
            )
            .unwrap();
            prop_assert_eq!(Bitmap::from_vector(&ids), bits);
        }
    }
}
