//! Criterion bench for experiment E6 (ablation): the GraphBLAS kernels behind
//! the traversal engine, and the design choices DESIGN.md calls out —
//! algebraic frontier expansion vs. pointer-chasing BFS, and masked vs.
//! unmasked `mxm`.

use baseline::AdjacencyListGraph;
use criterion::{criterion_group, criterion_main, Criterion};
use datagen::RmatConfig;
use graphblas::prelude::*;
use std::hint::black_box;

fn build_matrix(scale: u32) -> (SparseMatrix<bool>, AdjacencyListGraph, u64) {
    let el = datagen::rmat::generate(&RmatConfig {
        scale,
        edge_factor: 16,
        seed: 9,
        ..Default::default()
    });
    let n = el.num_vertices;
    let triples: Vec<(u64, u64, bool)> = {
        let mut e: Vec<(u64, u64)> = el.edges.iter().copied().filter(|&(s, d)| s != d).collect();
        e.sort_unstable();
        e.dedup();
        e.into_iter().map(|(s, d)| (s, d, true)).collect()
    };
    let m = SparseMatrix::from_triples(n, n, &triples).unwrap();
    let adj = AdjacencyListGraph::from_edge_list(n, &el.edges);
    (m, adj, n)
}

/// Algebraic one-hop frontier expansion (masked vxm) vs. the baseline's
/// adjacency-list scan, from a single-vertex frontier.
fn frontier_expansion(c: &mut Criterion) {
    let (matrix, adj, n) = build_matrix(12);
    let semiring = Semiring::lor_land();
    let desc = Descriptor::default();
    let mut group = c.benchmark_group("kernels/frontier_expansion");
    group.bench_function("vxm_single_source", |b| {
        let mut f = SparseVector::<bool>::new(n);
        f.set_element(1, true);
        b.iter(|| black_box(vxm(black_box(&f), &matrix, &semiring, None, &desc)))
    });
    group.bench_function("adjacency_list_scan", |b| {
        b.iter(|| black_box(adj.out_neighbors(black_box(1)).to_vec()))
    });
    // Wide frontier: 1% of all vertices at once — where the algebraic
    // formulation amortises best.
    let wide: Vec<(u64, bool)> = (0..n).step_by(100).map(|i| (i, true)).collect();
    let wide_frontier = SparseVector::from_entries(n, &wide).unwrap();
    group.bench_function("vxm_wide_frontier", |b| {
        b.iter(|| black_box(vxm(black_box(&wide_frontier), &matrix, &semiring, None, &desc)))
    });
    group.bench_function("adjacency_list_wide_frontier", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            for &(v, _) in &wide {
                out.extend_from_slice(adj.out_neighbors(black_box(v)));
            }
            out.sort_unstable();
            out.dedup();
            black_box(out)
        })
    });
    group.finish();
}

/// Masked vs. unmasked mxm (two-hop neighbourhood with and without excluding
/// existing one-hop edges).
fn mxm_ablation(c: &mut Criterion) {
    let (matrix, _, _) = build_matrix(10);
    let semiring = Semiring::lor_land();
    let mut group = c.benchmark_group("kernels/mxm");
    group.sample_size(10);
    group.bench_function("unmasked", |b| {
        b.iter(|| black_box(mxm(&matrix, &matrix, &semiring, None, &Descriptor::default())))
    });
    group.bench_function("masked_complement", |b| {
        let mask = MatrixMask::new(&matrix);
        let desc = Descriptor::new().with_mask_complement().with_mask_structure();
        b.iter(|| black_box(mxm(&matrix, &matrix, &semiring, Some(&mask), &desc)))
    });
    group.finish();
}

/// The transpose kernel used when maintaining the graph object.
fn maintenance_kernels(c: &mut Criterion) {
    let (matrix, _, _) = build_matrix(12);
    let mut group = c.benchmark_group("kernels/maintenance");
    group.sample_size(20);
    group.bench_function("transpose", |b| b.iter(|| black_box(transpose(black_box(&matrix)))));
    group.finish();
}

criterion_group!(benches, frontier_expansion, mxm_ablation, maintenance_kernels);
criterion_main!(benches);
