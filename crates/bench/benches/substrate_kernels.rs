//! Micro-benchmarks of the substrate kernels: sparse LU, triangular
//! inversion, sparse triangular solve, matvec, Louvain, and the BFS —
//! the components whose costs compose into Figures 2 and 6.

use criterion::{criterion_group, criterion_main, Criterion};
use kdash_bench::{dataset, HarnessConfig};
use kdash_community::{louvain, LouvainOptions};
use kdash_core::{compute_ordering, NodeOrdering};
use kdash_datagen::DatasetProfile;
use kdash_graph::BfsTree;
use kdash_sparse::{
    sparse_lu, sparsify_columns_with, sparsify_lower_unit_with, transition_matrix, w_matrix,
    DanglingPolicy, InvertOptions, Triangle,
};

fn bench(c: &mut Criterion) {
    let config = HarnessConfig { target_nodes: 600, queries: 4, seed: 42 };
    let graph = dataset(DatasetProfile::Dictionary, &config);
    let perm = compute_ordering(&graph, NodeOrdering::Hybrid);
    let permuted = graph.permute(&perm).expect("permute");
    let a = transition_matrix(&permuted, DanglingPolicy::Keep);
    let w = w_matrix(&a, 0.95).expect("w");
    let factors = sparse_lu(&w).expect("lu");

    let mut group = c.benchmark_group("substrate");
    group.sample_size(10);
    group.bench_function("sparse_lu_hybrid_ordered", |b| {
        b.iter(|| std::hint::black_box(sparse_lu(&w).expect("lu")))
    });
    let one = InvertOptions::default();
    group.bench_function("linv_exact_inversion", |b| {
        b.iter(|| {
            std::hint::black_box(sparsify_lower_unit_with(&factors.l, 0.0, one).expect("inv"))
        })
    });
    group.bench_function("gilbert_peierls_column_resolve", |b| {
        let mut q = 0u32;
        b.iter(|| {
            q = (q + 1) % w.nrows() as u32;
            let column = sparsify_columns_with(&factors.l, Triangle::Lower, &[q], 0.0, one);
            std::hint::black_box(column.expect("solve").updates[0].rows.len())
        })
    });
    group.bench_function("csc_matvec", |b| {
        let x = vec![1.0 / a.ncols() as f64; a.ncols()];
        b.iter(|| std::hint::black_box(a.matvec(&x)))
    });
    group.bench_function("bfs_tree", |b| {
        let mut root = 0u32;
        b.iter(|| {
            root = (root + 7) % permuted.num_nodes() as u32;
            std::hint::black_box(BfsTree::new(&permuted, root).num_reachable())
        })
    });
    group.bench_function("louvain", |b| {
        b.iter(|| {
            std::hint::black_box(
                louvain(&graph, LouvainOptions::default()).num_communities(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
