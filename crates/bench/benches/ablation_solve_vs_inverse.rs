//! Ablation (DESIGN.md #1): stored sparse inverses vs re-solving the
//! triangular systems per query. The paper stores `L⁻¹`/`U⁻¹`; the
//! alternative keeps only the factors and runs two Gilbert–Peierls solves
//! per query. Storing inverses should win at query time (at a memory
//! cost), especially when only a few proximities are needed.

use criterion::{criterion_group, criterion_main, Criterion};
use kdash_bench::{dataset, queries_for, HarnessConfig};
use kdash_core::{IndexOptions, KdashIndex};
use kdash_datagen::DatasetProfile;
use kdash_sparse::{sparse_lu, transition_matrix, w_matrix, SolveWorkspace};

fn bench(c: &mut Criterion) {
    let config = HarnessConfig { target_nodes: 800, queries: 8, seed: 42 };
    let graph = dataset(DatasetProfile::Dictionary, &config);
    let index = KdashIndex::build(&graph, IndexOptions::default()).expect("index");
    let queries = queries_for(&graph, config.queries);
    // The alternative's state: the factors of the permuted graph's `W`.
    let a = transition_matrix(index.permuted_graph(), index.dangling_policy());
    let w = w_matrix(&a, index.restart_probability()).expect("restart probability");
    let factors = sparse_lu(&w).expect("factors");
    let mut ws = SolveWorkspace::new(index.num_nodes());

    let mut group = c.benchmark_group("ablation_solve_vs_inverse");
    group.sample_size(15);
    let mut i = 0usize;
    group.bench_function("stored_inverses_full_vector", |b| {
        b.iter(|| {
            let q = queries[i % queries.len()];
            i += 1;
            std::hint::black_box(index.full_proximities(q).expect("query"))
        })
    });
    let mut j = 0usize;
    group.bench_function("per_query_triangular_solves", |b| {
        b.iter(|| {
            let q = queries[j % queries.len()];
            j += 1;
            let column = index.permutation().new_of(q);
            std::hint::black_box(factors.solve_unit_sparse(&mut ws, column).expect("query"))
        })
    });
    let mut l = 0usize;
    group.bench_function("stored_inverses_top5_search", |b| {
        b.iter(|| {
            let q = queries[l % queries.len()];
            l += 1;
            std::hint::black_box(index.top_k(q, 5).expect("query"))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
