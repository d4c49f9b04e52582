//! Criterion view of Figure 7: the pruned search against the no-pruning
//! ablation on every dataset profile.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kdash_bench::{all_datasets, queries_for, HarnessConfig};
use kdash_core::{paper, IndexOptions, KdashIndex};

fn bench(c: &mut Criterion) {
    let config = HarnessConfig { target_nodes: 800, queries: 8, seed: 42 };
    let mut group = c.benchmark_group("fig7_pruning");
    group.sample_size(15);
    for (profile, graph) in all_datasets(&config) {
        let index = KdashIndex::build(&graph, IndexOptions::default()).expect("index");
        let queries = queries_for(&graph, config.queries);
        let mut i = 0usize;
        group.bench_with_input(
            BenchmarkId::new("pruned", profile.name()),
            &(),
            |b, _| {
                b.iter(|| {
                    let q = queries[i % queries.len()];
                    i += 1;
                    std::hint::black_box(index.top_k(q, 5).expect("query"))
                })
            },
        );
        let mut j = 0usize;
        group.bench_with_input(
            BenchmarkId::new("unpruned", profile.name()),
            &(),
            |b, _| {
                b.iter(|| {
                    let q = queries[j % queries.len()];
                    j += 1;
                    let unpruned = paper::top_k_unpruned(&mut index.searcher(), q, 5);
                    std::hint::black_box(unpruned.expect("query"))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
