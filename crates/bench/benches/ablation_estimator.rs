//! Ablation: cost of one estimator update (Lemma 3 claims `O(1)`) versus
//! one exact proximity computation (a sparse row·column dot product).
//! The pruning only pays off because the bound is orders of magnitude
//! cheaper than the thing it skips.

use criterion::{criterion_group, criterion_main, Criterion};
use kdash_bench::{dataset, HarnessConfig};
use kdash_core::paper::LayerEstimator;
use kdash_core::{IndexOptions, KdashIndex};
use kdash_datagen::DatasetProfile;
use kdash_sparse::{transition_matrix, DanglingPolicy};

fn bench(c: &mut Criterion) {
    let config = HarnessConfig { target_nodes: 800, queries: 4, seed: 42 };
    let graph = dataset(DatasetProfile::Dictionary, &config);
    let a = transition_matrix(&graph, DanglingPolicy::Keep);
    let a_max = a.global_max();
    let col_max = a.col_max();
    let index = KdashIndex::build(&graph, IndexOptions::default()).expect("index");
    let q = 0u32;
    let full = index.full_proximities(q).expect("full");

    let mut group = c.benchmark_group("ablation_estimator");
    // One full advance/record cycle per iteration (steady state: same layer).
    group.bench_function("estimator_advance_record", |b| {
        let mut est = LayerEstimator::new(a_max);
        est.record_selected(0, full[q as usize], col_max[q as usize]);
        let mut i = 1usize;
        // Prime one layer-1 step so subsequent steps stay on one layer.
        let _ = est.advance(1);
        est.record_selected(1, 1e-6, col_max[1]);
        b.iter(|| {
            let term = est.advance(1);
            est.record_selected(1, 1e-9, col_max[i % col_max.len()]);
            i += 1;
            std::hint::black_box(term)
        })
    });
    // One exact proximity computation per iteration.
    group.bench_function("exact_proximity_single_node", |b| {
        let mut u = 0u32;
        let n = graph.num_nodes() as u32;
        b.iter(|| {
            u = (u + 1) % n;
            std::hint::black_box(index.proximity(q, u).expect("proximity"))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
