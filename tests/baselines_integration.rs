//! The comparative behaviours §6 reports, as assertions: the approximate
//! engines trade accuracy for their own cost models while K-dash stays
//! exact.

use kdash_baselines::{
    BLin, BLinOptions, Bpa, BpaOptions, IterativeRwr, NbLin, NbLinOptions, TopKEngine,
};
use kdash_core::{IndexOptions, KdashIndex};
use kdash_datagen::DatasetProfile;
use kdash_eval::{precision_at_k, recall_at_k};
use kdash_harness::{exact_top_k, profile_graph, sample_queries};

const C: f64 = 0.9;
const K: usize = 5;

fn average_precision<E: TopKEngine>(
    engine: &E,
    graph: &kdash_graph::CsrGraph,
    queries: &[kdash_graph::NodeId],
) -> f64 {
    let mut total = 0.0;
    for &q in queries {
        let truth = exact_top_k(graph, C, q, K);
        let got: Vec<_> = engine.top_k(q, K).into_iter().map(|(n, _)| n).collect();
        total += precision_at_k(&got, &truth, K);
    }
    total / queries.len() as f64
}

#[test]
fn nblin_precision_rises_with_rank() {
    // Figure 3's NB_LIN curve.
    let graph = profile_graph(DatasetProfile::Dictionary, 400, 1);
    let queries = sample_queries(&graph, 6);
    let lo = NbLin::build(
        &graph,
        NbLinOptions { target_rank: 5, restart_probability: C, seed: 3 },
    )
    .expect("rank 5");
    let hi = NbLin::build(
        &graph,
        NbLinOptions { target_rank: 120, restart_probability: C, seed: 3 },
    )
    .expect("rank 120");
    let p_lo = average_precision(&lo, &graph, &queries);
    let p_hi = average_precision(&hi, &graph, &queries);
    assert!(
        p_hi >= p_lo,
        "precision must not fall with rank: {p_lo:.3} -> {p_hi:.3}"
    );
    assert!(p_lo < 1.0, "a rank-5 approximation cannot be exact on this graph");
}

#[test]
fn bpa_recall_is_one() {
    // The BPA guarantee the paper singles out: its answer set always
    // contains the true top-k.
    let graph = profile_graph(DatasetProfile::Citation, 350, 2);
    let bpa = Bpa::build(
        &graph,
        BpaOptions { num_hubs: 30, restart_probability: C, ..Default::default() },
    );
    for q in sample_queries(&graph, 5) {
        let truth = exact_top_k(&graph, C, q, K);
        let answer: Vec<_> = bpa.top_k(q, K).into_iter().map(|(n, _)| n).collect();
        let recall = recall_at_k(&answer, &truth, K);
        assert!((recall - 1.0).abs() < 1e-12, "q={q}: recall {recall}");
    }
}

#[test]
fn blin_no_worse_than_nblin_on_modular_graph() {
    // B_LIN keeps within-community structure exact, which is most of the
    // proximity mass on a community graph.
    let graph = profile_graph(DatasetProfile::Dictionary, 350, 4);
    let queries = sample_queries(&graph, 5);
    let rank = 15;
    let nblin = NbLin::build(
        &graph,
        NbLinOptions { target_rank: rank, restart_probability: C, seed: 5 },
    )
    .expect("nblin");
    let blin = BLin::build(
        &graph,
        BLinOptions { target_rank: rank, restart_probability: C, ..Default::default() },
    )
    .expect("blin");
    let p_nblin = average_precision(&nblin, &graph, &queries);
    let p_blin = average_precision(&blin, &graph, &queries);
    assert!(
        p_blin + 0.15 >= p_nblin,
        "B_LIN ({p_blin:.3}) should be competitive with NB_LIN ({p_nblin:.3}) at equal rank"
    );
}

#[test]
fn kdash_and_iterative_agree_through_engine_interface() {
    let graph = profile_graph(DatasetProfile::Internet, 300, 9);
    let index = KdashIndex::build(
        &graph,
        IndexOptions { restart_probability: C, ..Default::default() },
    )
    .expect("index");
    let iterative = IterativeRwr::new(&graph, C);
    for q in sample_queries(&graph, 4) {
        let a = index.top_k(q, K).expect("kdash");
        let b = iterative.top_k(q, K);
        for (x, y) in a.items.iter().zip(&b) {
            assert!((x.proximity - y.1).abs() < 1e-9);
        }
    }
}

#[test]
fn engine_names_are_distinct() {
    let graph = profile_graph(DatasetProfile::Internet, 300, 10);
    let names = vec![
        IterativeRwr::new(&graph, C).name(),
        NbLin::build(&graph, NbLinOptions::default()).unwrap().name(),
        BLin::build(&graph, BLinOptions::default()).unwrap().name(),
        Bpa::build(&graph, BpaOptions { num_hubs: 5, ..Default::default() }).name(),
    ];
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "{names:?}");
}
