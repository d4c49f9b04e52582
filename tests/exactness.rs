//! The paper's central claim (Theorem 2): K-dash returns the exact top-k
//! for every dataset shape, ordering, restart probability and K — verified
//! against the iterative definition of Equation (1).

use kdash_core::{paper, IndexOptions, KdashIndex, NodeOrdering};
use kdash_datagen::{barabasi_albert, erdos_renyi, rmat, DatasetProfile, RmatParams};
use kdash_graph::{CsrGraph, GraphBuilder, NodeId};
use kdash_harness::{
    break_ties, check_stop_rule, exact_top_k_scored, profile_graph, sample_queries, StopGoal,
};
use kdash_sparse::DanglingPolicy;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Compares the proximity sequences (ids may legitimately differ under
/// exact ties).
fn assert_same_proximities(
    got: &kdash_core::TopKResult,
    want: &[(kdash_graph::NodeId, f64)],
    context: &str,
) {
    assert_eq!(got.items.len(), want.len(), "{context}: length");
    for (g, w) in got.items.iter().zip(want) {
        assert!(
            (g.proximity - w.1).abs() < 1e-9,
            "{context}: proximity {} vs {}",
            g.proximity,
            w.1
        );
    }
}

#[test]
fn exact_on_every_dataset_profile() {
    for profile in DatasetProfile::ALL {
        let graph = profile_graph(profile, 400, 11);
        let index = KdashIndex::build(&graph, IndexOptions::default()).expect("build");
        for q in sample_queries(&graph, 3) {
            for k in [1usize, 5, 25] {
                let result = index.top_k(q, k).expect("query");
                let truth = exact_top_k_scored(&graph, 0.95, q, k.min(graph.num_nodes()));
                assert_same_proximities(&result, &truth, &format!("{profile} q={q} k={k}"));
            }
        }
    }
}

#[test]
fn exact_for_every_ordering() {
    let graph = profile_graph(DatasetProfile::Dictionary, 350, 3);
    let q = sample_queries(&graph, 1)[0];
    let truth = exact_top_k_scored(&graph, 0.95, q, 10);
    for ordering in [
        NodeOrdering::Natural,
        NodeOrdering::Random { seed: 9 },
        NodeOrdering::Degree,
        NodeOrdering::Cluster,
        NodeOrdering::Hybrid,
        NodeOrdering::ReverseCuthillMcKee,
        NodeOrdering::MinDegree,
    ] {
        let index = KdashIndex::build(&graph, IndexOptions { ordering, ..Default::default() })
            .expect("build");
        let result = index.top_k(q, 10).expect("query");
        assert_same_proximities(&result, &truth, ordering.name());
    }
}

#[test]
fn exact_across_restart_probabilities() {
    // §6.3.3: the pruning must stay correct for every proximity
    // distribution shape c induces.
    let graph = profile_graph(DatasetProfile::Citation, 300, 7);
    let q = sample_queries(&graph, 1)[0];
    for c in [0.5, 0.7, 0.9, 0.95, 0.99] {
        let index = KdashIndex::build(
            &graph,
            IndexOptions { restart_probability: c, ..Default::default() },
        )
        .expect("build");
        let result = index.top_k(q, 8).expect("query");
        let truth = exact_top_k_scored(&graph, c, q, 8);
        assert_same_proximities(&result, &truth, &format!("c={c}"));
    }
}

#[test]
fn pruned_and_unpruned_agree_everywhere() {
    let graph = profile_graph(DatasetProfile::Social, 400, 5);
    let index = KdashIndex::build(&graph, IndexOptions::default()).expect("build");
    for q in sample_queries(&graph, 5) {
        let pruned = index.top_k(q, 10).expect("pruned");
        let unpruned = paper::top_k_unpruned(&mut index.searcher(), q, 10).expect("unpruned");
        for (a, b) in pruned.items.iter().zip(&unpruned.items) {
            assert!((a.proximity - b.proximity).abs() < 1e-12);
        }
        assert!(pruned.stats.proximity_computations <= unpruned.stats.proximity_computations);
    }
}

#[test]
fn random_root_variant_stays_exact() {
    let graph = profile_graph(DatasetProfile::Internet, 350, 9);
    let index = KdashIndex::build(&graph, IndexOptions::default()).expect("build");
    let q = sample_queries(&graph, 1)[0];
    let reference = index.top_k(q, 5).expect("reference");
    for seed in 0..4u64 {
        let root = StdRng::seed_from_u64(seed).gen_range(0..index.num_nodes()) as NodeId;
        let rr = paper::top_k_from_root(&mut index.searcher(), q, 5, root).expect("random root");
        for (a, b) in reference.items.iter().zip(&rr.items) {
            assert!(
                (a.proximity - b.proximity).abs() < 1e-9,
                "seed {seed}: {} vs {}",
                a.proximity,
                b.proximity
            );
        }
    }
}

#[test]
fn dangling_policies_are_both_exact() {
    // The Email profile has hubs and dangling nodes; exactness must hold
    // under both dangling treatments.
    let graph = profile_graph(DatasetProfile::Email, 400, 13);
    for policy in [DanglingPolicy::Keep, DanglingPolicy::SelfLoop] {
        let index = KdashIndex::build(
            &graph,
            IndexOptions { dangling: policy, ..Default::default() },
        )
        .expect("build");
        let q = sample_queries(&graph, 1)[0];
        let result = index.top_k(q, 10).expect("query");
        // Self-consistency: the returned proximities must match the
        // index's own full vector, which precompute.rs already ties to the
        // iterative ground truth for Keep.
        let full = index.full_proximities(q).expect("full");
        for item in &result.items {
            assert!((full[item.node as usize] - item.proximity).abs() < 1e-12);
        }
    }
}

#[test]
fn top_k_is_descending_and_unique() {
    let graph = profile_graph(DatasetProfile::Dictionary, 300, 21);
    let index = KdashIndex::build(&graph, IndexOptions::default()).expect("build");
    for q in sample_queries(&graph, 4) {
        let result = index.top_k(q, 20).expect("query");
        for w in result.items.windows(2) {
            assert!(w[0].proximity >= w[1].proximity, "not descending");
        }
        let mut ids = result.nodes();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), result.items.len(), "duplicate nodes in answer");
    }
}

/// `graph` with hashed edge weights, a self-loop on every seventh node
/// and every fifth node's out-edges cut (a sink, unless it kept its loop).
fn with_weights_loops_and_sinks(graph: &CsrGraph) -> CsrGraph {
    let weighted = break_ties(graph).expect("reweight");
    let mut b = GraphBuilder::new(weighted.num_nodes());
    for v in 0..weighted.num_nodes() as NodeId {
        if v % 7 == 3 {
            b.add_edge(v, v, 1.5);
        }
        if v % 5 != 1 {
            for (t, w) in weighted.out_edges(v) {
                b.add_edge(v, t, w);
            }
        }
    }
    b.build().expect("decorated graph")
}

/// A sink, if the graph has one: its only answer is itself, and its mass
/// is `c` under `Keep`.
fn a_sink(graph: &CsrGraph) -> Option<NodeId> {
    (0..graph.num_nodes() as NodeId).find(|&v| graph.out_degree(v) == 0)
}

/// The stop rule against its definition (`check_stop_rule`: sound at every
/// visit step, stopped at the first chance and no earlier, answers bit for
/// bit the truth vector's and `top_k_unpruned`'s) over the four graph
/// families, unit-weight and weighted with self-loops and extra sinks,
/// both dangling policies, shallow to deep restart probabilities, and
/// every entry point that takes the rule.
#[test]
fn stop_rule_is_sound_at_every_step_on_every_family() {
    let families = [
        ("er", erdos_renyi(150, 600, 3)),
        ("ba", barabasi_albert(150, 3, 5)),
        ("rmat", rmat(7, 512, RmatParams::default(), 7)),
        ("dictionary", profile_graph(DatasetProfile::Dictionary, 200, 11)),
    ];
    for (family, plain) in &families {
        for (variant, graph) in
            [("plain", plain.clone()), ("decorated", with_weights_loops_and_sinks(plain))]
        {
            for dangling in [DanglingPolicy::Keep, DanglingPolicy::SelfLoop] {
                for c in [0.5, 0.95, 0.999] {
                    let options =
                        IndexOptions { restart_probability: c, dangling, ..Default::default() };
                    let index = KdashIndex::build(&graph, options).expect("build");
                    let mut queries = sample_queries(&graph, 3);
                    queries.extend(a_sink(&graph));
                    let context =
                        |what: &str| format!("{family}/{variant}/{dangling:?}/c={c} {what}");
                    for &q in &queries {
                        for k in [1usize, 5, 20] {
                            check_stop_rule(&index, &[q], StopGoal::TopK(k)).unwrap_or_else(|e| {
                                panic!("{}: {e}", context(&format!("q={q} k={k}")))
                            });
                        }
                        for theta in [1e-2, 1e-4] {
                            check_stop_rule(&index, &[q], StopGoal::Above(theta)).unwrap_or_else(
                                |e| panic!("{}: {e}", context(&format!("q={q} θ={theta}"))),
                            );
                        }
                    }
                    check_stop_rule(&index, &queries, StopGoal::TopK(5))
                        .unwrap_or_else(|e| panic!("{}: {e}", context("restart set")));
                }
            }
        }
    }
}

/// The stop rule against its definition where walks die in sinks: a
/// weighted RMAT graph under `Keep`, so `M_q < 1` and the remaining mass
/// never runs out, queried deep enough (long top-k lists, low thresholds,
/// one restart set) that hundreds of pushes land on the hot stack.
#[test]
fn stop_rule_is_sound_at_every_step_where_walks_die_in_sinks() {
    let graph = break_ties(&rmat(9, 2048, RmatParams::default(), 42)).expect("reweight");
    assert!(a_sink(&graph).is_some());
    let options = IndexOptions { dangling: DanglingPolicy::Keep, ..Default::default() };
    let index = KdashIndex::build(&graph, options).expect("build");
    let queries = sample_queries(&graph, 6);
    for &q in &queries {
        let mass = index.top_k(q, 1).expect("top-1").stats.query_mass;
        assert!(mass < 1.0, "q={q}: M_q = {mass}, but RMAT walks reach sinks");
        for k in [10usize, 50, 200] {
            check_stop_rule(&index, &[q], StopGoal::TopK(k))
                .unwrap_or_else(|e| panic!("q={q} k={k}: {e}"));
        }
        for theta in [1e-3, 1e-5] {
            check_stop_rule(&index, &[q], StopGoal::Above(theta))
                .unwrap_or_else(|e| panic!("q={q} θ={theta}: {e}"));
        }
    }
    let set = index.top_k_from_set(&queries, 50).expect("restart set");
    assert!(set.stats.query_mass < 1.0);
    check_stop_rule(&index, &queries, StopGoal::TopK(50))
        .unwrap_or_else(|e| panic!("restart set: {e}"));
}

/// A deliberate exact tie at the k-th boundary: a star's leaves share one
/// proximity bit for bit, so with k = 2 the heap's θ *is* every other
/// leaf's proximity. An uncomputed node that can still reach θ keeps the
/// search going (strict `<`): every leaf is computed, the fixed-θ query at
/// the tied value returns them all, and nothing past the leaves is.
#[test]
fn an_exact_tie_at_the_kth_boundary_does_not_stop_the_search() {
    let leaves = 4u32;
    let mut b = GraphBuilder::new(2 * leaves as usize + 1);
    for leaf in 1..=leaves {
        b.add_edge(0, leaf, 1.0);
        b.add_edge(leaf, leaves + leaf, 1.0);
    }
    let graph = b.build().expect("star");
    let index = KdashIndex::build(&graph, IndexOptions::default()).expect("build");
    let full = index.full_proximities(0).expect("full");
    let tied = full[1];
    assert!((2..=leaves).all(|leaf| full[leaf as usize].to_bits() == tied.to_bits()));

    let top = index.top_k(0, 2).expect("top-2");
    assert_eq!(top.items[1].proximity.to_bits(), tied.to_bits());
    assert!(top.stats.terminated_early);
    assert_eq!(top.stats.proximity_computations, 1 + leaves as usize, "every tied leaf, no more");
    check_stop_rule(&index, &[0], StopGoal::TopK(2)).expect("top-2 against the definition");

    let above = index.nodes_above(0, tied).expect("threshold at the tie");
    assert_eq!(above.items.len(), 1 + leaves as usize, "a proximity equal to θ is an answer");
    check_stop_rule(&index, &[0], StopGoal::Above(tied)).expect("θ = tie against the definition");
}

/// `M_q`, the mass the stop rule measures against: the proximities' true
/// sum rounded up by at most the documented relative slack (10⁻⁹) where
/// walks die in sinks, and clamped to exactly 1 where none can — a
/// sink-free graph, or any graph once dangling nodes loop on themselves.
#[test]
fn query_mass_is_the_proximity_sum_rounded_up_and_clamped() {
    let sinky = rmat(8, 1024, RmatParams::default(), 7);
    assert!(a_sink(&sinky).is_some());
    let keep = KdashIndex::build(&sinky, IndexOptions::default()).expect("build");
    let mut queries = sample_queries(&sinky, 6);
    queries.extend(a_sink(&sinky));
    let mut searcher = keep.searcher();
    let check = |mass: f64, sum: f64, what: &str| {
        assert!(sum <= mass && mass <= sum * (1.0 + 2e-9), "{what}: M_q {mass} vs Σp {sum}");
    };
    for &q in &queries {
        let sum: f64 = keep.full_proximities(q).expect("full").iter().sum();
        check(searcher.top_k(q, 5).expect("top-k").stats.query_mass, sum, &format!("q={q}"));
        // The unpruned search reports it too, and a threshold query uses it.
        let unpruned = paper::top_k_unpruned(&mut searcher, q, 5).expect("unpruned");
        assert_eq!(
            unpruned.stats.query_mass.to_bits(),
            searcher.nodes_above(q, 1e-3).expect("above").stats.query_mass.to_bits()
        );
    }
    // (A sink keeps only its restarts: the least mass a query can have.)
    let lost = searcher.top_k(a_sink(&sinky).expect("sink"), 5).expect("sink query");
    assert!((lost.stats.query_mass - 0.95).abs() < 1e-8);
    let sum: f64 = keep.full_proximities_from_set(&queries).expect("full").iter().sum();
    check(searcher.top_k_from_set(&queries, 5).expect("set").stats.query_mass, sum, "restart set");

    let looped = KdashIndex::build(
        &sinky,
        IndexOptions { dangling: DanglingPolicy::SelfLoop, ..Default::default() },
    )
    .expect("build");
    let ring = KdashIndex::build(&erdos_renyi(120, 900, 9).symmetrize(), IndexOptions::default())
        .expect("build");
    assert!(a_sink(ring.permuted_graph()).is_none());
    for (what, index) in [("self-looped sinks", &looped), ("sink-free", &ring)] {
        for q in [0u32, 17, 63] {
            let mass = index.top_k(q, 5).expect("top-k").stats.query_mass;
            assert_eq!(mass.to_bits(), 1.0f64.to_bits(), "{what} q={q}");
        }
    }
}
