//! The lazy-frontier contract: fusing BFS expansion into the search loop
//! must change *work*, never *answers*.
//!
//! Every property here compares the lazy production path against an
//! **eager replay** — the original whole-tree-first implementation kept as
//! the oracle (`paper::top_k_merge_join`, over a restart set or `&[q]`;
//! for the random-root variant the driver itself drains the tree eagerly
//! since its bound can never terminate). Under the reference kernel
//! (`ResolvedKernel::reference`) the two must be bit-identical
//! in results. The oracle stops where the paper's Definition 2 does, which
//! relaxes the driver's stop rule, and both compute a prefix of one visit
//! order — so no work counter of the driver exceeds the oracle's, and the
//! traversal counters obey the lazy semantics:
//!
//! * run-to-completion ⇒ identical counters, `frontier_expanded ==
//!   reachable` (the full reachable count, as before);
//! * early termination ⇒ `reachable` is the discovered-so-far count
//!   (`<=` the eager full count) and `frontier_expanded` is *strictly*
//!   below it — the layer the search died in was discovered, never
//!   expanded, and everything deeper never even enumerated.
//!
//! Graphs span the three generator families the paper's datasets map to
//! (ER: flat degrees; BA: heavy-tailed hubs; RMAT: skewed + community
//! structure), crossed with orderings and k.

use kdash_core::{paper, IndexOptions, KdashIndex, NodeOrdering, ResolvedKernel, Searcher};
use kdash_datagen::{barabasi_albert, erdos_renyi, rmat, RmatParams};
use kdash_graph::{GraphBuilder, NodeId};
use kdash_harness::check_lazy_vs_eager;
use proptest::prelude::*;

/// ER, BA and RMAT graphs small enough to build dozens of indexes per run.
fn graph_strategy() -> impl Strategy<Value = kdash_graph::CsrGraph> {
    (0usize..3, 12usize..80, 1usize..5, any::<u64>()).prop_map(|(family, n, density, seed)| {
        match family {
            0 => erdos_renyi(n, n * density, seed),
            1 => barabasi_albert(n, density.min(n - 1).max(1), seed),
            _ => {
                // Scale 4-6 ⇒ 16-64 nodes, edge factor from `density`.
                let scale = 4 + (n % 3) as u32;
                rmat(scale, (1usize << scale) * density, RmatParams::default(), seed)
            }
        }
    })
}

fn ordering_for(which: usize) -> NodeOrdering {
    [
        NodeOrdering::Natural,
        NodeOrdering::Degree,
        NodeOrdering::Hybrid,
        NodeOrdering::ReverseCuthillMcKee,
    ][which % 4]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Single-source top-k: lazy search ≡ eager merge-join replay, across
    /// generator families × orderings × k.
    #[test]
    fn lazy_top_k_matches_eager_replay((graph, q_sel, k_sel, which) in
        (graph_strategy(), any::<u32>(), 1usize..14, 0usize..4)) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let index = KdashIndex::build(
            &graph,
            IndexOptions { ordering: ordering_for(which), ..Default::default() },
        ).unwrap();
        let mut searcher = Searcher::with_kernel(&index, ResolvedKernel::reference());
        for k in [k_sel, n + 2] {
            let lazy = searcher.top_k(q, k).unwrap();
            let eager = paper::top_k_merge_join(&index, &[q], k).unwrap();
            if let Err(msg) = check_lazy_vs_eager(&lazy, &eager) {
                prop_assert!(false, "n={} q={} k={}: {}", n, q, k, msg);
            }
        }
    }

    /// Restart sets (multi-root frontier): lazy search ≡ the eager
    /// multi-root replay, whose estimator chain starts across layer 0.
    #[test]
    fn lazy_restart_set_matches_eager_replay((graph, picks, k_sel, which) in
        (graph_strategy(), proptest::collection::vec(any::<u32>(), 1..4), 1usize..10, 0usize..4)) {
        let n = graph.num_nodes();
        let mut sources: Vec<NodeId> = picks.iter().map(|&p| (p as usize % n) as NodeId).collect();
        sources.sort_unstable();
        sources.dedup();
        let index = KdashIndex::build(
            &graph,
            IndexOptions { ordering: ordering_for(which), ..Default::default() },
        ).unwrap();
        let lazy = Searcher::with_kernel(&index, ResolvedKernel::reference())
            .top_k_from_set(&sources, k_sel)
            .unwrap();
        let eager = paper::top_k_merge_join(&index, &sources, k_sel).unwrap();
        if let Err(msg) = check_lazy_vs_eager(&lazy, &eager) {
            prop_assert!(false, "n={} sources={:?} k={}: {}", n, sources, k_sel, msg);
        }
    }

    /// The random-root variant cannot terminate early, so its traversal is
    /// always exhaustive: full reachable counts, every root-reachable node
    /// expanded — and answers still exact (checked against the normal
    /// search) and replayable bit-for-bit on a fresh workspace.
    #[test]
    fn random_root_traversal_is_exhaustive_and_exact((graph, q_sel, root_sel) in
        (graph_strategy(), any::<u32>(), any::<u32>())) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let root = (root_sel as usize % n) as NodeId;
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let mut searcher = Searcher::with_kernel(&index, ResolvedKernel::reference());
        let rr = paper::top_k_from_root(&mut searcher, q, 5, root).unwrap();
        prop_assert!(!rr.stats.terminated_early);
        prop_assert_eq!(rr.stats.frontier_expanded, rr.stats.reachable);
        // Every node is visited (reached or not), none left behind.
        prop_assert_eq!(rr.stats.visited, n);
        let mut fresh = Searcher::with_kernel(&index, ResolvedKernel::reference());
        let replay = paper::top_k_from_root(&mut fresh, q, 5, root).unwrap();
        prop_assert_eq!(rr.stats.clone(), replay.stats.clone());
        let normal = searcher.top_k(q, 5).unwrap();
        for ((x, y), z) in rr.items.iter().zip(&replay.items).zip(&normal.items) {
            prop_assert_eq!(x.proximity.to_bits(), y.proximity.to_bits());
            prop_assert!((x.proximity - z.proximity).abs() < 1e-9,
                "root {}: {} vs {}", root, x.proximity, z.proximity);
        }
    }
}

/// The acceptance pin: on a community-structured graph, early-terminating
/// top-k queries must expand strictly fewer frontier nodes than they
/// discover, discover far fewer than the true reachable set — and do
/// strictly less of everything than Definition 2 would.
#[test]
fn community_graph_early_termination_skips_frontier_work() {
    // 30 dense 10-cliques chained by weak bridges: queries resolve inside
    // their own community, so the search stops after a couple of layers.
    let mut b = GraphBuilder::new(300);
    for blk in 0..30u32 {
        let base = blk * 10;
        for i in 0..10u32 {
            for j in 0..10u32 {
                if i != j {
                    b.add_edge(base + i, base + j, 1.0);
                }
            }
        }
        let next = ((blk + 1) % 30) * 10;
        b.add_edge(base, next, 0.1);
    }
    let g = b.build().unwrap();
    let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
    let mut searcher = index.searcher();
    let pruned = searcher.top_k(5, 5).unwrap();
    assert!(pruned.stats.terminated_early, "community query must terminate early");
    assert!(
        pruned.stats.frontier_expanded < pruned.stats.reachable,
        "expanded {} must be strictly below discovered {}",
        pruned.stats.frontier_expanded,
        pruned.stats.reachable
    );
    // The eager reference sees the whole reachable set; the lazy search
    // must have discovered only a fraction of it.
    let eager = paper::top_k_merge_join(&index, &[5], 5).unwrap();
    assert!(
        pruned.stats.reachable < eager.stats.reachable,
        "lazy discovery {} should stop well short of full reachability {}",
        pruned.stats.reachable,
        eager.stats.reachable
    );
    assert!(
        pruned.stats.frontier_expanded < eager.stats.reachable / 2,
        "frontier work {} should be a fraction of the reachable set {}",
        pruned.stats.frontier_expanded,
        eager.stats.reachable
    );
    // From the community's bridge node, layer 1 holds the next community's
    // entry beside the nine peers. Definition 2 must compute it: its bound
    // is the peers' and they tie at θ. Its in-neighbour sum is what one
    // weak edge carries, so the stop rule need not.
    let bridge = searcher.top_k(0, 5).unwrap();
    let paper = paper::top_k_merge_join(&index, &[0], 5).unwrap();
    assert_eq!(bridge.items, paper.items);
    let (ours, paper) = (&bridge.stats, &paper.stats);
    assert!(ours.terminated_early && paper.terminated_early);
    for (name, a, b) in [
        ("visited", ours.visited, paper.visited),
        ("proximity_computations", ours.proximity_computations, paper.proximity_computations),
        ("frontier_expanded", ours.frontier_expanded, paper.frontier_expanded),
        ("nnz_gathered", ours.nnz_gathered, paper.nnz_gathered),
    ] {
        assert!(a < b, "{name}: {a} must be strictly below Definition 2's {b}");
    }
    // And the answers are still the exact ones.
    for (x, y) in pruned.items.iter().zip(&eager.items) {
        assert_eq!(x.node, y.node);
        assert!((x.proximity - y.proximity).abs() <= 1e-12);
    }
    // An unpruned run pays the whole frontier: the lazy loop must degrade
    // to exactly the eager cost, never above it.
    let unpruned = paper::top_k_unpruned(&mut searcher, 5, 5).unwrap();
    assert_eq!(unpruned.stats.frontier_expanded, eager.stats.reachable);
    assert_eq!(unpruned.stats.reachable, eager.stats.reachable);
}

/// Interleaving entry points on one workspace must not leak lazy-frontier
/// state between query kinds (cursor, exhaustion flag, partial layers).
#[test]
fn mixed_entry_points_reset_lazy_state() {
    let g = erdos_renyi(70, 280, 11);
    let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
    let mut s = index.searcher();
    for round in 0..4 {
        let a = s.top_k(3, 4).unwrap(); // may terminate early (partial frontier)
        let b = paper::top_k_unpruned(&mut s, 3, 4).unwrap(); // must drain fully afterwards
        assert_eq!(b.stats.frontier_expanded, b.stats.reachable, "round {round}");
        assert!(a.stats.reachable <= b.stats.reachable, "round {round}");
        let c = s.nodes_above(3, 1e-5).unwrap();
        let d = s.top_k(3, 4).unwrap();
        assert_eq!(a.stats, d.stats, "round {round}: replay after interleaving must agree");
        for (x, y) in a.items.iter().zip(&d.items) {
            assert_eq!(x.proximity.to_bits(), y.proximity.to_bits());
        }
        drop(c);
    }
}
