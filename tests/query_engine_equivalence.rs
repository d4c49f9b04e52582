//! The query-engine equivalence contract, post-lazy-BFS and kernel
//! dispatch:
//!
//! * under the **reference** gather kernel (`ResolvedKernel::reference`,
//!   the one-accumulator order), the lazy `Searcher` path must return
//!   **bit-identical** proximities and rankings to the original eager
//!   merge-join path (`paper::top_k_merge_join`), across random
//!   graphs, random queries and every entry-point family. (The gather
//!   visits exactly the merge join's matching pairs in the same
//!   ascending-column order.)
//! * the **work counters** are dominated: the merge join stops where the
//!   paper's Definition 2 does, the `Searcher` where no uncomputed node
//!   can still reach θ — never later, over a prefix of the same visit
//!   order — so its `visited`, `proximity_computations`, `nnz_gathered`
//!   and `frontier_expanded` never exceed the oracle's.
//! * the **traversal counters** differ by design: the merge join
//!   enumerates the whole reachable set up front (`reachable` =
//!   `frontier_expanded` = full count), while the lazy path stops
//!   discovering at early termination — `reachable` is then the
//!   discovered-so-far count and `frontier_expanded` is strictly below it
//!   (the death layer was discovered, never expanded). When a search runs
//!   to completion the two paths must agree exactly.
//! * under the **default kernel** (`ResolvedKernel::default`) the wide
//!   gathers re-associate the sum, so proximities are only pinned to
//!   `1e-12` of the reference — the bit-level cross-kernel contracts live
//!   in `tests/kernel_equivalence.rs`.

use kdash_core::{paper, IndexOptions, KdashIndex, NodeOrdering, ResolvedKernel, Searcher};
use kdash_datagen::{barabasi_albert, erdos_renyi, rmat, RmatParams};
use kdash_graph::NodeId;
use kdash_harness::{break_ties, check_lazy_vs_eager, sample_queries};
use proptest::prelude::*;

/// Strategy over the two generator families the paper's datasets span:
/// ER (flat degrees) and BA (heavy-tailed hubs), with sizes small enough
/// to build dozens of indexes per run.
fn graph_strategy() -> impl Strategy<Value = kdash_graph::CsrGraph> {
    (0usize..2, 12usize..90, 1usize..5, any::<u64>()).prop_map(|(family, n, density, seed)| {
        match family {
            0 => erdos_renyi(n, n * density, seed),
            _ => barabasi_albert(n, density.min(n - 1).max(1), seed),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Lazy scatter/gather top-k ≡ eager merge-join top-k, bit for bit,
    /// with the counters obeying the lazy/eager contract.
    #[test]
    fn searcher_matches_merge_join((graph, q_sel, k_sel, c_pick) in
        (graph_strategy(), any::<u32>(), 0usize..12, 0usize..3)) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let c = [0.5, 0.8, 0.95][c_pick];
        let index = KdashIndex::build(
            &graph,
            IndexOptions { restart_probability: c, ..Default::default() },
        ).unwrap();
        let mut searcher = Searcher::with_kernel(&index, ResolvedKernel::reference());
        for k in [k_sel, n / 2, n + 3] {
            let new = searcher.top_k(q, k).unwrap();
            let old = paper::top_k_merge_join(&index, &[q], k).unwrap();
            if let Err(msg) = check_lazy_vs_eager(&new, &old) {
                prop_assert!(false, "n={} q={} k={}: {}", n, q, k, msg);
            }
        }
    }

    /// A single reused Searcher replays a whole query stream bit-identically
    /// to the merge-join reference — reuse must not leak state, lazy
    /// frontier cursors included.
    #[test]
    fn reused_searcher_matches_merge_join((graph, k_sel) in (graph_strategy(), 1usize..8)) {
        let n = graph.num_nodes();
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let mut searcher = Searcher::with_kernel(&index, ResolvedKernel::reference());
        for q in (0..n as NodeId).step_by(7) {
            let new = searcher.top_k(q, k_sel).unwrap();
            let old = paper::top_k_merge_join(&index, &[q], k_sel).unwrap();
            if let Err(msg) = check_lazy_vs_eager(&new, &old) {
                prop_assert!(false, "n={} q={} k={}: {}", n, q, k_sel, msg);
            }
        }
    }

    /// The ordering permutation changes the inverse patterns and the visit
    /// order; equivalence must survive all of them.
    #[test]
    fn equivalence_holds_across_orderings((graph, q_sel, which) in
        (graph_strategy(), any::<u32>(), 0usize..4)) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let ordering = [
            NodeOrdering::Natural,
            NodeOrdering::Degree,
            NodeOrdering::Hybrid,
            NodeOrdering::ReverseCuthillMcKee,
        ][which];
        let index = KdashIndex::build(&graph, IndexOptions { ordering, ..Default::default() })
            .unwrap();
        let new = Searcher::with_kernel(&index, ResolvedKernel::reference()).top_k(q, 10).unwrap();
        let old = paper::top_k_merge_join(&index, &[q], 10).unwrap();
        if let Err(msg) = check_lazy_vs_eager(&new, &old) {
            prop_assert!(false, "{:?} n={} q={}: {}", ordering, n, q, msg);
        }
    }

    /// The default kernel may re-associate the gather sum but must
    /// stay within 1e-12 of the merge-join reference per returned node.
    #[test]
    fn auto_kernel_stays_within_tolerance((graph, q_sel) in
        (graph_strategy(), any::<u32>())) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let new = index.top_k(q, 10).unwrap();
        let old = paper::top_k_merge_join(&index, &[q], 10).unwrap();
        prop_assert_eq!(new.items.len(), old.items.len());
        // Match by node id: last-bit rounding may swap ranks at the k-th
        // cutoff, so a node in the default result can be absent from the
        // merge-join list — the full vector then supplies its reference.
        let full = index.full_proximities(q).unwrap();
        for x in &new.items {
            let reference = old
                .items
                .iter()
                .find(|y| y.node == x.node)
                .map(|y| y.proximity)
                .unwrap_or(full[x.node as usize]);
            prop_assert!(
                (x.proximity - reference).abs() <= 1e-12,
                "node {} ({:?} kernel): {:.17e} vs {:.17e}",
                x.node, index.searcher().kernel().name(), x.proximity, reference
            );
        }
    }

    /// The remaining entry points agree with independently computed truths:
    /// unpruned and threshold variants against the full proximity vector.
    #[test]
    fn other_entry_points_match_full_vector((graph, q_sel, theta_exp) in
        (graph_strategy(), any::<u32>(), 2u32..7)) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let full = index.full_proximities(q).unwrap();

        let unpruned = paper::top_k_unpruned(&mut index.searcher(), q, n).unwrap();
        // Unpruned searches always run to completion: full reachability.
        prop_assert_eq!(unpruned.stats.frontier_expanded, unpruned.stats.reachable);
        prop_assert!(!unpruned.stats.terminated_early);
        for item in &unpruned.items {
            let want = full[item.node as usize];
            prop_assert!(
                (item.proximity - want).abs() < 1e-12,
                "unpruned node {}: {} vs {}", item.node, item.proximity, want
            );
        }

        let theta = 10f64.powi(-(theta_exp as i32));
        let above = index.nodes_above(q, theta).unwrap();
        let expect = full.iter().filter(|&&p| p >= theta).count();
        prop_assert_eq!(above.items.len(), expect);
    }
}

/// The identities the one search driver rests on, at bit level: every
/// entry point is the same loop under another bound policy, stop goal or
/// source, so on tie-free graphs (`break_ties` — which of two *equal*
/// proximities survives at the k-th boundary depends on the visit order)
/// they must all return `top_k`'s answer bit for bit — under the scalar
/// reference kernel and the default one alike, across graph families and
/// orderings.
#[test]
fn every_entry_point_returns_the_top_k_answer_bit_for_bit() {
    let graphs = [
        ("er", erdos_renyi(200, 800, 3)),
        ("ba", barabasi_albert(200, 3, 5)),
        ("rmat", rmat(8, 1024, RmatParams::default(), 7)),
    ];
    let orderings = [
        NodeOrdering::Natural,
        NodeOrdering::Degree,
        NodeOrdering::Hybrid,
        NodeOrdering::ReverseCuthillMcKee,
    ];
    let bits = |r: &kdash_core::TopKResult| -> Vec<(NodeId, u64)> {
        // Zero-proximity entries are unreachable padding, whose choice is
        // each entry point's own.
        let answers = r.items.iter().take_while(|i| i.proximity > 0.0);
        answers.map(|i| (i.node, i.proximity.to_bits())).collect()
    };
    let k = 10;
    for (family, graph) in &graphs {
        let graph = break_ties(graph).unwrap();
        let n = graph.num_nodes() as NodeId;
        for ordering in orderings {
            let index =
                KdashIndex::build(&graph, IndexOptions { ordering, ..Default::default() }).unwrap();
            for kernel in [ResolvedKernel::reference(), ResolvedKernel::default()] {
                let mut s = Searcher::with_kernel(&index, kernel);
                for q in sample_queries(&graph, 8) {
                    let label = format!("{family}/{ordering:?}/{} q {q}", kernel.name());
                    let top = s.top_k(q, k).unwrap();
                    let want = bits(&top);
                    assert!(!want.is_empty(), "{label}");

                    // source: one node ≡ a restart set of one, work included.
                    let set = s.top_k_from_set(&[q], k).unwrap();
                    assert_eq!(bits(&set), want, "{label}: from_set");
                    assert_eq!(set.items.len(), top.items.len(), "{label}: from_set");
                    assert_eq!(set.stats, top.stats, "{label}: from_set stats");

                    // bound: none, or the order-agnostic one on a tree
                    // rooted anywhere.
                    let unpruned = paper::top_k_unpruned(&mut s, q, k).unwrap();
                    assert_eq!(bits(&unpruned), want, "{label}: unpruned");
                    for root in [q, (q + 1) % n, (q + n / 2) % n] {
                        let rooted = paper::top_k_from_root(&mut s, q, k, root).unwrap();
                        assert_eq!(bits(&rooted), want, "{label}: root {root}");
                    }

                    // goal: the fixed θ = p_k selects exactly the top k.
                    let theta = f64::from_bits(want[want.len() - 1].1);
                    let above = s.nodes_above(q, theta).unwrap();
                    assert_eq!(above.items.len(), want.len(), "{label}: nodes_above");
                    assert_eq!(bits(&above), want, "{label}: nodes_above");
                }
            }
        }
    }
}

/// The zero-fill invariant at the workspace level: the query column is a
/// dense vector the kernel multiplies unconditionally, so whatever an
/// earlier query left loaded — a different family's merged column, the
/// same column again, a gather cut short by a budget abort — must be gone
/// before the next one. One reused `Searcher` driven through every entry
/// point equals a fresh `Searcher` per query on items *and* stats.
#[test]
fn reused_searcher_equals_fresh_searchers_across_entry_points_and_aborts() {
    use kdash_core::{BudgetLimit, KdashError, QueryBudget, TopKResult};
    use kdash_datagen::{rmat, RmatParams};

    let graph = rmat(9, 2048, RmatParams::default(), 5);
    let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
    let n = graph.num_nodes() as NodeId;
    let mut reused = index.searcher();
    let mut out = TopKResult::default();
    let assert_same = |label: &str, got: &TopKResult, want: &TopKResult| {
        assert_eq!(got.items.len(), want.items.len(), "{label}");
        for (g, w) in got.items.iter().zip(&want.items) {
            assert_eq!((g.node, g.proximity.to_bits()), (w.node, w.proximity.to_bits()), "{label}");
        }
        assert_eq!(got.stats, want.stats, "{label}");
    };

    for q in (0..n).step_by(61) {
        let set = [q, (q + 7) % n, (q + 200) % n];
        let root = (q + 3) % n;

        reused.top_k_into(q, 10, &mut out).unwrap();
        assert_same("top_k_into", &out, &index.searcher().top_k(q, 10).unwrap());

        // A restart set that contains the node just queried, twice in a
        // row (the second load repeats the first one's column).
        for pass in 0..2 {
            let got = reused.top_k_from_set(&set, 10).unwrap();
            let want = index.searcher().top_k_from_set(&set, 10).unwrap();
            assert_same(&format!("top_k_from_set pass {pass}"), &got, &want);
        }

        let got = reused.nodes_above(q, 1e-4).unwrap();
        assert_same("nodes_above", &got, &index.searcher().nodes_above(q, 1e-4).unwrap());

        // Straight after a restart set: a query that kept the set's mass
        // would stop somewhere else.
        let got = paper::top_k_unpruned(&mut reused, q, 10).unwrap();
        let fresh = paper::top_k_unpruned(&mut index.searcher(), q, 10).unwrap();
        assert_same("top_k_unpruned", &got, &fresh);

        let got = paper::top_k_from_root(&mut reused, q, 10, root).unwrap();
        assert_same(
            "top_k_from_root",
            &got,
            &paper::top_k_from_root(&mut index.searcher(), q, 10, root).unwrap(),
        );

        // Abort a different query mid-gather: its column stays loaded and
        // only part of its rows were gathered.
        let victim = (q + 100) % n;
        let full = index.searcher().top_k(victim, 10).unwrap();
        if full.stats.proximity_computations > 2 {
            let cut = full.stats.nnz_gathered / 2;
            reused.set_budget(QueryBudget { max_gather_nnz: Some(cut), ..Default::default() });
            match reused.top_k_into(victim, 10, &mut out) {
                Err(KdashError::BudgetExceeded { limit: BudgetLimit::GatherNnz(_), stats }) => {
                    assert!((cut..full.stats.nnz_gathered).contains(&stats.nnz_gathered));
                }
                other => panic!("q {q}: expected a mid-gather abort, got {other:?}"),
            }
            reused.set_budget(QueryBudget::unlimited());
        }

        reused.top_k_into(q, 10, &mut out).unwrap();
        assert_same("top_k_into after abort", &out, &index.searcher().top_k(q, 10).unwrap());
    }
}
