//! The certified-refinement path's own contracts, beyond "same ranking as
//! the dense build" (`tests/sparsified_equivalence.rs`):
//!
//! * **Workspace reuse** — the loop keeps four dense vectors that are
//!   only ever written inside a query's reachable set and zeroed over it
//!   on the way out. One `Searcher` driven through every refined entry
//!   point, across shrinking reachable sets and across typed failures,
//!   must answer bit-for-bit like a fresh one each time (and, in debug
//!   builds, trips the loop's own all-zero assertion if it does not).
//! * **Budgets** — every `QueryBudget` knob aborts typed in the first step
//!   *and* inside a later one — a sweep at the default restart
//!   probability, a correction at `c = 0.15` — with the work so far
//!   attached. The gather meter fires only where something is gathered:
//!   in the corrections at `c = 0.15`, the first step included, never in
//!   the sweeps at the default.
//! * **Numerics** — a residual that overflows is a typed
//!   `RefinementFailed` at once, never 64 passes and a comparator panic;
//!   where the first step is a sweep, the stored inverses cannot touch the
//!   answer at all.
//! * **Out-weight sums** — the derived per-node normalisers stay coherent
//!   with the stored graph through build, save → load and dynamic updates
//!   that create and remove sinks, on sparsified and dense indexes alike.
//! * **Values** — every proximity a refined entry point returns lies
//!   within `VALUE_TOLERANCE` of a dense-exact twin index's.

use kdash_core::{
    BudgetLimit, IndexAudit, IndexBuilder, IndexOptions, IndexPatch, KdashError, KdashIndex,
    NodeOrdering, QueryBudget, SearchStats, Searcher, TopKResult, VALUE_TOLERANCE,
};
use kdash_datagen::{barabasi_albert, erdos_renyi, rmat, DatasetProfile, RmatParams};
use kdash_dynamic::{DynamicIndex, UpdateBatch};
use kdash_graph::{BfsTree, CsrGraph, EdgeEdit, GraphBuilder, NodeId};
use kdash_harness::{break_ties, check_index_bit_identity};
use kdash_sparse::rwr::rwr_step;
use kdash_sparse::{transition_matrix, CscMatrix, CsrMatrix, DanglingPolicy, ProximityStore};
use std::cmp::Reverse;
use std::time::Duration;

/// The default restart probability: the first step is a sweep, and
/// sweeps carry the refinement.
const C: f64 = 0.95;
/// A small one: the first step is the correction `Ũ⁻¹(L̃⁻¹ b)` from
/// `x̃ = 0`, and corrections carry the refinement.
const WIDE_C: f64 = 0.15;

fn sparsified(graph: &CsrGraph, eps: f64, c: f64) -> KdashIndex {
    let options =
        IndexOptions { drop_tolerance: eps, restart_probability: c, ..Default::default() };
    let index = KdashIndex::build(graph, options).unwrap();
    assert!(index.needs_refinement(), "ε = {eps:e} dropped nothing: the test would be vacuous");
    index
}

/// ER / BA / RMAT with tie-free weights, each with a sparsified index at
/// restart probability `c`. ER is kept sparse and BA to its newer → older
/// edges (the generator emits both directions), so reachable sets range
/// from 2 nodes to most of the graph.
fn families(c: f64) -> Vec<(&'static str, CsrGraph, KdashIndex)> {
    let ba = barabasi_albert(400, 3, 6);
    let ba = GraphBuilder::from_edges(400, ba.edges().filter(|&(s, d, _)| s > d)).build().unwrap();
    [
        ("er", erdos_renyi(400, 700, 5)),
        ("ba", ba),
        ("rmat", rmat(9, 900, RmatParams::default(), 7)),
    ]
    .into_iter()
    .map(|(name, raw)| {
        let graph = break_ties(&raw).unwrap();
        let index = sparsified(&graph, 1e-3, c);
        (name, graph, index)
    })
    .collect()
}

/// Query nodes by full reachable-set size, largest first.
fn by_reach(index: &KdashIndex) -> Vec<(usize, NodeId)> {
    let mut s = index.searcher();
    let mut reach: Vec<(usize, NodeId)> = (0..index.num_nodes() as NodeId)
        .map(|q| (s.top_k(q, 1).unwrap().stats.reachable, q))
        .collect();
    reach.sort_unstable_by(|a, b| b.cmp(a));
    reach
}

fn assert_same(label: &str, got: &TopKResult, want: &TopKResult) {
    assert_eq!(got.stats, want.stats, "{label}: stats");
    assert_eq!(got.items.len(), want.items.len(), "{label}: length");
    for (g, w) in got.items.iter().zip(&want.items) {
        assert_eq!(g.node, w.node, "{label}");
        assert_eq!(g.proximity.to_bits(), w.proximity.to_bits(), "{label}: node {}", g.node);
    }
}

/// Runs every refined entry point on `reused` and on a fresh workspace
/// and demands bit-identical answers and stats.
fn assert_replays_fresh(
    label: &str,
    index: &KdashIndex,
    reused: &mut Searcher<'_>,
    big: NodeId,
    small: NodeId,
    downstream: NodeId,
) {
    // `big` repeats as a root; its partner takes in-flow from it, since
    // two sources without any would tie exactly at c/2.
    let set = [downstream, big];
    let theta = index.searcher().top_k(big, 4).unwrap().items[3].proximity * 0.999;
    assert_same(
        &format!("{label} big"),
        &reused.top_k(big, 10).unwrap(),
        &index.searcher().top_k(big, 10).unwrap(),
    );
    assert_same(
        &format!("{label} small"),
        &reused.top_k(small, 10).unwrap(),
        &index.searcher().top_k(small, 10).unwrap(),
    );
    assert_same(
        &format!("{label} set"),
        &reused.top_k_from_set(&set, 10).unwrap(),
        &index.searcher().top_k_from_set(&set, 10).unwrap(),
    );
    assert_same(
        &format!("{label} above"),
        &reused.nodes_above(big, theta).unwrap(),
        &index.searcher().nodes_above(big, theta).unwrap(),
    );
    let (a, b) = (
        reused.refined_full_proximities(&[small]).unwrap(),
        index.searcher().refined_full_proximities(&[small]).unwrap(),
    );
    assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()), "{label} full vector");
}

/// Stored `Ũ⁻¹` entries one pass over `q`'s reachable set gathers, and
/// the reachable count — read off the index and the graph, not a run.
fn pass_cost(index: &KdashIndex, graph: &CsrGraph, q: NodeId) -> (usize, usize) {
    let reach = BfsTree::new(graph, q).order;
    let (rows, perm) = (index.uinv_rows(), index.permutation());
    (reach.iter().map(|&v| rows.row_stat(perm.new_of(v)).nnz as usize).sum(), reach.len())
}

/// A finished run's `(sweeps, corrections)` after the first step. Every
/// correction, the first step included, gathers exactly one pass; a
/// sweep gathers nothing. A run that gathered nothing started with a
/// sweep, and every step after it was a sweep.
fn step_split(stats: &SearchStats, pass_nnz: usize) -> (usize, usize) {
    if stats.nnz_gathered == 0 {
        return (stats.refinement_iterations, 0);
    }
    assert_eq!(stats.nnz_gathered % pass_nnz, 0, "gathers come in whole passes");
    let corrections = stats.nnz_gathered / pass_nnz - 1;
    (stats.refinement_iterations - corrections, corrections)
}

/// Sweeps deadlines upwards in 5 % steps until one expires inside a
/// refinement step, and returns that abort's stats. It shows as
/// `visited == reach`: the first step's last check sees `reach − 1`.
/// Every run a deadline lets finish must equal `plain`.
fn abort_in_refinement(s: &mut Searcher<'_>, q: NodeId, plain: &TopKResult) -> SearchStats {
    let mut nanos = 1_000f64;
    while nanos < 5e9 {
        let deadline = Duration::from_nanos(nanos as u64);
        s.set_budget(QueryBudget { deadline: Some(deadline), ..Default::default() });
        let run = s.top_k(q, 10);
        s.set_budget(QueryBudget::unlimited());
        match run {
            Err(KdashError::BudgetExceeded { limit, stats }) => {
                assert_eq!(limit, BudgetLimit::Deadline(deadline));
                if stats.visited == plain.stats.reachable {
                    return *stats;
                }
            }
            Ok(out) => assert_same("deadline met", &out, plain),
            Err(e) => panic!("unexpected error {e}"),
        }
        nanos *= 1.05;
    }
    panic!("no deadline up to 5 s expired inside a refinement step");
}

#[test]
fn one_workspace_replays_fresh_across_entry_points_and_failures() {
    for c in [C, WIDE_C] {
        for (name, graph, index) in families(c) {
            let name = format!("{name} c {c}");
            let reach = by_reach(&index);
            let (big_reach, big) = reach[0];
            let (small_reach, small) = *reach.iter().rev().find(|r| r.0 > 1).unwrap();
            let downstream = graph.out_neighbors(big)[0];
            assert!(big_reach > 10 * small_reach, "{name}: reach {big_reach} vs {small_reach}");
            let mut reused = index.searcher();
            assert_replays_fresh(&name, &index, &mut reused, big, small, downstream);

            // Abort inside a step: x̃, r and the spare are all mid-update.
            let plain = reused.top_k(big, 10).unwrap();
            let (pass_nnz, _) = pass_cost(&index, &graph, big);
            let (sweeps, corrections) = step_split(&plain.stats, pass_nnz);
            if c == WIDE_C {
                // A pass and a bit stops the first correction mid-sweep.
                assert!(corrections >= 1, "{name}: {sweeps} sweeps, no correction");
                let budget =
                    QueryBudget { max_gather_nnz: Some(pass_nnz + 1), ..Default::default() };
                reused.set_budget(budget);
                assert!(matches!(reused.top_k(big, 10), Err(KdashError::BudgetExceeded { .. })));
                reused.set_budget(QueryBudget::unlimited());
            } else {
                // Only the clock stops a sweep, and the first step was
                // one: nothing is gathered before the abort.
                assert!(sweeps >= 1 && corrections == 0, "{name}: {corrections} corrections");
                let stats = abort_in_refinement(&mut reused, big, &plain);
                assert_eq!(stats.nnz_gathered, 0, "{name}: not in a sweep");
            }
            let label = format!("{name} after abort");
            assert_replays_fresh(&label, &index, &mut reused, big, small, downstream);
        }
    }
}

/// An undirected unit-weight ring: nodes `q ± i` are exactly tied, so a
/// sparsified top-k across such a pair can never certify.
fn tied_ring(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for v in 0..n as NodeId {
        b.add_undirected_edge(v, (v + 1) % n as NodeId, 1.0);
    }
    b.build().unwrap()
}

#[test]
fn workspace_survives_refinement_failure_on_a_tied_graph() {
    let index = sparsified(&tied_ring(64), 1e-3, C);
    let mut reused = index.searcher();
    for round in 0..2 {
        match reused.top_k(0, 2) {
            Err(KdashError::RefinementFailed { residual, .. }) => {
                assert!(residual.is_finite(), "round {round}")
            }
            other => panic!("round {round}: a tied pair at the boundary must fail, got {other:?}"),
        }
        // k = 1 (the query alone) and k = 3 (both tied neighbours inside)
        // still put the tie *inside* the order, so only the full vector
        // is a goal the loop can reach here — and it must match a fresh
        // workspace bit for bit after the failure.
        let (a, b) = (
            reused.refined_full_proximities(&[0]).unwrap(),
            index.searcher().refined_full_proximities(&[0]).unwrap(),
        );
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()), "round {round}");
        assert_same(
            &format!("round {round} k=1"),
            &reused.top_k(0, 1).unwrap(),
            &index.searcher().top_k(0, 1).unwrap(),
        );
    }
}

/// On an index that needs no refinement, the refined full vector is the
/// exact one, for one source and for a restart set, through a searcher
/// that has already answered other queries — never a panic on a dense
/// index.
#[test]
fn refined_full_vector_on_a_dense_index_is_the_exact_vector() {
    let graph = break_ties(&rmat(8, 700, RmatParams::default(), 9)).unwrap();
    let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
    assert!(!index.needs_refinement());
    let mut reused = index.searcher();
    reused.top_k(5, 10).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for sources in [&[3][..], &[3, 40, 77]] {
        let got = reused.refined_full_proximities(sources).unwrap();
        let want = index.full_proximities_from_set(sources).unwrap();
        assert_eq!(bits(&got), bits(&want), "sources {sources:?}");
    }
}

/// Runs `q`'s top-10 under `budget` and returns the typed abort it must
/// end in.
fn abort(
    s: &mut Searcher<'_>,
    q: NodeId,
    reach: usize,
    budget: QueryBudget,
) -> (BudgetLimit, SearchStats) {
    s.set_budget(budget);
    match s.top_k(q, 10) {
        Err(KdashError::BudgetExceeded { limit, stats }) => {
            assert_eq!(stats.reachable, reach, "the frontier is drained before any solve");
            (limit, *stats)
        }
        other => panic!("{budget:?}: expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn every_budget_aborts_typed_in_the_initial_solve_and_in_a_correction_pass() {
    let (_, graph, index) = families(C).swap_remove(2);
    let q = by_reach(&index)[0].1;
    let plain = index.searcher().top_k(q, 10).unwrap();
    let (pass_nnz, reach) = pass_cost(&index, &graph, q);
    let (sweeps, corrections) = step_split(&plain.stats, pass_nnz);
    assert!(sweeps >= 1 && corrections == 0, "{sweeps} sweeps, {corrections} corrections");
    let mut s = index.searcher();

    // Frontier nodes: N admits exactly N first-step visits; `reach` admits
    // the whole first step, a sweep, and stops the next step's first node.
    let budget = QueryBudget { max_frontier_nodes: Some(7), ..Default::default() };
    let (limit, stats) = abort(&mut s, q, reach, budget);
    assert_eq!(limit, BudgetLimit::FrontierNodes(7));
    assert_eq!((stats.visited, stats.proximity_computations, stats.refinement_nnz), (7, 7, 0));
    let budget = QueryBudget { max_frontier_nodes: Some(reach), ..Default::default() };
    let (limit, stats) = abort(&mut s, q, reach, budget);
    assert_eq!(limit, BudgetLimit::FrontierNodes(reach));
    assert_eq!((stats.visited, stats.proximity_computations), (reach, reach));
    assert_eq!(stats.nnz_gathered, 0, "the first step gathered a row");
    assert!(stats.refinement_nnz > 0, "the first residual was streamed");

    // Deadline: zero expires before the first node.
    let budget = QueryBudget { deadline: Some(Duration::ZERO), ..Default::default() };
    let (limit, stats) = abort(&mut s, q, reach, budget);
    assert_eq!(limit, BudgetLimit::Deadline(Duration::ZERO));
    assert_eq!((stats.visited, stats.nnz_gathered), (0, 0));

    // Gather nnz: a query that starts with a sweep and is carried by
    // sweeps gathers nothing, so even a budget of one entry never fires.
    s.set_budget(QueryBudget { max_gather_nnz: Some(1), ..Default::default() });
    assert_same("a gather budget of one entry", &s.top_k(q, 10).unwrap(), &plain);

    // Only the clock stops a sweep: deadlines swept upwards land one
    // inside a sweep after the first, which gathers nothing either.
    let stats = abort_in_refinement(&mut s, q, &plain);
    assert_eq!(stats.nnz_gathered, 0, "the abort fell outside a sweep");

    // Limits nothing can reach change nothing.
    s.set_budget(QueryBudget {
        max_frontier_nodes: Some(usize::MAX),
        max_gather_nnz: Some(usize::MAX),
        deadline: Some(Duration::from_secs(3600)),
    });
    assert_same("unlimited", &s.top_k(q, 10).unwrap(), &plain);
    let theta = plain.items[3].proximity * 0.999;
    assert_same(
        "unlimited above",
        &s.nodes_above(q, theta).unwrap(),
        &index.searcher().nodes_above(q, theta).unwrap(),
    );

    // At c = 0.15 the first step is a correction and corrections carry
    // the loop: half a pass stops the first step, and a pass and a bit
    // stops the second correction in the middle of its row-dot sweep.
    let (_, graph, index) = families(WIDE_C).swap_remove(2);
    let q = by_reach(&index)[0].1;
    let (pass_nnz, reach) = pass_cost(&index, &graph, q);
    let plain = index.searcher().top_k(q, 10).unwrap();
    assert!(step_split(&plain.stats, pass_nnz).1 >= 1, "a correction must run");
    let mut s = index.searcher();
    let budget = QueryBudget { max_gather_nnz: Some(pass_nnz / 2), ..Default::default() };
    let (limit, stats) = abort(&mut s, q, reach, budget);
    assert_eq!(limit, BudgetLimit::GatherNnz(pass_nnz / 2));
    assert!(stats.visited < reach && stats.nnz_gathered >= pass_nnz / 2);
    let budget = QueryBudget { max_gather_nnz: Some(pass_nnz + 1), ..Default::default() };
    let (limit, stats) = abort(&mut s, q, reach, budget);
    assert_eq!(limit, BudgetLimit::GatherNnz(pass_nnz + 1));
    assert_eq!(stats.visited, reach);
    assert!(stats.nnz_gathered > pass_nnz && stats.nnz_gathered < 2 * pass_nnz);
    s.set_budget(QueryBudget::unlimited());
    assert_same("unlimited after the aborts", &s.top_k(q, 10).unwrap(), &plain);
}

/// `values × factor`, same pattern.
fn scaled(m: &CscMatrix, factor: f64) -> CscMatrix {
    let (ptr, idx, val) = m.raw();
    let val = val.iter().map(|v| v * factor).collect();
    CscMatrix::from_raw_parts(m.nrows(), m.ncols(), ptr.to_vec(), idx.to_vec(), val).unwrap()
}

/// `index` with both stored inverses scaled by 10²⁰⁰: finite but absurd
/// (each passes validation), the graph untouched.
fn corrupted(index: &KdashIndex) -> KdashIndex {
    let (linv_dropped, uinv_dropped) = index.dropped_masses();
    let uinv = ProximityStore::from_csr(
        CsrMatrix::from_csc(&scaled(&index.uinv_rows().to_csc(), 1e200)),
        index.layout(),
    )
    .unwrap();
    let patch = IndexPatch {
        graph: index.permuted_graph().clone(),
        linv: scaled(index.linv_cols(), 1e200),
        uinv,
        linv_dropped: linv_dropped.to_vec(),
        uinv_dropped: uinv_dropped.to_vec(),
        nnz_l: index.stats().nnz_l,
        nnz_u: index.stats().nnz_u,
        epochs: 1,
    };
    index.patched(patch).unwrap()
}

#[test]
fn overflowing_residual_is_a_typed_failure_not_a_panic() {
    // Where the first step is a correction, x̃ overflows to ±∞ and the
    // residual to NaN on the first evaluation.
    let (_, _, index) = families(WIDE_C).swap_remove(0);
    let q = by_reach(&index)[0].1;
    let index = corrupted(&index);
    let mut s = index.searcher();
    for round in 0..2 {
        match s.top_k(q, 10) {
            Err(KdashError::RefinementFailed { iterations, residual, .. }) => {
                assert!(!residual.is_finite(), "round {round}: residual {residual}");
                assert_eq!(iterations, 0, "round {round}: must fail on the first residual");
            }
            other => panic!("round {round}: expected RefinementFailed, got {other:?}"),
        }
        assert!(matches!(s.nodes_above(q, 1e-3), Err(KdashError::RefinementFailed { .. })));
        assert!(matches!(
            s.refined_full_proximities(&[q]),
            Err(KdashError::RefinementFailed { .. })
        ));
    }

    // Where it is a sweep, and sweeps carry every goal, no step reads an
    // inverse: the corrupted index answers like the clean one, bit for bit.
    let (_, _, clean) = families(C).swap_remove(0);
    let q = by_reach(&clean)[0].1;
    let index = corrupted(&clean);
    let (mut s, mut t) = (index.searcher(), clean.searcher());
    let theta = t.top_k(q, 4).unwrap().items[3].proximity * 0.999;
    for round in 0..2 {
        let label = format!("round {round}");
        let got = s.top_k(q, 10).unwrap();
        assert_eq!(got.stats.nnz_gathered, 0, "{label}: the first step gathered a row");
        assert_same(&label, &got, &t.top_k(q, 10).unwrap());
        assert_same(&label, &s.nodes_above(q, theta).unwrap(), &t.nodes_above(q, theta).unwrap());
        let (a, b) =
            (s.refined_full_proximities(&[q]).unwrap(), t.refined_full_proximities(&[q]).unwrap());
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()), "{label} full vector");
    }
}

/// Every returned proximity against `truth` (original ids).
fn assert_within_tolerance(label: &str, got: &TopKResult, truth: &[f64]) {
    assert!(!got.items.is_empty(), "{label}: nothing returned");
    for item in &got.items {
        let want = truth[item.node as usize];
        let err = (item.proximity - want).abs();
        assert!(err <= VALUE_TOLERANCE, "{label}: node {} off by {err:e}", item.node);
    }
}

#[test]
fn every_refined_proximity_is_within_the_value_tolerance() {
    let dictionary = DatasetProfile::Dictionary;
    for seed in [42, 7, 777] {
        for (name, raw) in [
            ("rmat", rmat(10, 4 << 10, RmatParams::default(), seed)),
            ("dictionary", dictionary.generate(dictionary.scale_for_nodes(1000), seed)),
        ] {
            let graph = break_ties(&raw).unwrap();
            // The three widest reachable sets, where refinement works
            // hardest; the restart set takes the widest and a node it
            // feeds, since two sources without in-flow tie at c/2.
            let mut widest: Vec<NodeId> = (0..graph.num_nodes() as NodeId).collect();
            widest.sort_by_cached_key(|&q| Reverse(BfsTree::new(&graph, q).num_reachable()));
            widest.truncate(3);
            let set = [widest[0], graph.out_neighbors(widest[0])[0]];
            // Every ε at the default c, where sweeps carry the loop; one at
            // smaller c, down to where corrections do. Sweeps do the most
            // work at c = 0.3, where top-k and threshold goals start with a
            // sweep and the full vector with a correction; at 0.28 and
            // below every goal starts with a correction, and at 0.05 a
            // run of sweeps would run out of steps.
            let cs = [
                (C, &[1e-5, 1e-4, 1e-3][..]),
                (0.5, &[1e-4]),
                (0.3, &[1e-4]),
                (0.28, &[1e-4]),
                (WIDE_C, &[1e-4]),
                (0.05, &[1e-4]),
            ];
            for (c, epsilons) in cs {
                let options = IndexOptions { restart_probability: c, ..Default::default() };
                let dense = KdashIndex::build(&graph, options).unwrap();
                let truths: Vec<Vec<f64>> =
                    widest.iter().map(|&q| dense.full_proximities(q).unwrap()).collect();
                let set_truth = dense.full_proximities_from_set(&set).unwrap();
                for &eps in epsilons {
                    let label = format!("{name} seed {seed} c {c} ε {eps:e}");
                    let index = sparsified(&graph, eps, c);
                    let mut s = index.searcher();
                    for (&q, truth) in widest.iter().zip(&truths) {
                        let label = format!("{label} q {q}");
                        assert_within_tolerance(&label, &s.top_k(q, 20).unwrap(), truth);
                        let mut ranked = truth.clone();
                        ranked.sort_unstable_by(|a, b| b.total_cmp(a));
                        let theta = (ranked[9] + ranked[10]) / 2.0;
                        assert_within_tolerance(&label, &s.nodes_above(q, theta).unwrap(), truth);
                        let full = index.full_proximities(q).unwrap();
                        for (u, (got, want)) in full.iter().zip(truth).enumerate() {
                            let err = (got - want).abs();
                            assert!(
                                err <= VALUE_TOLERANCE,
                                "{label} full: node {u} off by {err:e}"
                            );
                        }
                    }
                    let top = s.top_k_from_set(&set, 20).unwrap();
                    assert_within_tolerance(&format!("{label} set {set:?}"), &top, &set_truth);
                }
            }
        }
    }
}

fn assert_audit_clean(label: &str, index: &KdashIndex) {
    let audit = IndexAudit::run(index);
    assert!(audit.is_clean(), "{label}: {:?}", audit.findings);
}

/// The full vector and the top 8 — refined on a sparsified index, under
/// the stop rule on a dense one — against the iterative definition
/// (Equation 1, power iteration; ratio `1 − c = 0.05` per step) on `graph`
/// under `dangling`.
fn assert_exact(
    label: &str,
    index: &KdashIndex,
    graph: &CsrGraph,
    dangling: DanglingPolicy,
    queries: &[NodeId],
) {
    assert_eq!(
        index.needs_refinement(),
        index.drop_tolerance() > 0.0,
        "{label}: a sparsified index must actually refine"
    );
    let a = transition_matrix(graph, dangling);
    for &q in queries {
        let got = index.full_proximities(q).unwrap();
        let mut want = vec![0.0; graph.num_nodes()];
        want[q as usize] = 1.0;
        let mut next = want.clone();
        for _ in 0..60 {
            rwr_step(&a, 0.95, q, &want, &mut next);
            std::mem::swap(&mut want, &mut next);
        }
        for (u, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-9, "{label}: q {q} node {u}: {g} vs {w}");
        }
        want.sort_unstable_by(|x, y| y.total_cmp(x));
        let top = index.top_k(q, 8).unwrap();
        for (i, (item, w)) in top.items.iter().zip(&want).enumerate() {
            let g = item.proximity;
            assert!((g - w).abs() < 1e-9, "{label}: q {q} rank {i}: {g} vs {w}");
        }
    }
}

#[test]
fn out_weight_sums_follow_the_graph_through_every_commit_path() {
    // RMAT leaves plenty of sinks; pick one and a node with a single
    // out-edge, in original ids.
    let graph = break_ties(&rmat(8, 700, RmatParams::default(), 11)).unwrap();
    let n = graph.num_nodes() as NodeId;
    let sink = (0..n).find(|&v| graph.out_degree(v) == 0).expect("an RMAT sink");
    let single = (0..n).find(|&v| graph.out_degree(v) == 1).expect("a one-edge node");
    let single_dst = graph.out_neighbors(single)[0];
    let feeder = (0..n).find(|&v| graph.has_edge(v, sink)).expect("a sink with an in-edge");

    // Dense indexes too (ε = 0): the stop rule divides by the same sums.
    for (drop_tolerance, dangling) in [
        (1e-3, DanglingPolicy::Keep),
        (1e-3, DanglingPolicy::SelfLoop),
        (0.0, DanglingPolicy::Keep),
        (0.0, DanglingPolicy::SelfLoop),
    ] {
        let label = format!("ε {drop_tolerance:e} {dangling:?}");
        let options = IndexOptions {
            ordering: NodeOrdering::Degree,
            dangling,
            drop_tolerance,
            ..Default::default()
        };
        let index = KdashIndex::build(&graph, options).unwrap();
        assert_audit_clean(&format!("{label} build"), &index);
        let mut bytes = Vec::new();
        index.save(&mut bytes).unwrap();
        let loaded = KdashIndex::load(bytes.as_slice()).unwrap();
        assert_audit_clean(&format!("{label} reload"), &loaded);
        assert_exact(&format!("{label} reload"), &loaded, &graph, dangling, &[feeder, single]);

        // The audit runs after every apply, on the patched index.
        let perm = index.permutation().clone();
        let mut dynamic = DynamicIndex::new(loaded).unwrap().verify_after_apply(true);
        let grow =
            UpdateBatch::new(vec![EdgeEdit::Insert { src: sink, dst: feeder, weight: 1.37 }])
                .unwrap();
        let strip =
            UpdateBatch::new(vec![EdgeEdit::Delete { src: single, dst: single_dst }]).unwrap();
        dynamic.apply(&grow).unwrap();
        let mut edited = graph.apply_edits(grow.edits()).unwrap();
        assert_exact(
            &format!("{label} former sink"),
            dynamic.index(),
            &edited,
            dangling,
            &[feeder, sink],
        );
        dynamic.apply(&strip).unwrap();
        edited = edited.apply_edits(strip.edits()).unwrap();
        assert_eq!(edited.out_degree(single), 0);
        assert_exact(
            &format!("{label} new sink"),
            dynamic.index(),
            &edited,
            dangling,
            &[single, feeder],
        );

        // Both edits undone in one coalesced pass land back on the build.
        let undo = [
            UpdateBatch::new(vec![EdgeEdit::Delete { src: sink, dst: feeder }]).unwrap(),
            UpdateBatch::new(vec![EdgeEdit::Insert {
                src: single,
                dst: single_dst,
                weight: graph.edge_weight(single, single_dst).unwrap(),
            }])
            .unwrap(),
        ];
        dynamic.apply_coalesced(&undo).unwrap();
        let rebuilt = IndexBuilder::from_options(options).permutation(perm).build(&graph).unwrap();
        check_index_bit_identity(dynamic.index(), &rebuilt).expect("coalesced undo ≡ rebuild");
        for q in [feeder, single, sink] {
            assert_same(
                &format!("{label} undo q {q}"),
                &dynamic.index().top_k(q, 8).unwrap(),
                &rebuilt.top_k(q, 8).unwrap(),
            );
        }
    }
}
