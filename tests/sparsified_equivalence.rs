//! The sparsified-tier exactness contract: an index built under a drop
//! tolerance `ε > 0` stores *truncated* inverses, yet every query entry
//! point must return the **same top-k node set in the same order** as
//! the dense-exact build — the certified residual-refinement loop
//! iterates until the residual norm proves the ranking, or fails loudly.
//!
//! * Property: across ER/BA/RMAT (reweighted to break exact proximity
//!   ties) × orderings × ε ∈ {1e-8, 1e-5, 1e-3} × k ∈ {5, 50} ×
//!   top-k / restart-set / random-root / unpruned / threshold /
//!   merge-join-oracle entry points, sparsified results carry the exact
//!   node sequence, and the values witness the certificate: the maximum
//!   deviation from exact stays below half the refined ranking's minimum
//!   adjacent gap (plus threshold margins for `nodes_above`).
//! * ε = 0 routes the classic path bit-for-bit: stores, items, and
//!   stats all identical to the default dense build.
//! * A positive ε that drops nothing (1e-300) flags the *tier* as
//!   sparsified but keeps `needs_refinement()` false — classic-path
//!   queries, bit-identical stores.

use kdash_core::{paper, IndexOptions, KdashError, KdashIndex, NodeOrdering, TopKResult};
use kdash_datagen::{barabasi_albert, erdos_renyi, rmat, RmatParams};
use kdash_graph::{CsrGraph, NodeId};
use kdash_harness::break_ties;
use proptest::prelude::*;

fn graph_strategy() -> impl Strategy<Value = CsrGraph> {
    (0usize..3, 24usize..90, 1usize..5, any::<u64>()).prop_map(|(family, n, density, seed)| {
        let raw = match family {
            0 => erdos_renyi(n, n * density, seed),
            1 => barabasi_albert(n, density.min(n - 1).max(1), seed),
            _ => {
                let scale = 4 + (n % 3) as u32;
                rmat(scale, (1usize << scale) * density, RmatParams::default(), seed)
            }
        };
        break_ties(&raw).unwrap()
    })
}

fn ordering_for(which: usize) -> NodeOrdering {
    [NodeOrdering::Natural, NodeOrdering::Degree, NodeOrdering::Hybrid][which % 3]
}

/// Asserts the sparsified result carries the dense result's node sequence
/// exactly, and that the values witness the certificate: every refined
/// value sits within its own bound `ρ_u` (at most `VALUE_TOLERANCE`) of
/// exact, and each adjacent refined gap exceeds the two bounds it
/// separates — so the *observable* invariant is
/// `max_i |dense_i − sparse_i| < min adjacent sparsified gap / 2` up to
/// the spread of the `ρ_u` (each ≤ 5e-10, inside the 1e-9 allowance
/// below). (The dense gaps bound nothing: certification reasons about
/// refined values, whose gaps can exceed the dense ones by the bounds
/// they carry.) `extra_bound`
/// tightens the gap bound with entry-point-specific certificate terms
/// (e.g. threshold margins).
fn check_same_ranking(label: &str, dense: &TopKResult, sparse: &TopKResult, extra_bound: f64) {
    assert_eq!(
        dense.items.len(),
        sparse.items.len(),
        "{label}: result sizes diverge (dense {} vs sparsified {})",
        dense.items.len(),
        sparse.items.len()
    );
    // Zero-proximity entries are filler — nodes outside the query's
    // reach, padded in when k exceeds the genuine answer count (the
    // random-root ablation visits the whole graph). Both tiers order
    // that tail arbitrarily (dense: visit order; refined: certificate
    // heap order), exactly as two dense entry points would — so the
    // contract binds the positive prefix only, plus matching prefix
    // lengths and an all-zero tail on both sides.
    let positive = |r: &TopKResult| r.items.iter().take_while(|i| i.proximity > 0.0).count();
    let (dp, sp) = (positive(dense), positive(sparse));
    assert_eq!(dp, sp, "{label}: genuine (positive-proximity) answer counts diverge");
    assert!(
        dense.items[dp..].iter().chain(&sparse.items[sp..]).all(|i| i.proximity == 0.0),
        "{label}: non-zero entry below the positive prefix"
    );
    let mut max_err = 0.0f64;
    let mut min_half_gap = extra_bound;
    for (rank, (d, s)) in dense.items[..dp].iter().zip(&sparse.items[..sp]).enumerate() {
        assert_eq!(d.node, s.node, "{label}: node sequences diverge at rank {rank}");
        max_err = max_err.max((d.proximity - s.proximity).abs());
        if rank + 1 < sp {
            min_half_gap = min_half_gap.min((s.proximity - sparse.items[rank + 1].proximity) / 2.0);
        }
    }
    // A single-item result exposes no internal gap (its certified
    // boundary gap is against the unseen (k+1)-th value), so only the
    // entry-point bound applies there. The additive 1e-9 is the
    // floating-point allowance: the certificate reasons in exact
    // arithmetic, while the dense direct solves and the refined
    // accumulation each carry their own rounding — a δ = 0 refined
    // answer still differs from the dense values by a few ulps of the
    // residual accumulation.
    if min_half_gap.is_finite() && sp > 1 {
        assert!(
            max_err < min_half_gap + 1e-9,
            "{label}: value error {max_err:e} reaches half the minimum refined gap \
             {min_half_gap:e} — the certificate cannot have held"
        );
    }
}

fn build(graph: &CsrGraph, ordering: NodeOrdering, eps: f64) -> KdashIndex {
    KdashIndex::build(
        graph,
        IndexOptions { ordering, drop_tolerance: eps, ..Default::default() },
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole property: every entry point, every ε, identical
    /// top-k set and order against the dense-exact twin.
    #[test]
    fn sparsified_ranking_matches_dense_exact((graph, q_sel, which, k_wide) in
        (graph_strategy(), any::<u32>(), 0usize..3, 0usize..2)) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let k = if k_wide == 1 { 50 } else { 5 };
        let ordering = ordering_for(which);
        let dense = build(&graph, ordering, 0.0);
        prop_assert!(!dense.is_sparsified());

        // A threshold wedged between two single-source ranking values,
        // for the nodes_above entry point.
        let dense_padded = dense.top_k(q, k + 1).unwrap();
        let sources = [q, (q + 1) % n as NodeId];
        let root = (q + 2) % n as NodeId;
        let theta = match dense_padded.items.len() {
            0 | 1 => 0.5,
            len => {
                let at = (len - 1).min(3);
                (dense_padded.items[at - 1].proximity + dense_padded.items[at].proximity) / 2.0
            }
        };

        type Run = (&'static str, Box<dyn Fn(&KdashIndex, usize) -> Result<TopKResult, KdashError>>);
        let runs: Vec<Run> = vec![
            ("top_k", Box::new(move |ix, kk| ix.top_k(q, kk))),
            ("from_set", Box::new(move |ix, kk| ix.top_k_from_set(&sources, kk))),
            (
                "random_root",
                Box::new(move |ix, kk| paper::top_k_from_root(&mut ix.searcher(), q, kk, root)),
            ),
            ("unpruned", Box::new(move |ix, kk| paper::top_k_unpruned(&mut ix.searcher(), q, kk))),
            ("merge_join", Box::new(move |ix, kk| paper::top_k_merge_join(ix, &[q], kk))),
            ("merge_join_set", Box::new(move |ix, kk| paper::top_k_merge_join(ix, &sources, kk))),
        ];

        for eps in [1e-8, 1e-5, 1e-3] {
            let sparse = build(&graph, ordering, eps);
            prop_assert!(sparse.is_sparsified());
            prop_assert_eq!(sparse.permutation(), dense.permutation(),
                "the permutation is ε-independent");
            // `RefinementFailed` is the tier's documented honest outcome
            // when two candidate proximities sit inside the same ulp:
            // no per-node bound can ever separate them, so the loop refuses to
            // rank them rather than guess. Accept it only when the
            // residual was already at floating-point-noise level — a
            // large residual at failure would mean refinement diverged,
            // which IS a bug.
            let check = |label: &str, d: Result<TopKResult, KdashError>,
                             s: Result<TopKResult, KdashError>, bound: f64| {
                let d = d.expect("dense-exact queries never fail");
                match s {
                    Ok(s) => check_same_ranking(label, &d, &s, bound),
                    Err(KdashError::RefinementFailed { residual, .. }) => assert!(
                        residual < 1e-12,
                        "{label}: refinement failed with residual {residual:e} still far above \
                         the floating-point floor — the loop diverged"
                    ),
                    Err(e) => panic!("{label}: unexpected error {e}"),
                }
            };
            for (label, run) in &runs {
                check(
                    &format!("eps {eps:e} {label} n={n} q={q} k={k}"),
                    run(&dense, k),
                    run(&sparse, k),
                    f64::INFINITY,
                );
            }
            // Threshold query: the certificate additionally bounds the
            // final residual below every refined margin to θ.
            let d_above = dense.nodes_above(q, theta);
            let s_above = sparse.nodes_above(q, theta);
            let margin = s_above
                .as_ref()
                .map(|r| {
                    r.items
                        .iter()
                        .map(|i| (i.proximity - theta).abs())
                        .fold(f64::INFINITY, f64::min)
                })
                .unwrap_or(f64::INFINITY);
            check(&format!("eps {eps:e} nodes_above n={n} q={q}"), d_above, s_above, margin);
            // ε = 1e-3 on these graphs must actually drop mass —
            // otherwise the property never exercised the refined path.
            if eps == 1e-3 {
                prop_assert!(sparse.needs_refinement(),
                    "eps 1e-3 dropped nothing on n={} — property vacuous", n);
            }
        }
    }

    /// ε = 0 is the dense build, bit for bit: raw stores, items, stats.
    #[test]
    fn zero_tolerance_is_bit_identical((graph, q_sel, which) in
        (graph_strategy(), any::<u32>(), 0usize..3)) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let ordering = ordering_for(which);
        let dense = build(&graph, ordering, 0.0);
        let explicit = KdashIndex::build(
            &graph,
            IndexOptions { ordering, ..Default::default() },
        ).unwrap();
        prop_assert!(!dense.is_sparsified() && !dense.needs_refinement());
        let (ap, ai, av) = dense.linv_cols().raw();
        let (bp, bi, bv) = explicit.linv_cols().raw();
        prop_assert_eq!((ap, ai), (bp, bi));
        prop_assert!(av.iter().zip(bv).all(|(a, b)| a.to_bits() == b.to_bits()));
        prop_assert_eq!(dense.uinv_rows(), explicit.uinv_rows());
        let a = dense.top_k(q, 10).unwrap();
        let b = explicit.top_k(q, 10).unwrap();
        prop_assert_eq!(a.items, b.items);
        prop_assert_eq!(a.stats, b.stats);
    }
}

/// A positive ε so small it drops nothing: the *tier* reads sparsified,
/// the dropped mass is exactly zero, and queries route the classic
/// (refinement-free) path — `needs_refinement()` (dropped mass), not
/// `is_sparsified()` (ε sign), gates the refinement loop. The stored
/// arrays carry the dense pattern, and the values are asked to match only
/// up to rounding: an ε > 0 build runs `kdash_sparse`'s one triangular
/// solve in the exact build's index order but mirrors no dense tail, and
/// that the tail changes no bit is `kdash_sparse`'s contract to pin, not
/// this tier's; bit-identity to the dense build is the ε = 0 contract,
/// pinned in `zero_tolerance_is_bit_identical`.
#[test]
fn undropped_positive_tolerance_routes_classic_path() {
    let graph = break_ties(&rmat(8, 1024, RmatParams::default(), 21)).unwrap();
    let dense = build(&graph, NodeOrdering::Hybrid, 0.0);
    let tiny = build(&graph, NodeOrdering::Hybrid, 1e-300);
    assert!(tiny.is_sparsified(), "positive ε labels the tier");
    assert!(!tiny.needs_refinement(), "1e-300 must drop nothing");
    assert_eq!(tiny.dropped_mass(), 0.0);
    let (ap, ai, av) = dense.linv_cols().raw();
    let (bp, bi, bv) = tiny.linv_cols().raw();
    assert_eq!((ap, ai), (bp, bi), "nothing dropped: the stored pattern is the dense pattern");
    assert!(
        av.iter().zip(bv).all(|(a, b)| (a - b).abs() <= 1e-12 * (1.0 + b.abs())),
        "undropped values must match the dense build up to accumulation-order rounding"
    );
    for q in (0..graph.num_nodes() as NodeId).step_by(61) {
        let a = dense.top_k(q, 10).unwrap();
        let b = tiny.top_k(q, 10).unwrap();
        let a_nodes: Vec<NodeId> = a.items.iter().map(|i| i.node).collect();
        let b_nodes: Vec<NodeId> = b.items.iter().map(|i| i.node).collect();
        assert_eq!(a_nodes, b_nodes, "q {q}");
        assert_eq!(
            b.stats.refinement_iterations, 0,
            "q {q}: an undropped store must route the classic path, not the refinement loop"
        );
        assert_eq!(b.stats.refinement_nnz, 0, "q {q}");
    }
}

/// Aggressive truncation visibly shrinks the stored inverses while the
/// ranking stays exact — the memory/latency trade the tier exists for,
/// pinned on a fill-heavy graph (natural ordering maximises fill-in).
#[test]
fn aggressive_tolerance_shrinks_the_store() {
    let graph = break_ties(&erdos_renyi(600, 4200, 9)).unwrap();
    let dense = build(&graph, NodeOrdering::Natural, 0.0);
    let sparse = build(&graph, NodeOrdering::Natural, 1e-3);
    assert!(sparse.needs_refinement());
    let d_nnz = dense.stats().nnz_l_inv + dense.stats().nnz_u_inv;
    let s_nnz = sparse.stats().nnz_l_inv + sparse.stats().nnz_u_inv;
    assert!(
        (s_nnz as f64) < 0.8 * d_nnz as f64,
        "ε = 1e-3 kept {s_nnz} of {d_nnz} inverse nnz — no meaningful sparsification"
    );
    check_same_ranking(
        "aggressive",
        &dense.top_k(17, 10).unwrap(),
        &sparse.top_k(17, 10).unwrap(),
        f64::INFINITY,
    );
}
