//! Tier-1 contract of the incremental refactorisation
//! ([`kdash_sparse::refactor_columns`]): re-eliminating only the forward
//! reach of the dirty `W` columns and splicing the rest from the old
//! factors is **byte-identical** to a full `sparse_lu` on the edited
//! `W` — across graph families × node orderings × edit classes, for
//! single edits and coalesced multi-edit dirty sets.
//!
//! * Property: ER/BA/RMAT × {Natural, Degree, Hybrid, RCM} × edit
//!   classes (fresh-source insert, reweight, delete, in-closure edit on
//!   the first eliminated column) — each class singly and all classes
//!   merged into one coalesced dirty set — refactorises to the same bits
//!   as the from-scratch factorisation.
//! * Scheduling honesty: the refactorisation recomputes a *bounded* set
//!   (reported), and on a two-component graph an edit in one component
//!   never recomputes or changes a column of the other.
//! * The dense tail: on an RMAT graph large enough for one, edits whose
//!   dirty `W` column lies in the sparse head, inside the tail, exactly
//!   at its first column, and one that moves that column — the refactor
//!   and the inverse re-solve run without a mirror and must still return
//!   the bytes of the full build they patch, which runs with one.
//! * Engine level: `apply_coalesced` over a random queue equals the
//!   pinned from-scratch rebuild bit-for-bit and advances the epoch by
//!   the queue length (`tests/dynamic_equivalence.rs` pins the
//!   batch-by-batch path; this pins the coalesced one).

use kdash_core::{compute_ordering, IndexBuilder, IndexOptions, KdashIndex, NodeOrdering};
use kdash_datagen::{barabasi_albert, erdos_renyi, rmat, RmatParams};
use kdash_dynamic::{DynamicIndex, UpdateBatch};
use kdash_graph::{CsrGraph, EdgeEdit, GraphBuilder, NodeId};
use kdash_harness::check_index_bit_identity;
use kdash_sparse::{
    dense_tail_columns, inverse_dirty_columns, refactor_columns, sparse_lu, sparsify_columns_with,
    sparsify_lower_unit_with, sparsify_upper_with, transition_matrix, w_matrix, CscMatrix,
    DanglingPolicy, Index, InvertOptions, LuFactors, Triangle,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};

fn graph_strategy() -> impl Strategy<Value = CsrGraph> {
    (0usize..3, 24usize..64, 1usize..4, any::<u64>()).prop_map(|(family, n, density, seed)| {
        match family {
            0 => erdos_renyi(n, n * (density + 1), seed),
            1 => barabasi_albert(n, density.min(n - 1).max(1), seed),
            _ => {
                let scale = 4 + (n % 2) as u32;
                rmat(scale, (1usize << scale) * (density + 1), RmatParams::default(), seed)
            }
        }
    })
}

const ORDERINGS: [NodeOrdering; 4] = [
    NodeOrdering::Natural,
    NodeOrdering::Degree,
    NodeOrdering::Hybrid,
    NodeOrdering::ReverseCuthillMcKee,
];

/// `W = I − (1−c)A` of a (permuted) graph under the given policy.
fn w_of(graph: &CsrGraph, c: f64, dangling: DanglingPolicy) -> CscMatrix {
    let a = transition_matrix(graph, dangling);
    w_matrix(&a, c).expect("valid restart probability")
}

fn assert_factors_bit_identical(a: &LuFactors, b: &LuFactors, context: &str) {
    for (name, ta, tb) in [("L", &a.l, &b.l), ("U", &a.u, &b.u)] {
        let (pa, ia, va) = ta.raw();
        let (pb, ib, vb) = tb.raw();
        assert_eq!(pa, pb, "{context}: {name} column pointers differ");
        assert_eq!(ia, ib, "{context}: {name} row indices differ");
        assert_eq!(va.len(), vb.len(), "{context}: {name} value counts differ");
        for (i, (x, y)) in va.iter().zip(vb).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{context}: {name} value {i} differs");
        }
    }
}

/// One edit list per class, built directly in permuted id space:
/// fresh-source insert (a node gains an out-edge it never had),
/// reweight, delete, and an in-closure edit touching the **first**
/// eliminated column (the worst case — its forward reach is the
/// largest).
fn edit_classes(graph: &CsrGraph, rng: &mut StdRng) -> Vec<(&'static str, Vec<EdgeEdit>)> {
    let n = graph.num_nodes() as NodeId;
    let edges: Vec<(NodeId, NodeId, f64)> = graph.edges().collect();
    let mut classes = Vec::new();

    // Fresh-source insert: a source from the back half of the order.
    let mut inserted = None;
    'outer: for _ in 0..200 {
        let src = rng.gen_range(n / 2..n);
        let dst = rng.gen_range(0..n);
        if src != dst && !graph.has_edge(src, dst) {
            inserted = Some((src, dst));
            break 'outer;
        }
    }
    if let Some((src, dst)) = inserted {
        classes.push(("fresh-source", vec![EdgeEdit::Insert { src, dst, weight: 1.5 }]));
    }

    if let Some(&(src, dst, _)) = edges.choose(rng) {
        classes.push(("reweight", vec![EdgeEdit::Reweight { src, dst, weight: 0.65 }]));
    }
    if let Some(&(src, dst, _)) = edges.choose(rng) {
        classes.push(("delete", vec![EdgeEdit::Delete { src, dst }]));
    }

    // In-closure: edit column 0 of the permuted order — everything
    // reachable from the first eliminated column is a candidate.
    let in_closure = match edges.iter().find(|&&(s, _, _)| s == 0) {
        Some(&(s, d, _)) => EdgeEdit::Reweight { src: s, dst: d, weight: 2.25 },
        None => {
            let dst = if n > 1 { 1 } else { 0 };
            EdgeEdit::Insert { src: 0, dst, weight: 1.0 }
        }
    };
    classes.push(("in-closure", vec![in_closure]));
    classes
}

/// Checks one edit list: the incremental refactorisation from `old`
/// equals the full factorisation of the edited `W`, bit for bit, and the
/// recompute schedule is honest.
fn check_edit(
    old_w_graph: &CsrGraph,
    old: &LuFactors,
    edits: &[EdgeEdit],
    c: f64,
    dangling: DanglingPolicy,
    context: &str,
) {
    let edited = old_w_graph.apply_edits(edits).expect("generator emits valid edits");
    let w_new = w_of(&edited, c, dangling);
    let mut dirty: Vec<Index> = edits.iter().map(|e| e.src()).collect();
    dirty.sort_unstable();
    dirty.dedup();

    let full = sparse_lu(&w_new).expect("W is diagonally dominant");
    let (incremental, report) = refactor_columns(old, &w_new, &dirty).expect("refactor");
    assert_factors_bit_identical(&incremental, &full, context);
    assert_eq!(report.dirty_w_columns, dirty.len(), "{context}");
    assert!(report.recomputed_columns <= report.dim, "{context}");
    assert!(
        report.changed_l_columns.len() <= report.recomputed_columns
            && report.changed_u_columns.len() <= report.recomputed_columns,
        "{context}: changed ⊆ recomputed"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: every edit class, singly and coalesced,
    /// refactorises to the bits of the from-scratch factorisation.
    #[test]
    fn refactor_equals_full_lu_across_families_orderings_and_edit_classes(
        (graph, ord_sel, seed) in (graph_strategy(), any::<u32>(), any::<u64>())
    ) {
        let ordering = ORDERINGS[ord_sel as usize % ORDERINGS.len()];
        let index = KdashIndex::build(
            &graph,
            IndexOptions { ordering, ..Default::default() },
        ).unwrap();
        let (c, dangling) = (index.restart_probability(), index.dangling_policy());
        let permuted = index.permuted_graph().clone();
        let old = sparse_lu(&w_of(&permuted, c, dangling)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);

        let classes = edit_classes(&permuted, &mut rng);
        for (class, edits) in &classes {
            check_edit(&permuted, &old, edits, c, dangling,
                &format!("{ordering:?} seed={seed} class={class}"));
        }

        // Coalesced: all classes merged into one dirty set — but only
        // where the merged edit list stays valid (a delete of an edge a
        // later class reweights would not), so filter to one edit per
        // distinct (src, dst) pair.
        let mut merged: Vec<EdgeEdit> = Vec::new();
        let mut seen: Vec<(NodeId, NodeId)> = Vec::new();
        for (_, edits) in &classes {
            for e in edits {
                let key = (e.src(), e.dst());
                if !seen.contains(&key) {
                    seen.push(key);
                    merged.push(e.clone());
                }
            }
        }
        check_edit(&permuted, &old, &merged, c, dangling,
            &format!("{ordering:?} seed={seed} class=coalesced"));
    }
}

/// The RMAT fixture of the dense-tail tests (shared with
/// `tests/dynamic_equivalence.rs`): 1 024 nodes under the hybrid ordering,
/// whose `L` grows a tail of more than 64 columns behind a sparse head.
/// Returns the permuted graph and the tail's first column.
fn tail_fixture() -> (CsrGraph, NodeId) {
    let graph = rmat(10, 4096, RmatParams::default(), 33);
    let permuted = graph.permute(&compute_ordering(&graph, NodeOrdering::Hybrid)).unwrap();
    let l = sparse_lu(&w_of(&permuted, 0.95, DanglingPolicy::Keep)).unwrap().l;
    let tail = dense_tail_columns(&l, Triangle::Lower).unwrap();
    assert!((64..permuted.num_nodes() / 2).contains(&tail), "fixture tail is {tail} columns");
    let start = (permuted.num_nodes() - tail) as NodeId;
    (permuted, start)
}

/// One edit list per side of the tail boundary, in permuted ids, by the
/// `W` column they dirty (an edge's source): a head column, a tail
/// column, the tail's first column `s`, and `s − 1` made full — which
/// moves `s`.
fn boundary_edits(graph: &CsrGraph, s: NodeId) -> Vec<(&'static str, Vec<EdgeEdit>)> {
    let n = graph.num_nodes() as NodeId;
    let reweight = |src: NodeId| {
        let (dst, _) = graph.out_edges(src).next().expect("fixture sources have out-edges");
        EdgeEdit::Reweight { src, dst, weight: 1.75 }
    };
    let with_out_edge = |mut range: std::ops::Range<NodeId>| {
        // Two out-edges: reweighting a node's only one leaves `W` as it was.
        range.find(|&v| graph.out_degree(v) > 1).expect("fixture has edges on both sides")
    };
    let at_s = match graph.has_edge(s, n - 1) {
        true => EdgeEdit::Reweight { src: s, dst: n - 1, weight: 1.75 },
        false => EdgeEdit::Insert { src: s, dst: n - 1, weight: 0.5 },
    };
    let fill = (s..n).filter(|&dst| !graph.has_edge(s - 1, dst));
    vec![
        ("head", vec![reweight(with_out_edge(0..s - 1))]),
        ("tail", vec![reweight(with_out_edge(s + 1..n))]),
        ("at-s", vec![at_s]),
        ("moves-s", fill.map(|dst| EdgeEdit::Insert { src: s - 1, dst, weight: 1.0 }).collect()),
    ]
}

/// `refactor_columns ≡ sparse_lu`, and the exact column re-solve ≡ the
/// full inversion at one worker and two, bitwise, for edits on every side of
/// the dense tail's first column.
#[test]
fn refactor_and_resolve_match_the_full_build_across_the_tail_boundary() {
    let (graph, s) = tail_fixture();
    let n = graph.num_nodes();
    let old = sparse_lu(&w_of(&graph, 0.95, DanglingPolicy::Keep)).unwrap();
    for (class, edits) in boundary_edits(&graph, s) {
        let edited = graph.apply_edits(&edits).expect("valid edits");
        let w_new = w_of(&edited, 0.95, DanglingPolicy::Keep);
        let mut dirty: Vec<Index> = edits.iter().map(|e| e.src()).collect();
        dirty.dedup();
        let full = sparse_lu(&w_new).unwrap();
        let new_start = n - dense_tail_columns(&full.l, Triangle::Lower).unwrap();
        assert_eq!(new_start != s as usize, class == "moves-s", "{class}: tail now at {new_start}");
        let two = InvertOptions { threads: 2 };
        let linv = sparsify_lower_unit_with(&full.l, 0.0, two).unwrap().inverse;
        let uinv = sparsify_upper_with(&full.u, 0.0, two).unwrap().inverse;
        let (patched, report) = refactor_columns(&old, &w_new, &dirty).unwrap();
        assert_factors_bit_identical(&patched, &full, class);
        for threads in [1usize, 2] {
            let options = InvertOptions { threads };
            let context = format!("{class} threads={threads}");
            let sides = [
                (&patched.l, Triangle::Lower, &report.changed_l_columns, &linv),
                (&patched.u, Triangle::Upper, &report.changed_u_columns, &uinv),
            ];
            let mut resolved = 0usize;
            for (factor, triangle, changed, inverse) in sides {
                let columns = inverse_dirty_columns(factor, changed);
                resolved += columns.len();
                let solved = sparsify_columns_with(factor, triangle, &columns, 0.0, options);
                for update in solved.unwrap().updates {
                    let (rows, vals) = inverse.col(update.col);
                    assert_eq!(update.rows, rows, "{context} {triangle:?} column {}", update.col);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&update.vals), bits(vals), "{context} {triangle:?} values");
                }
            }
            assert!(resolved > 0, "{context}: the edit dirtied no inverse column");
        }
    }
}

/// Two disjoint chorded rings: an edit in component A must neither
/// recompute nor change any factor column of component B (Natural
/// ordering keeps components contiguous, so the pin is a plain index
/// bound). This is the no-cross-contamination guarantee of the
/// dependency-DAG schedule — not just "the bits happen to agree" but
/// "the scheduler provably never visited them".
#[test]
fn two_component_edits_never_touch_the_other_component() {
    let (n_a, n_b) = (20usize, 26usize);
    let n = n_a + n_b;
    let mut b = GraphBuilder::new(n);
    for v in 0..n_a as NodeId {
        b.add_edge(v, ((v as usize + 1) % n_a) as NodeId, 1.0);
        if v % 3 == 0 {
            b.add_edge(v, ((v as usize + n_a / 2) % n_a) as NodeId, 0.5);
        }
    }
    for v in 0..n_b as NodeId {
        let off = n_a as NodeId;
        b.add_edge(off + v, off + ((v as usize + 1) % n_b) as NodeId, 1.0);
    }
    let graph = b.build().unwrap();
    let old = sparse_lu(&w_of(&graph, 0.95, DanglingPolicy::Keep)).unwrap();

    let edits = vec![
        EdgeEdit::Reweight { src: 2, dst: 3, weight: 3.0 },
        EdgeEdit::Insert { src: 5, dst: 11, weight: 0.75 },
    ];
    let edited = graph.apply_edits(&edits).unwrap();
    let w_new = w_of(&edited, 0.95, DanglingPolicy::Keep);
    let (incremental, report) = refactor_columns(&old, &w_new, &[2, 5]).unwrap();
    assert_factors_bit_identical(&incremental, &sparse_lu(&w_new).unwrap(), "two-component");

    assert!(report.recomputed_columns <= n_a, "schedule leaked into component B: {report:?}");
    assert!(
        report
            .changed_l_columns
            .iter()
            .chain(&report.changed_u_columns)
            .all(|&j| (j as usize) < n_a),
        "changed columns leaked into component B: {report:?}"
    );
    // And component B's stored bytes are literally the old allocations'
    // content: every B column of the spliced factors equals the old one.
    for j in n_a as Index..n as Index {
        let (or, ov) = old.u.col(j);
        let (nr, nv) = incremental.u.col(j);
        assert_eq!(or, nr, "U column {j} pattern moved");
        assert!(ov.iter().zip(nv).all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}

/// Engine level: a coalesced queue equals the pinned from-scratch
/// rebuild bit-for-bit (arrays, stats, estimator) and advances the
/// epoch by the queue length.
#[test]
fn coalesced_engine_apply_equals_pinned_rebuild() {
    let graph = erdos_renyi(48, 180, 99);
    let options = IndexOptions { ordering: NodeOrdering::Hybrid, ..Default::default() };
    let index = KdashIndex::build(&graph, options).unwrap();
    let perm = index.permutation().clone();
    let mut dynamic = DynamicIndex::new(index).unwrap();

    let mut rng = StdRng::seed_from_u64(4242);
    let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
    let (s1, d1) = edges[rng.gen_range(0..edges.len())];
    let mut fresh = (rng.gen_range(0..48u32), rng.gen_range(0..48u32));
    while fresh.0 == fresh.1 || edges.contains(&fresh) {
        fresh = (rng.gen_range(0..48u32), rng.gen_range(0..48u32));
    }
    let batches = vec![
        UpdateBatch::new(vec![EdgeEdit::Reweight { src: s1, dst: d1, weight: 2.5 }]).unwrap(),
        UpdateBatch::new(vec![
            EdgeEdit::Insert { src: fresh.0, dst: fresh.1, weight: 0.8 },
            EdgeEdit::Delete { src: s1, dst: d1 },
        ])
        .unwrap(),
        UpdateBatch::new(vec![EdgeEdit::Reweight { src: fresh.0, dst: fresh.1, weight: 1.1 }])
            .unwrap(),
    ];
    let report = dynamic.apply_coalesced(&batches).unwrap();
    assert_eq!(report.batches, 3);
    assert_eq!(dynamic.index().update_epoch(), 3);

    let mut edited = graph.clone();
    for batch in &batches {
        edited = edited.apply_edits(batch.edits()).unwrap();
    }
    let rebuilt = IndexBuilder::from_options(options).permutation(perm).build(&edited).unwrap();
    check_index_bit_identity(dynamic.index(), &rebuilt).expect("coalesced bit identity");
}
