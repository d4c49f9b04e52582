//! Tier-1 contract of the dynamic-update engine (`kdash-dynamic`):
//! applying an [`UpdateBatch`] to a built index is **bit-for-bit
//! equivalent** to rebuilding from scratch on the edited graph under the
//! index's frozen node order — index arrays (`L⁻¹` pointers/indices/value
//! bits, the `U⁻¹` proximity store with its blocked encoding and column
//! sums), estimator constants, nnz statistics, top-k items and
//! `SearchStats` alike.
//!
//! * Property: across ER/BA/RMAT × orderings × random edit batches
//!   (insert/delete/reweight mixes, applied over multiple epochs), the
//!   patched index passes `kdash_harness::check_index_bit_identity`
//!   against the pinned-permutation rebuild, and sampled queries agree
//!   exactly — items *and* stats.
//! * Exactness: after updates, top-k proximities match the iterative
//!   ground truth on the **edited** graph (freshness, not staleness).
//! * Reach pin: on a two-component graph, editing one component leaves
//!   every column of the other **byte-identical** and the reported dirty
//!   sets confined to the edited component — i.e. the engine provably
//!   did not fall back to a silent full rebuild.
//! * The dense tail: on an RMAT graph large enough for the build kernel
//!   to mirror one, batches whose dirty column lies in the sparse head,
//!   inside the tail, exactly at its first column, and one that moves
//!   that column all equal the pinned rebuild — the engine's refactor and
//!   re-solves run without a mirror, the rebuild runs with one.
//! * The update epoch counts batches and survives persistence.

use kdash_core::persist::{PersistError, Section};
use kdash_core::{IndexBuilder, IndexOptions, KdashIndex, NodeOrdering};
use kdash_datagen::{barabasi_albert, erdos_renyi, rmat, RmatParams};
use kdash_dynamic::{DynamicIndex, UpdateBatch};
use kdash_graph::{CsrGraph, EdgeEdit, GraphBuilder, NodeId};
use kdash_harness::{check_index_bit_identity, exact_top_k_scored};
use kdash_sparse::{dense_tail_columns, sparse_lu, transition_matrix, w_matrix, Triangle};
use proptest::prelude::*;
use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
use std::collections::HashSet;

fn graph_strategy() -> impl Strategy<Value = CsrGraph> {
    (0usize..3, 20usize..70, 1usize..4, any::<u64>()).prop_map(|(family, n, density, seed)| {
        match family {
            0 => erdos_renyi(n, n * (density + 1), seed),
            1 => barabasi_albert(n, density.min(n - 1).max(1), seed),
            _ => {
                let scale = 4 + (n % 3) as u32;
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

/// Generates a valid random batch against `graph` + the edits already
/// applied (tracked through an edge-set overlay so multi-batch sequences
/// stay valid), mixing inserts, deletes and reweights.
fn random_batch(
    graph: &CsrGraph,
    edges: &mut Vec<(NodeId, NodeId)>,
    edge_set: &mut HashSet<(NodeId, NodeId)>,
    rng: &mut StdRng,
) -> UpdateBatch {
    let n = graph.num_nodes() as NodeId;
    let len = rng.gen_range(1..=6usize);
    let mut edits = Vec::with_capacity(len);
    for _ in 0..len {
        let op = rng.gen_range(0..3u32);
        if op == 0 || edges.is_empty() {
            // Insert a fresh edge.
            let (mut src, mut dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let mut tries = 0;
            while edge_set.contains(&(src, dst)) && tries < 50 {
                src = rng.gen_range(0..n);
                dst = rng.gen_range(0..n);
                tries += 1;
            }
            if edge_set.contains(&(src, dst)) {
                continue; // dense corner: skip this edit
            }
            edge_set.insert((src, dst));
            edges.push((src, dst));
            edits.push(EdgeEdit::Insert { src, dst, weight: rng.gen_range(0.1..3.0) });
        } else if op == 1 {
            // Delete an existing edge.
            let at = rng.gen_range(0..edges.len());
            let (src, dst) = edges.swap_remove(at);
            edge_set.remove(&(src, dst));
            edits.push(EdgeEdit::Delete { src, dst });
        } else {
            // Reweight an existing edge.
            let &(src, dst) = edges.choose(rng).expect("non-empty edge list");
            edits.push(EdgeEdit::Reweight { src, dst, weight: rng.gen_range(0.1..3.0) });
        }
    }
    if edits.is_empty() {
        // Guarantee a non-trivial batch even in the dense corner.
        let &(src, dst) = edges.choose(rng).expect("non-empty edge list");
        edits.push(EdgeEdit::Reweight { src, dst, weight: rng.gen_range(0.1..3.0) });
    }
    UpdateBatch::new(edits).expect("generator emits valid weights")
}

/// Sampled queries must agree exactly — ranked items (ids + proximity
/// bits) and the full SearchStats record.
fn assert_queries_bit_identical(a: &KdashIndex, b: &KdashIndex, context: &str) {
    let n = a.num_nodes();
    for q in (0..n as NodeId).step_by((n / 5).max(1)) {
        for k in [1usize, 4, 10] {
            let ra = a.top_k(q, k).unwrap();
            let rb = b.top_k(q, k).unwrap();
            assert_eq!(ra.items.len(), rb.items.len(), "{context} q={q} k={k}");
            for (x, y) in ra.items.iter().zip(&rb.items) {
                assert_eq!(x.node, y.node, "{context} q={q} k={k}");
                assert_eq!(
                    x.proximity.to_bits(),
                    y.proximity.to_bits(),
                    "{context} q={q} k={k}"
                );
            }
            assert_eq!(ra.stats, rb.stats, "{context} q={q} k={k}");
        }
    }
    let sources = [0 as NodeId, (n as NodeId) / 2];
    let ra = a.searcher().top_k_from_set(&sources, 5).unwrap();
    let rb = b.searcher().top_k_from_set(&sources, 5).unwrap();
    assert_eq!(ra.items, rb.items, "{context} restart-set");
    assert_eq!(ra.stats, rb.stats, "{context} restart-set");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline property: incremental update ≡ pinned from-scratch
    /// rebuild, bit-identically, across graph families × orderings ×
    /// random edit batches — over two consecutive epochs.
    #[test]
    fn incremental_update_equals_pinned_rebuild(
        (graph, ord_sel, edit_seed) in (graph_strategy(), any::<u32>(), any::<u64>())
    ) {
        let ordering = ORDERINGS[ord_sel as usize % ORDERINGS.len()];
        let options = IndexOptions { ordering, ..Default::default() };
        let index = KdashIndex::build(&graph, options).unwrap();
        let perm = index.permutation().clone();
        let mut dynamic = DynamicIndex::new(index).unwrap();

        let mut rng = StdRng::seed_from_u64(edit_seed);
        let mut edges: Vec<(NodeId, NodeId)> =
            graph.edges().map(|(s, d, _)| (s, d)).collect();
        let mut edge_set: HashSet<(NodeId, NodeId)> = edges.iter().copied().collect();
        let mut edited = graph.clone();
        for epoch in 1..=2u64 {
            let batch = random_batch(&edited, &mut edges, &mut edge_set, &mut rng);
            let report = dynamic.apply(&batch).unwrap();
            prop_assert_eq!(report.edits, batch.len());
            prop_assert_eq!(dynamic.index().update_epoch(), epoch);
            edited = edited.apply_edits(batch.edits()).unwrap();

            let rebuilt = IndexBuilder::from_options(options)
                .permutation(perm.clone())
                .build(&edited)
                .unwrap();
            if let Err(msg) = check_index_bit_identity(dynamic.index(), &rebuilt) {
                prop_assert!(false, "{:?} epoch {} seed {}: {}",
                    ordering, epoch, edit_seed, msg);
            }
            assert_queries_bit_identical(
                dynamic.index(),
                &rebuilt,
                &format!("{ordering:?} epoch {epoch} seed {edit_seed}"),
            );
        }
    }

    /// Freshness: after updates the index answers for the *edited* graph,
    /// exactly (vs the iterative ground truth), never the stale one.
    #[test]
    fn updated_index_is_exact_on_the_edited_graph(
        (graph, edit_seed) in (graph_strategy(), any::<u64>())
    ) {
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let mut dynamic = DynamicIndex::new(index).unwrap();
        let mut rng = StdRng::seed_from_u64(edit_seed);
        let mut edges: Vec<(NodeId, NodeId)> =
            graph.edges().map(|(s, d, _)| (s, d)).collect();
        let mut edge_set: HashSet<(NodeId, NodeId)> = edges.iter().copied().collect();
        let batch = random_batch(&graph, &mut edges, &mut edge_set, &mut rng);
        dynamic.apply(&batch).unwrap();
        let edited = graph.apply_edits(batch.edits()).unwrap();
        let n = edited.num_nodes();
        for q in (0..n as NodeId).step_by((n / 3).max(1)) {
            let k = 6.min(n);
            let got = dynamic.index().top_k(q, k).unwrap();
            let want = exact_top_k_scored(&edited, 0.95, q, k);
            prop_assert_eq!(got.items.len(), want.len());
            for (g, w) in got.items.iter().zip(&want) {
                prop_assert!((g.proximity - w.1).abs() < 1e-9,
                    "q={} seed={}: {} vs {}", q, edit_seed, g.proximity, w.1);
            }
        }
    }
}

/// The boundary the engine crosses without knowing it is there: the
/// build's factorisation and inversions solve the trailing columns of the
/// factor as a mirrored dense tail, the engine's refactor and re-solves
/// (few columns, no mirror) do not — and a patched index must still equal
/// the rebuild byte for byte, whichever side of the tail's first column
/// `s` the batch dirties, at one worker and at two.
#[test]
fn updates_on_every_side_of_the_dense_tail_equal_the_pinned_rebuild() {
    // The fixture of `tests/incremental_lu_equivalence.rs`.
    let graph = rmat(10, 4096, RmatParams::default(), 33);
    let options = IndexOptions { ordering: NodeOrdering::Hybrid, ..Default::default() };
    let index = IndexBuilder::from_options(options).threads(2).build(&graph).unwrap();
    let perm = index.permutation().clone();
    let permuted = index.permuted_graph().clone();
    let n = permuted.num_nodes() as NodeId;
    let a = transition_matrix(&permuted, index.dangling_policy());
    let l = sparse_lu(&w_matrix(&a, index.restart_probability()).unwrap()).unwrap().l;
    let tail = dense_tail_columns(&l, Triangle::Lower).unwrap() as NodeId;
    assert!((64..n / 2).contains(&tail), "fixture tail is {tail} columns");
    let s = n - tail;

    // Edits by the `W` column they dirty (an edge's source), in permuted
    // ids; the engine takes original ones.
    let two_out_edges = |mut range: std::ops::Range<NodeId>| {
        range.find(|&v| permuted.out_degree(v) > 1).expect("fixture has edges on both sides")
    };
    let touch = |src: NodeId, dst: NodeId| match permuted.has_edge(src, dst) {
        true => EdgeEdit::Reweight { src: perm.old_of(src), dst: perm.old_of(dst), weight: 1.75 },
        false => EdgeEdit::Insert { src: perm.old_of(src), dst: perm.old_of(dst), weight: 0.5 },
    };
    let first_edge = |src: NodeId| {
        touch(src, permuted.out_edges(src).next().expect("has out-edges").0)
    };
    let fill = (s..n).filter(|&dst| !permuted.has_edge(s - 1, dst));
    let classes = [
        ("head", vec![first_edge(two_out_edges(0..s - 1))]),
        ("tail", vec![first_edge(two_out_edges(s + 1..n))]),
        ("at-s", vec![touch(s, n - 1)]),
        ("moves-s", fill.map(|dst| touch(s - 1, dst)).collect()),
    ];
    for (class, edits) in classes {
        let batch = UpdateBatch::new(edits).expect("valid weights");
        let edited = graph.apply_edits(batch.edits()).unwrap();
        let rebuilt = IndexBuilder::from_options(options)
            .permutation(perm.clone())
            .threads(2)
            .build(&edited)
            .unwrap();
        for threads in [1usize, 2] {
            let context = format!("{class} threads={threads}");
            let mut dynamic = DynamicIndex::new(index.clone()).unwrap().threads(threads);
            let report = dynamic.apply(&batch).unwrap();
            assert_eq!(report.edits, batch.len(), "{context}");
            if let Err(msg) = check_index_bit_identity(dynamic.index(), &rebuilt) {
                panic!("{context}: {msg}");
            }
            assert_queries_bit_identical(dynamic.index(), &rebuilt, &context);
        }
    }
}

/// Two disjoint chorded rings in one graph (Natural ordering keeps the
/// components contiguous in permuted space).
fn two_components(n_a: usize, n_b: usize) -> CsrGraph {
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
        if v % 4 == 0 {
            b.add_edge(off + v, off + ((v as usize + n_b / 3) % n_b) as NodeId, 0.25);
        }
    }
    b.build().unwrap()
}

/// The no-silent-full-rebuild pin: edits confined to one component must
/// leave every inverse column of the other **byte-identical**, and the
/// reported dirty sets must stay inside the edited component — the reach
/// bound is real, not a full recompute wearing a hat.
#[test]
fn reach_untouched_columns_are_byte_identical() {
    let (n_a, n_b) = (24usize, 30usize);
    let graph = two_components(n_a, n_b);
    let options = IndexOptions { ordering: NodeOrdering::Natural, ..Default::default() };
    let index = KdashIndex::build(&graph, options).unwrap();
    let before = index.clone();
    let mut dynamic = DynamicIndex::new(index).unwrap();

    let batch = UpdateBatch::new(vec![
        EdgeEdit::Insert { src: 2, dst: 17, weight: 2.0 },
        EdgeEdit::Reweight { src: 0, dst: 1, weight: 4.0 },
        EdgeEdit::Delete { src: 3, dst: 4 },
    ])
    .unwrap();
    let report = dynamic.apply(&batch).unwrap();

    // Dirty sets confined to component A (permuted ids == original ids
    // under the Natural ordering), and strictly below the full dimension.
    assert!(report.dirty_linv_columns <= n_a, "L⁻¹ dirt leaked: {report:?}");
    assert!(report.dirty_uinv_columns <= n_a, "U⁻¹ dirt leaked: {report:?}");
    assert!(report.dirty_uinv_rows <= n_a, "row splice leaked: {report:?}");
    assert!(
        report.dirty_linv_columns < report.num_columns,
        "a silent full rebuild would re-solve every column"
    );

    // Every component-B column of L⁻¹ and row of U⁻¹ is byte-identical.
    let after = dynamic.index();
    let rows_before = before.uinv_rows().to_csr();
    let rows_after = after.uinv_rows().to_csr();
    for q in n_a as NodeId..(n_a + n_b) as NodeId {
        let (ri, vi) = before.linv_cols().col(q);
        let (rj, vj) = after.linv_cols().col(q);
        assert_eq!(ri, rj, "L⁻¹ column {q} pattern changed");
        for (x, y) in vi.iter().zip(vj) {
            assert_eq!(x.to_bits(), y.to_bits(), "L⁻¹ column {q} value changed");
        }
        assert_eq!(rows_before.row(q).0, rows_after.row(q).0, "U⁻¹ row {q} pattern changed");
        let (_, vb) = rows_before.row(q);
        let (_, va) = rows_after.row(q);
        for (x, y) in vb.iter().zip(va) {
            assert_eq!(x.to_bits(), y.to_bits(), "U⁻¹ row {q} value changed");
        }
    }

    // And component-B answers are untouched while component-A answers
    // moved with the graph (freshness on the edited side).
    let q_b = (n_a + 3) as NodeId;
    assert_eq!(
        before.top_k(q_b, 5).unwrap().items,
        after.top_k(q_b, 5).unwrap().items,
        "component B answers must be stable"
    );
    let edited = graph.apply_edits(batch.edits()).unwrap();
    let want = exact_top_k_scored(&edited, 0.95, 0, 5);
    let got = after.top_k(0, 5).unwrap();
    for (g, w) in got.items.iter().zip(&want) {
        assert!((g.proximity - w.1).abs() < 1e-9, "stale component-A answer");
    }
}

/// The epoch is a batch counter and survives persistence (format v3).
#[test]
fn update_epoch_counts_batches_and_persists() {
    let graph = two_components(12, 10);
    let index =
        KdashIndex::build(&graph, IndexOptions { ordering: NodeOrdering::Natural, ..Default::default() })
            .unwrap();
    assert_eq!(index.update_epoch(), 0);
    let mut dynamic = DynamicIndex::new(index).unwrap();
    for (epoch, edit) in [
        EdgeEdit::Insert { src: 0, dst: 5, weight: 1.0 },
        EdgeEdit::Delete { src: 0, dst: 5 },
        EdgeEdit::Reweight { src: 1, dst: 2, weight: 2.0 },
    ]
    .into_iter()
    .enumerate()
    {
        dynamic.apply(&UpdateBatch::new(vec![edit]).unwrap()).unwrap();
        assert_eq!(dynamic.index().update_epoch(), epoch as u64 + 1);
    }
    let patched = dynamic.into_index();
    let mut buf = Vec::new();
    patched.save(&mut buf).unwrap();
    let loaded = KdashIndex::load(buf.as_slice()).unwrap();
    assert_eq!(loaded.update_epoch(), 3, "epoch must survive a save/load round trip");
    assert_eq!(
        loaded.top_k(1, 5).unwrap().items,
        patched.top_k(1, 5).unwrap().items,
        "reloaded patched index answers identically"
    );
    // A reloaded index re-attaches (refactorises) and keeps updating.
    let mut reattached = DynamicIndex::new(loaded).unwrap();
    reattached
        .apply(&UpdateBatch::new(vec![EdgeEdit::Reweight { src: 1, dst: 2, weight: 1.0 }]).unwrap())
        .unwrap();
    assert_eq!(reattached.index().update_epoch(), 4);
}

/// The dangling-policy plumbing: under `DanglingPolicy::SelfLoop`,
/// incremental updates renormalise edited columns exactly as the build
/// did — including a delete that strips a node's last out-edge (the
/// node becomes dangling and SelfLoop must inject its waiting
/// self-loop) — and the result still equals the pinned rebuild
/// bit-for-bit.
#[test]
fn self_loop_dangling_policy_updates_match_rebuild() {
    let mut b = GraphBuilder::new(16);
    for v in 0..16u32 {
        b.add_edge(v, (v + 1) % 16, 1.0);
    }
    b.add_edge(3, 9, 0.5); // node 3 has two out-edges
    let graph = b.build().unwrap();
    let options = IndexOptions {
        ordering: NodeOrdering::Degree,
        dangling: kdash_sparse::DanglingPolicy::SelfLoop,
        ..Default::default()
    };
    let index = KdashIndex::build(&graph, options).unwrap();
    let perm = index.permutation().clone();
    let mut dynamic = DynamicIndex::new(index).unwrap();
    // Strip node 5's only out-edge: it dangles, and only SelfLoop keeps
    // its walk mass in place.
    let batch = UpdateBatch::new(vec![
        EdgeEdit::Delete { src: 5, dst: 6 },
        EdgeEdit::Reweight { src: 3, dst: 9, weight: 2.0 },
    ])
    .unwrap();
    dynamic.apply(&batch).unwrap();
    let edited = graph.apply_edits(batch.edits()).unwrap();
    assert_eq!(edited.num_dangling(), 1);
    let rebuilt = IndexBuilder::from_options(options).permutation(perm).build(&edited).unwrap();
    check_index_bit_identity(dynamic.index(), &rebuilt).expect("SelfLoop bit identity");
    assert_queries_bit_identical(dynamic.index(), &rebuilt, "self-loop dangling");
    // Exactness on the edited graph under SelfLoop semantics: total mass
    // is conserved (the dangling node waits in place).
    let p: f64 = dynamic.index().full_proximities(0).unwrap().iter().sum();
    assert!((p - 1.0).abs() < 1e-9, "SelfLoop must conserve mass, got {p}");
}

/// An index whose stored inverses were built under `SelfLoop` but whose
/// recorded policy says `Keep` — a file whose trailer was rewritten and
/// re-signed. The loader refuses it (the estimator section holds
/// `SelfLoop`'s constants, the graph under `Keep` derives others); with
/// that section rewritten to match as well, only the inverses still say
/// `SelfLoop`, and the attach-time consistency probe rejects the index
/// instead of silently serving mixed-normalisation updates.
#[test]
fn attach_rejects_mismatched_dangling_policy() {
    let mut b = GraphBuilder::new(8);
    b.add_edge(0, 1, 1.0);
    b.add_edge(1, 2, 1.0); // nodes 2..7 dangle
    let graph = b.build().unwrap();
    let index = KdashIndex::build(
        &graph,
        IndexOptions { dangling: kdash_sparse::DanglingPolicy::SelfLoop, ..Default::default() },
    )
    .unwrap();
    // Rewrite the trailer's policy tag to `Keep` and re-sign the file.
    // Its tail is trailer payload (tag + epoch, 9 bytes), trailer CRC (4),
    // footer (magic 8 + whole-file CRC 4).
    let mut bytes = Vec::new();
    let marks = index.save_with_section_offsets(&mut bytes).unwrap();
    let n = bytes.len();
    bytes[n - 25] = 0;
    let trailer_crc = kdash_core::persist::crc32(&bytes[n - 25..n - 16]);
    bytes[n - 16..n - 12].copy_from_slice(&trailer_crc.to_le_bytes());
    let sign = |bytes: &mut Vec<u8>| {
        let file_crc = kdash_core::persist::crc32(&bytes[..n - 12]);
        bytes[n - 4..].copy_from_slice(&file_crc.to_le_bytes());
    };
    sign(&mut bytes);
    assert!(matches!(
        KdashIndex::load(bytes.as_slice()),
        Err(PersistError::Corrupt { section: Section::Estimator, .. })
    ));
    // The estimator section (payload and CRC) of the same graph built
    // under `Keep`: the ordering does not look at the policy, so it is
    // what the loader derives.
    let keep = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
    let mut keep_bytes = Vec::new();
    let keep_marks = keep.save_with_section_offsets(&mut keep_bytes).unwrap();
    let estimator = |marks: &[(&str, u64)]| {
        let end_of = |name| marks.iter().find(|m| m.0 == name).unwrap().1 as usize;
        end_of("row-stats")..end_of("estimator")
    };
    bytes[estimator(&marks)].copy_from_slice(&keep_bytes[estimator(&keep_marks)]);
    sign(&mut bytes);
    let loaded = KdashIndex::load(bytes.as_slice()).unwrap();
    assert_eq!(loaded.dangling_policy(), kdash_sparse::DanglingPolicy::Keep);
    let err = DynamicIndex::new(loaded).unwrap_err();
    assert!(
        matches!(err, kdash_core::KdashError::Sparse(_)),
        "mismatched policy must fail the attach probe, got {err:?}"
    );
    // The same index under the current format records the policy and
    // attaches fine.
    let mut v3 = Vec::new();
    index.save(&mut v3).unwrap();
    let reloaded = KdashIndex::load(v3.as_slice()).unwrap();
    assert!(DynamicIndex::new(reloaded).is_ok());
}

/// Engine-level error surface: unknown nodes and absent edges are typed
/// errors in original id space and leave the index untouched at epoch 0.
#[test]
fn invalid_batches_are_typed_errors() {
    let graph = two_components(10, 8);
    let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
    let mut dynamic = DynamicIndex::new(index).unwrap();
    let err = dynamic
        .apply(&UpdateBatch::new(vec![EdgeEdit::Delete { src: 0, dst: 9 }]).unwrap())
        .unwrap_err();
    assert!(
        matches!(
            err,
            kdash_core::KdashError::Graph(kdash_graph::GraphError::EdgeNotFound {
                src: 0,
                dst: 9
            })
        ),
        "{err:?}"
    );
    let err = dynamic
        .apply(&UpdateBatch::new(vec![EdgeEdit::Insert { src: 99, dst: 0, weight: 1.0 }]).unwrap())
        .unwrap_err();
    assert!(matches!(err, kdash_core::KdashError::NodeOutOfBounds { node: 99, .. }), "{err:?}");
    assert_eq!(dynamic.index().update_epoch(), 0);
}
