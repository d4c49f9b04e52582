//! The blocked-layout contract: re-encoding the stored `U⁻¹` from flat
//! CSR into the blocked (u32 anchor + u16 delta) layout changes *memory
//! traffic*, never *answers* — the gather kernel reads both encodings in
//! place and performs the same operations in the same order.
//!
//! * Property: across ER/BA/RMAT × orderings × every host kernel ×
//!   top-k / restart-set / random-root queries,
//!   flat and blocked runs are **bit-identical** in items and agree on
//!   every stat except the (layout-defined) index-byte counter — the
//!   shared checker lives in `kdash_harness::check_layout_equivalence`.
//! * The aggregate index-byte reduction on fill-dominated inverses is
//!   pinned at ≥ 25 % (the acceptance number; single-block matrices sit
//!   near 50 %).
//! * The gather stats (row split, bytes, resolved kernel) replay exactly
//!   and attribute every computed proximity to one kernel class.

use kdash_core::{GatherKernel, IndexOptions, KdashIndex, NodeOrdering, RowLayout, Searcher};
use kdash_datagen::{barabasi_albert, erdos_renyi, rmat, RmatParams};
use kdash_graph::NodeId;
use kdash_harness::check_layout_equivalence;
use proptest::prelude::*;

fn graph_strategy() -> impl Strategy<Value = kdash_graph::CsrGraph> {
    (0usize..3, 16usize..80, 1usize..5, any::<u64>()).prop_map(|(family, n, density, seed)| {
        match family {
            0 => erdos_renyi(n, n * density, seed),
            1 => barabasi_albert(n, density.min(n - 1).max(1), seed),
            _ => {
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

/// Every kernel selection this host can resolve.
fn host_kernels() -> Vec<GatherKernel> {
    GatherKernel::ALL.into_iter().filter(|k| k.resolve().is_ok()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flat vs blocked: bit-identical top-k, restart-set and random-root
    /// results and matching stats under every kernel.
    #[test]
    fn layouts_are_bit_identical_across_kernels((graph, q_sel, k_sel, which) in
        (graph_strategy(), any::<u32>(), 1usize..10, 0usize..4)) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let flat = KdashIndex::build(&graph, IndexOptions {
            ordering: ordering_for(which),
            layout: RowLayout::Flat,
            ..Default::default()
        }).unwrap();
        // One expensive build; the blocked twin is a re-encoding of it —
        // also exactly what `with_layout` promises to preserve.
        let blocked = flat.with_layout(RowLayout::Blocked);
        prop_assert_eq!(blocked.layout(), RowLayout::Blocked);
        prop_assert_eq!(flat.stats().nnz_u_inv, blocked.stats().nnz_u_inv);

        let sources = [q, (q + 1) % n as NodeId];
        let root = (q + 2) % n as NodeId;
        for kernel in host_kernels() {
            let mut sf = Searcher::with_kernel(&flat, kernel).unwrap();
            let mut sb = Searcher::with_kernel(&blocked, kernel).unwrap();
            let runs = [
                ("top_k", sf.top_k(q, k_sel).unwrap(), sb.top_k(q, k_sel).unwrap()),
                (
                    "from_set",
                    sf.top_k_from_set(&sources, k_sel).unwrap(),
                    sb.top_k_from_set(&sources, k_sel).unwrap(),
                ),
                (
                    "random_root",
                    sf.top_k_from_root(q, k_sel, root).unwrap(),
                    sb.top_k_from_root(q, k_sel, root).unwrap(),
                ),
                (
                    "unpruned",
                    sf.top_k_unpruned(q, k_sel).unwrap(),
                    sb.top_k_unpruned(q, k_sel).unwrap(),
                ),
            ];
            for (label, f_res, b_res) in runs {
                if let Err(msg) = check_layout_equivalence(&f_res, &b_res) {
                    prop_assert!(false, "{} kernel {} n={} q={} k={}: {}",
                        label, kernel, n, q, k_sel, msg);
                }
            }
        }
    }
}

/// The acceptance pin: on fill-dominated triangular inverses the blocked
/// layout cuts aggregate index bytes by at least 25 % against flat CSR's
/// 4 bytes/nnz (on sub-65 536-node matrices every non-empty row is a
/// single run, so the cut approaches 50 %).
#[test]
fn blocked_layout_cuts_index_bytes_by_a_quarter() {
    for (label, graph) in [
        ("rmat-9", rmat(9, 2048, RmatParams::default(), 7)),
        ("ba-400", barabasi_albert(400, 4, 11)),
        ("er-300", erdos_renyi(300, 1500, 13)),
    ] {
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        assert_eq!(index.layout(), RowLayout::Blocked, "{label}: blocked is the default");
        let nnz = index.stats().nnz_u_inv;
        let flat_bytes = 4 * nnz;
        let blocked_bytes = index.stats().uinv_index_bytes;
        assert!(
            (blocked_bytes as f64) <= 0.75 * flat_bytes as f64,
            "{label}: blocked {blocked_bytes} B vs flat {flat_bytes} B \
             ({:.1}% — needs >= 25% reduction)",
            100.0 * (1.0 - blocked_bytes as f64 / flat_bytes as f64)
        );
        // And the flat twin reports exactly the flat accounting.
        let flat = index.with_layout(RowLayout::Flat);
        assert_eq!(flat.stats().uinv_index_bytes, flat_bytes, "{label}");
    }
}

/// The machine-independence pin for the whole search: the gather stats
/// are a function of the index and the query alone — repeated runs on one
/// reused workspace agree exactly (no host or leftover column state
/// involved), and every computed proximity is attributed to exactly one
/// kernel class.
#[test]
fn row_split_is_a_pure_function_of_index_and_query() {
    let graph = rmat(9, 2048, RmatParams::default(), 3);
    let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
    let mut searcher = index.searcher();
    let resolved = GatherKernel::Auto.resolve().unwrap().name();
    for q in (0..graph.num_nodes() as NodeId).step_by(97) {
        let first = searcher.top_k(q, 10).unwrap();
        let again = searcher.top_k(q, 10).unwrap();
        assert_eq!(first.stats, again.stats, "q {q}: replay must agree exactly");
        assert_eq!(
            (first.stats.rows_scalar, first.stats.rows_wide),
            (0, first.stats.proximity_computations),
            "q {q}: the default kernel gathers every row through the lanes"
        );
        assert_eq!(first.stats.value_bytes_touched, 8 * first.stats.nnz_gathered, "q {q}");
        assert_eq!(first.stats.kernel, resolved, "q {q}: resolution recorded");
    }
}
