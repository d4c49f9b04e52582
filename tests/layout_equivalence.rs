//! The blocked encoding's contract beyond answers (which
//! `tests/kernel_equivalence.rs` pins row by row against the CSR form):
//!
//! * The aggregate index-byte reduction on fill-dominated inverses is
//!   pinned at ≥ 25 % against flat CSR's 4 bytes per entry (the acceptance
//!   number; single-block matrices sit near 50 %).
//! * The gather stats (row split, bytes, resolved kernel) replay exactly
//!   and attribute every computed proximity to one kernel class.

use kdash_core::{IndexOptions, KdashIndex, ResolvedKernel};
use kdash_datagen::{barabasi_albert, erdos_renyi, rmat, RmatParams};
use kdash_graph::NodeId;

/// The acceptance pin: on fill-dominated triangular inverses the blocked
/// encoding cuts aggregate index bytes by at least 25 % against flat CSR's
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
        let nnz = index.stats().nnz_u_inv;
        let flat_bytes = 4 * nnz;
        let blocked_bytes = index.stats().uinv_index_bytes;
        assert!(
            (blocked_bytes as f64) <= 0.75 * flat_bytes as f64,
            "{label}: blocked {blocked_bytes} B vs flat {flat_bytes} B \
             ({:.1}% — needs >= 25% reduction)",
            100.0 * (1.0 - blocked_bytes as f64 / flat_bytes as f64)
        );
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
    let resolved = ResolvedKernel::default().name();
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
