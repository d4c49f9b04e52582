//! Tier-1 determinism pin for the parallel build pipeline.
//!
//! The inversion stage fans independent Gilbert–Peierls column solves out
//! over a work-stealing cursor — `U⁻¹`'s chunks claimed heavy-first, in
//! descending column order; the contract is that the gathered `L⁻¹` /
//! `U⁻¹` are **byte-identical** to the sequential inversion at every
//! thread count — same nnz, same index arrays, same value bits — on every
//! graph family, exact or sparsified, for every column or a subset.
//! A scheduling-dependent result here would silently break index
//! persistence, replication, and the exactness guarantees downstream, so
//! this suite runs in tier-1.

use kdash_core::{IndexBuilder, IndexOptions, NodeOrdering};
use kdash_datagen::{barabasi_albert, erdos_renyi, rmat, RmatParams};
use kdash_graph::CsrGraph;
use kdash_sparse::{
    invert_columns_with, invert_lower_unit, invert_lower_unit_with, invert_upper,
    invert_upper_with, sparse_lu, sparsify_upper_with, transition_matrix, w_matrix, CscMatrix,
    DanglingPolicy, Index, InvertOptions, Triangle,
};

fn test_graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("er", erdos_renyi(300, 1200, 11)),
        ("ba", barabasi_albert(300, 3, 12)),
        ("rmat", rmat(9, 2048, RmatParams::default(), 13)),
    ]
}

fn assert_csc_bytes_equal(label: &str, seq: &CscMatrix, par: &CscMatrix) {
    let (sp, si, sv) = seq.raw();
    let (pp, pi, pv) = par.raw();
    assert_eq!(seq.nnz(), par.nnz(), "{label}: nnz differs");
    assert_eq!(sp, pp, "{label}: col_ptr differs");
    assert_eq!(si, pi, "{label}: row indices differ");
    assert_eq!(sv.len(), pv.len(), "{label}: value count differs");
    for (i, (a, b)) in sv.iter().zip(pv).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: value {i} differs: {a} vs {b}");
    }
}

/// The sparse-kernel contract: parallel inversion of real LU factors is
/// byte-identical to the sequential inversion.
#[test]
fn parallel_inversion_matches_sequential_on_lu_factors() {
    for (name, graph) in test_graphs() {
        let a = transition_matrix(&graph, DanglingPolicy::Keep);
        let w = w_matrix(&a, 0.95).expect("valid restart probability");
        let factors = sparse_lu(&w).expect("W is diagonally dominant");
        let linv_seq = invert_lower_unit(&factors.l).expect("sequential L inverse");
        let uinv_seq = invert_upper(&factors.u).expect("sequential U inverse");
        for threads in [2usize, 3, 0] {
            let opts = InvertOptions { threads };
            let linv_par = invert_lower_unit_with(&factors.l, opts).expect("parallel L inverse");
            let uinv_par = invert_upper_with(&factors.u, opts).expect("parallel U inverse");
            assert_csc_bytes_equal(&format!("{name} L⁻¹ threads={threads}"), &linv_seq, &linv_par);
            assert_csc_bytes_equal(&format!("{name} U⁻¹ threads={threads}"), &uinv_seq, &uinv_par);
        }
    }
}

/// The descending claim order on its other two routes: a sparsified
/// `U⁻¹` (the value-driven worklist solve) and a re-solved column subset
/// carry the sequential bytes and dropped masses at every thread count.
#[test]
fn heavy_first_claims_keep_sparsified_and_subset_inversions_sequential() {
    for (name, graph) in test_graphs() {
        let a = transition_matrix(&graph, DanglingPolicy::Keep);
        let w = w_matrix(&a, 0.95).expect("valid restart probability");
        let u = sparse_lu(&w).expect("W is diagonally dominant").u;
        let sparse_seq = sparsify_upper_with(&u, 1e-4, InvertOptions::sequential()).unwrap();
        let uinv_seq = invert_upper(&u).expect("sequential U inverse");
        let subset: Vec<Index> = (0..u.ncols() as Index).filter(|j| j % 3 != 0).collect();
        for threads in [2usize, 3, 0] {
            let opts = InvertOptions { threads };
            let label = format!("{name} threads={threads}");
            let sparse_par = sparsify_upper_with(&u, 1e-4, opts).expect("parallel sparsify");
            assert_csc_bytes_equal(&label, &sparse_seq.inverse, &sparse_par.inverse);
            let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sparse_seq.dropped), bits(&sparse_par.dropped), "{label}: masses");
            let updates = invert_columns_with(&u, Triangle::Upper, false, &subset, opts).unwrap();
            assert_eq!(updates.len(), subset.len(), "{label}");
            for update in &updates {
                let (rows, vals) = uinv_seq.col(update.col);
                assert_eq!(update.rows, rows, "{label}: column {}", update.col);
                assert_eq!(bits(&update.vals), bits(vals), "{label}: column {}", update.col);
            }
        }
    }
}

/// The end-to-end contract: `IndexBuilder` at threads ∈ {1, 2, auto}
/// produces byte-identical stored inverses and identical nnz stats, for
/// every ordering family the paper evaluates.
#[test]
fn staged_build_is_thread_count_invariant() {
    for (name, graph) in test_graphs() {
        for ordering in [NodeOrdering::Natural, NodeOrdering::Degree, NodeOrdering::Hybrid] {
            let options = IndexOptions { ordering, ..Default::default() };
            let baseline = IndexBuilder::from_options(options).threads(1).build(&graph).unwrap();
            for threads in [2usize, 0] {
                let built =
                    IndexBuilder::from_options(options).threads(threads).build(&graph).unwrap();
                let label = format!("{name} {ordering:?} threads={threads}");
                assert_csc_bytes_equal(
                    &format!("{label} L⁻¹"),
                    baseline.linv_cols(),
                    built.linv_cols(),
                );
                assert_csc_bytes_equal(
                    &format!("{label} U⁻¹"),
                    &baseline.uinv_rows().to_csc(),
                    &built.uinv_rows().to_csc(),
                );
                assert_eq!(baseline.stats().nnz_l_inv, built.stats().nnz_l_inv, "{label}");
                assert_eq!(baseline.stats().nnz_u_inv, built.stats().nnz_u_inv, "{label}");
                assert_eq!(
                    baseline.stats().inverse_heap_bytes,
                    built.stats().inverse_heap_bytes,
                    "{label}"
                );
            }
        }
    }
}

/// Top-k answers (the user-visible surface) carry the same bit-exactness
/// across thread counts.
#[test]
fn queries_are_bit_identical_across_thread_counts() {
    let graph = rmat(9, 2048, RmatParams::default(), 21);
    let sequential = IndexBuilder::new().threads(1).build(&graph).unwrap();
    let parallel = IndexBuilder::new().threads(0).build(&graph).unwrap();
    for q in (0..graph.num_nodes() as u32).step_by(97) {
        let a = sequential.top_k(q, 10).unwrap();
        let b = parallel.top_k(q, 10).unwrap();
        assert_eq!(a.nodes(), b.nodes(), "query {q}");
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x.proximity.to_bits(), y.proximity.to_bits(), "query {q}");
        }
        assert_eq!(a.stats, b.stats, "query {q}: search statistics must agree");
    }
}
