//! Set-up: graph generation and index build, plus the staged replay that
//! times each build layer from outside.

use crate::trace::{Recorder, SpanId};
use crate::workloads::Workload;
use kdash_core::{
    compute_ordering_with_stats, BuildReport, IndexBuilder, KdashIndex, NodeOrdering,
};
use kdash_graph::CsrGraph;
use kdash_sparse::{
    sparse_lu_with, sparsify_lower_unit_with, sparsify_upper_with, transition_matrix, w_matrix,
    CsrMatrix, InvertOptions, ProximityStore,
};
use std::time::Instant;

/// Build and inversion workers: fixed, never `0 = auto`, so a run means
/// the same thing on a host with more cores.
pub const BUILD_THREADS: usize = 2;

pub struct Built {
    pub graph: CsrGraph,
    pub index: KdashIndex,
    pub report: BuildReport,
    /// Graph generation + index build, seconds.
    pub seconds: f64,
}

pub fn build(w: &Workload) -> Result<Built, String> {
    let start = Instant::now();
    let graph = w.graph.generate();
    let (index, report) = IndexBuilder::new()
        .ordering(NodeOrdering::Hybrid)
        .drop_tolerance(w.drop_tolerance)
        .threads(BUILD_THREADS)
        .build_with_report(&graph)
        .map_err(|e| format!("{}: index build failed: {e}", w.name))?;
    Ok(Built { graph, index, report, seconds: start.elapsed().as_secs_f64() })
}

/// What the staged replay measured, layer by layer.
pub struct Staged {
    pub ordering_s: f64,
    pub communities: usize,
    pub factor_s: f64,
    pub factor_nnz: usize,
    pub invert_s: f64,
    pub inverse_nnz: usize,
    pub dropped_l1_mass: f64,
    pub encode_s: f64,
}

/// Repeats the build as direct calls into `kdash-core::ordering` and
/// `kdash-sparse`, in pipeline order and with the pipeline's options, a
/// span around each. The index cannot be assembled from outside, so this
/// is a second build whose only product is the timings; its result sizes
/// must equal the real index's.
pub fn staged_replay(
    w: &Workload,
    built: &Built,
    rec: &mut Recorder,
    parent: SpanId,
) -> Result<Staged, String> {
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("{}: staged {stage}: {e}", w.name);
    let options = InvertOptions { threads: BUILD_THREADS };
    let c = built.index.restart_probability();

    let t = Instant::now();
    let (permuted, ordering) = rec.span("core.ordering", parent, 0, || {
        let (perm, stats) = compute_ordering_with_stats(&built.graph, NodeOrdering::Hybrid);
        (built.graph.permute(&perm), stats)
    });
    let permuted = permuted.map_err(|e| fail("ordering", &e))?;
    let ordering_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let factors = rec.span("sparse.lu", parent, 0, || {
        let a = transition_matrix(&permuted, built.index.dangling_policy());
        sparse_lu_with(&w_matrix(&a, c)?, options)
    });
    let factors = factors.map_err(|e| fail("factorization", &e))?;
    let factor_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let inverses = rec.span("sparse.inverse", parent, 0, || {
        let l = sparsify_lower_unit_with(&factors.l, w.drop_tolerance, options)?;
        let u = sparsify_upper_with(&factors.u, w.drop_tolerance, options)?;
        Ok::<_, kdash_sparse::SparseError>((l, u))
    });
    let (linv, uinv) = inverses.map_err(|e| fail("inversion", &e))?;
    let invert_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let store = rec.span("sparse.store", parent, 0, || {
        ProximityStore::from_csr(CsrMatrix::from_csc(&uinv.inverse), built.index.layout())
    });
    let store = store.map_err(|e| fail("store encode", &e))?;
    let encode_s = t.elapsed().as_secs_f64();

    let stats = built.index.stats();
    if (linv.inverse.nnz(), store.nnz(), factors.l.nnz(), factors.u.nnz())
        != (stats.nnz_l_inv, stats.nnz_u_inv, stats.nnz_l, stats.nnz_u)
    {
        return Err(format!(
            "{}: staged replay built a different index than the pipeline (inverse nnz {} + {} \
             vs {} + {})",
            w.name,
            linv.inverse.nnz(),
            store.nnz(),
            stats.nnz_l_inv,
            stats.nnz_u_inv
        ));
    }
    Ok(Staged {
        ordering_s,
        communities: ordering.communities.unwrap_or(0),
        factor_s,
        factor_nnz: factors.nnz(),
        invert_s,
        inverse_nnz: linv.inverse.nnz() + store.nnz(),
        dropped_l1_mass: linv.dropped.iter().chain(&uinv.dropped).sum(),
        encode_s,
    })
}
