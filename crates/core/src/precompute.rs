//! Index construction (§4.2 of the paper).
//!
//! Builds everything a query needs: the reordering permutation, the
//! permuted graph (for BFS), the sparse triangular inverses `L⁻¹` / `U⁻¹`,
//! and what the one constructor, [`KdashIndex::assemble`], derives from
//! the graph itself: the estimator's `A_max`, `A_max(v)` and per-node `c'`
//! factors, the out-weight sums and the reach anchor.

use crate::estimator::BoundConstants;
use crate::{IndexBuilder, IndexStats, KdashError, NodeOrdering, Result};
use kdash_graph::{BfsTree, CsrGraph, NodeId, Permutation};
use kdash_sparse::{CscMatrix, DanglingPolicy, ProximityStore, RowLayout, SparseError};
use std::cmp::Reverse;

/// Index construction options. Defaults follow the paper's evaluation:
/// hybrid reordering, `c = 0.95`, dangling nodes kept as-is.
#[derive(Debug, Clone, Copy)]
pub struct IndexOptions {
    /// Node reordering applied before LU (Figure 5/6 variable).
    pub ordering: NodeOrdering,
    /// Restart probability `c` (the paper uses 0.95 throughout).
    pub restart_probability: f64,
    /// Treatment of nodes without out-edges.
    pub dangling: DanglingPolicy,
    /// Drop tolerance `ε` for the stored inverses: entries of `L⁻¹`/`U⁻¹`
    /// below `ε` in magnitude are truncated *during* inversion (before
    /// they propagate), shrinking the index far below the dense-exact
    /// wall. Queries stay **exact**: the per-column dropped ℓ₁ masses are
    /// recorded and every answer on a sparsified index passes through the
    /// certified residual-refinement loop, which repairs and proves the
    /// top-k set and order. `0.0` (the default) keeps the classic
    /// dense-exact index bit-for-bit.
    pub drop_tolerance: f64,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            ordering: NodeOrdering::Hybrid,
            restart_probability: 0.95,
            dangling: DanglingPolicy::Keep,
            drop_tolerance: 0.0,
        }
    }
}

/// The precomputed K-dash index: everything needed to answer exact top-k
/// RWR queries without touching the original graph again.
///
/// All internal state lives in *permuted* node ids; the public API
/// translates at the boundary, so callers only ever see original ids.
///
/// Immutable once constructed: a build, a load and an update
/// ([`patched`](Self::patched)) each produce a *new* index through the
/// same validated constructor, so an `Arc<KdashIndex>` can be shared
/// between an update engine and any number of readers.
#[derive(Debug, Clone)]
pub struct KdashIndex {
    c: f64,
    ordering: NodeOrdering,
    /// Dangling-node treatment the transition matrix was built with —
    /// recorded so incremental updates renormalise edited columns the
    /// same way a rebuild would.
    dangling: DanglingPolicy,
    /// How many update batches have been applied since the from-scratch
    /// build (0 for a fresh index). Advanced by
    /// [`patched`](Self::patched), persisted from format v3.
    update_epoch: u64,
    perm: Permutation,
    /// The permuted graph (drives the BFS tree construction per query).
    graph: CsrGraph,
    /// `L⁻¹`, column-major: column `q` is `L⁻¹ e_q`.
    linv: CscMatrix,
    /// `U⁻¹`, row-major, behind the proximity store (blocked index
    /// encoding): a node's proximity is one gather of a stored row against
    /// the scattered query column.
    uinv: ProximityStore,
    /// The constants of the proximity bounds, derived from `graph` where
    /// that is set ([`BoundConstants::of`], in `assemble`). `A_max(v)`,
    /// `A_max` and `c'` are also what the file format's estimator section
    /// holds, written from here and checked against here on load.
    bounds: BoundConstants,
    /// Out-edge weight sum per (permuted) node — the normaliser of its
    /// transition-matrix column, zero for dangling nodes. Derived from
    /// `graph` wherever that is set, never persisted, on every index: the
    /// dense stop rule divides by it once per computed node, the certified
    /// refinement residual once per node per pass.
    out_weight: Vec<f64>,
    /// The certified tier's reach anchor and its closure, derived from
    /// `graph` like `out_weight` and, like it, never persisted; empty while
    /// `dropped_total` is zero.
    anchor: ReachAnchor,
    /// Drop tolerance `ε` the stored inverses were truncated with
    /// (`0.0` = dense-exact).
    drop_tolerance: f64,
    /// Dropped ℓ₁ mass per `L⁻¹` column (all zeros when dense-exact).
    linv_dropped: Vec<f64>,
    /// Dropped ℓ₁ mass per `U⁻¹` solve lane (CSC column of the inversion;
    /// all zeros when dense-exact).
    uinv_dropped: Vec<f64>,
    /// Cached `Σ linv_dropped + Σ uinv_dropped` — the routing switch:
    /// `> 0` sends every query through certified refinement.
    dropped_total: f64,
    stats: IndexStats,
}

/// What one incremental update batch produces: a full replacement set for
/// the *stored* components of a [`KdashIndex`] that depend on the graph.
/// What is derived from them is not a patch's to supply: the constructor
/// derives the bounds' constants from `graph`, and `uinv` carries its own
/// tables. Construct one only from spliced components that a from-scratch
/// rebuild would reproduce.
#[doc(hidden)]
pub struct IndexPatch {
    /// The edited permuted graph.
    pub graph: CsrGraph,
    /// `L⁻¹` with the dirty columns re-solved and spliced.
    pub linv: CscMatrix,
    /// `U⁻¹` with the dirty columns re-solved and spliced
    /// ([`ProximityStore::splice_columns`]).
    pub uinv: ProximityStore,
    /// Full replacement for the per-column `L⁻¹` dropped masses (dirty
    /// columns re-sparsified under the index's `ε`, clean ones copied).
    pub linv_dropped: Vec<f64>,
    /// Full replacement for the per-lane `U⁻¹` dropped masses.
    pub uinv_dropped: Vec<f64>,
    /// Stored entries of the fresh factor `L` (stats refresh).
    pub nnz_l: usize,
    /// Stored entries of the fresh factor `U` (stats refresh).
    pub nnz_u: usize,
    /// Update batches this patch represents — the epoch advance. A plain
    /// apply is 1; a coalesced apply of `k` batches is `k`, so the epoch
    /// counts *batches*, identically whether they were applied one by
    /// one or merged into a single pass. Must be at least 1.
    pub epochs: u64,
}

/// Everything a build, a load or an update hands to
/// [`KdashIndex::assemble`] to become a [`KdashIndex`]: the stored
/// components and the scalars, nothing derivable from them.
pub(crate) struct IndexParts {
    pub c: f64,
    pub ordering: NodeOrdering,
    pub dangling: DanglingPolicy,
    pub update_epoch: u64,
    pub perm: Permutation,
    pub graph: CsrGraph,
    pub linv: CscMatrix,
    pub uinv: ProximityStore,
    pub drop_tolerance: f64,
    pub linv_dropped: Vec<f64>,
    pub uinv_dropped: Vec<f64>,
    /// Stored entries of the factors `L` and `U`, which only the producer
    /// saw (`0` on load: a file holds no factors). Every other count
    /// `assemble` reads off the components.
    pub nnz_l: usize,
    pub nnz_u: usize,
}

impl KdashIndex {
    /// Builds the index with the paper's monolithic entry point: runs the
    /// reordering, assembles `W = I − (1−c)A`, factors it and inverts the
    /// triangular factors — sequentially. Staged construction, per-stage
    /// timings and parallel inversion live on [`IndexBuilder`].
    pub fn build(graph: &CsrGraph, options: IndexOptions) -> Result<KdashIndex> {
        IndexBuilder::from_options(options).build(graph)
    }

    /// The one constructor: build, load and update all end here. Fails
    /// when [`check_header`] or [`check_sparsify`] does; derives from the
    /// graph the out-weight sums, the bounds' constants (under the
    /// dangling policy and `c`) and the reach anchor, and from the
    /// components the dropped-mass total and the size statistics.
    pub(crate) fn assemble(parts: IndexParts) -> Result<KdashIndex> {
        let p = &parts;
        let n = p.graph.num_nodes();
        check_header(p.c, &p.graph, &p.perm, &p.linv, &p.uinv)?;
        check_weight_total(&p.graph)?;
        check_sparsify(p.drop_tolerance, n, &p.linv_dropped, &p.uinv_dropped)?;
        let dropped_total =
            p.linv_dropped.iter().sum::<f64>() + p.uinv_dropped.iter().sum::<f64>();
        let out_weight = out_weight_sums(&p.graph);
        Ok(KdashIndex {
            bounds: BoundConstants::of(&p.graph, &out_weight, p.dangling, p.c),
            out_weight,
            anchor: ReachAnchor::of(&p.graph, dropped_total),
            dropped_total,
            stats: IndexStats {
                nnz_l: p.nnz_l,
                nnz_u: p.nnz_u,
                nnz_l_inv: p.linv.nnz(),
                nnz_u_inv: p.uinv.nnz(),
                uinv_index_bytes: p.uinv.index_bytes(),
                num_edges: p.graph.num_edges(),
                num_nodes: n,
                inverse_heap_bytes: p.linv.heap_bytes() + p.uinv.heap_bytes(),
            },
            c: parts.c,
            ordering: parts.ordering,
            dangling: parts.dangling,
            update_epoch: parts.update_epoch,
            perm: parts.perm,
            graph: parts.graph,
            linv: parts.linv,
            uinv: parts.uinv,
            drop_tolerance: parts.drop_tolerance,
            linv_dropped: parts.linv_dropped,
            uinv_dropped: parts.uinv_dropped,
        })
    }

    /// The index one update batch later — the commit stage of the
    /// `kdash-dynamic` update engine. The patch supplies every stored
    /// component that depends on the graph; what derives from the graph,
    /// the bounds' constants among it, [`assemble`](Self::assemble)
    /// derives from the patch's. The permutation and the options carry
    /// over, and the update epoch advances by [`IndexPatch::epochs`].
    /// `self` is untouched, whatever the outcome.
    ///
    /// Hidden: the only supported caller is `kdash_dynamic::DynamicIndex`,
    /// which is what upholds the "patched ≡ rebuilt" guarantee; splicing
    /// arbitrary components through this API forfeits it.
    #[doc(hidden)]
    pub fn patched(&self, patch: IndexPatch) -> Result<KdashIndex> {
        if patch.epochs == 0 {
            return Err(KdashError::Sparse(SparseError::Malformed(
                "patch must advance the update epoch by at least one batch".into(),
            )));
        }
        KdashIndex::assemble(IndexParts {
            c: self.c,
            ordering: self.ordering,
            dangling: self.dangling,
            update_epoch: self.update_epoch + patch.epochs,
            perm: self.perm.clone(),
            graph: patch.graph,
            linv: patch.linv,
            uinv: patch.uinv,
            drop_tolerance: self.drop_tolerance,
            linv_dropped: patch.linv_dropped,
            uinv_dropped: patch.uinv_dropped,
            nnz_l: patch.nnz_l,
            nnz_u: patch.nnz_u,
        })
    }

    /// Number of indexed nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// The restart probability the index was built with.
    pub fn restart_probability(&self) -> f64 {
        self.c
    }

    /// The reordering strategy the index was built with.
    pub fn ordering(&self) -> NodeOrdering {
        self.ordering
    }

    /// The dangling-node policy the transition matrix was built with.
    pub fn dangling_policy(&self) -> DanglingPolicy {
        self.dangling
    }

    /// How many update batches have been applied since the from-scratch
    /// build: `0` for a fresh index, one more per `kdash-dynamic` batch
    /// ([`patched`](Self::patched)). Persisted from index-format v3, so
    /// freshness survives a save/load round trip.
    pub fn update_epoch(&self) -> u64 {
        self.update_epoch
    }

    /// The row layout of the stored `U⁻¹`: always
    /// [`RowLayout::Blocked`], kept while `benchmark/` passes it to
    /// `ProximityStore::from_csr` (see [`RowLayout`]).
    pub fn layout(&self) -> RowLayout {
        RowLayout::Blocked
    }

    /// The drop tolerance `ε` the stored inverses were truncated with
    /// (`0.0` for a dense-exact index).
    pub fn drop_tolerance(&self) -> f64 {
        self.drop_tolerance
    }

    /// Whether the index was built under a positive drop tolerance — the
    /// *tier* label (`ε > 0` ⇒ "sparsified", else "dense-exact"). Note an
    /// `ε > 0` build may still have dropped nothing (every inverse entry
    /// cleared the bar); [`needs_refinement`](Self::needs_refinement) is
    /// the routing switch.
    pub fn is_sparsified(&self) -> bool {
        self.drop_tolerance > 0.0
    }

    /// Whether queries must pass through the certified refinement loop:
    /// true exactly when the stored inverses dropped any ℓ₁ mass. When
    /// false the stored inverses are bit-for-bit the dense-exact ones and
    /// every query takes the classic path unchanged.
    ///
    /// When true, every answer is *proven*, node by node, from the
    /// residual `r` of the refined solution `x̃`:
    /// `|p_u − c·x̃_u| ≤ c·|r_u| + (1−c)·‖r‖₁`. A top-k or threshold query
    /// returns only once that bound separates its set and order and every
    /// returned proximity is within [`VALUE_TOLERANCE`](crate::VALUE_TOLERANCE)
    /// of exact (a full vector: within `1e-13`); otherwise it fails with
    /// [`KdashError::RefinementFailed`](crate::KdashError).
    pub fn needs_refinement(&self) -> bool {
        self.dropped_total > 0.0
    }

    /// Total ℓ₁ mass the truncated inversion dropped across both stored
    /// inverses (`0.0` for a dense-exact index).
    pub fn dropped_mass(&self) -> f64 {
        self.dropped_total
    }

    /// The per-column dropped ℓ₁ masses `(L⁻¹, U⁻¹ solve lanes)`. Hidden:
    /// the persistence and audit paths serialise/validate them, and the
    /// dynamic engine splices replacements for dirty columns.
    #[doc(hidden)]
    pub fn dropped_masses(&self) -> (&[f64], &[f64]) {
        (&self.linv_dropped, &self.uinv_dropped)
    }

    /// What the stored index holds (Figure 5 quantities).
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// Exact proximity of a single node `u` with respect to query `q`
    /// (both in original ids): `c · (U⁻¹)ᵤ,⋆ · (L⁻¹ e_q)`. On a
    /// sparsified index the raw dot product is only approximate, so the
    /// value is refined to the certified residual floor first (see
    /// [`full_proximities`](Self::full_proximities)).
    pub fn proximity(&self, q: NodeId, u: NodeId) -> Result<f64> {
        self.check_node(q)?;
        self.check_node(u)?;
        if self.needs_refinement() {
            return Ok(self.searcher().refined_full_proximities(&[q])?[u as usize]);
        }
        let (qi, ui) = (self.perm.new_of(q), self.perm.new_of(u));
        let (idx, val) = self.linv.col(qi);
        Ok(self.c * self.uinv.row_dot_sparse(ui, idx, val))
    }

    /// The full proximity vector for `q` in original id space,
    /// `p = c · U⁻¹ (L⁻¹ e_q)`. `O(nnz(L⁻¹ column) + nnz(U⁻¹))` on a
    /// dense-exact index; on a sparsified one the vector is refined until
    /// every node's error bound drops below `1e-13`, so every entry is
    /// within that distance of exact (and the call can fail with
    /// [`KdashError::RefinementFailed`](crate::KdashError) if the
    /// tolerance was set too aggressively for the loop to contract).
    pub fn full_proximities(&self, q: NodeId) -> Result<Vec<f64>> {
        self.check_node(q)?;
        if self.needs_refinement() {
            return self.searcher().refined_full_proximities(&[q]);
        }
        let qi = self.perm.new_of(q);
        let (idx, val) = self.linv.col(qi);
        Ok(self.proximities_from_query_column(idx, val))
    }

    /// Full proximity vector for a *restart set*: the walk restarts
    /// uniformly over `sources` (`q = (1/|S|) Σ_s e_s`), the Personalized
    /// PageRank generalisation the paper's footnote 6 mentions. By
    /// linearity this is the average of the single-source vectors, but it
    /// is computed in one pass over the merged `L⁻¹` columns.
    pub fn full_proximities_from_set(&self, sources: &[NodeId]) -> Result<Vec<f64>> {
        if self.needs_refinement() {
            return self.searcher().refined_full_proximities(sources);
        }
        let (idx, val) = self.merged_query_column(sources)?;
        Ok(self.proximities_from_query_column(&idx, &val))
    }

    /// Shared tail of the `full_proximities*` paths: scatters a (merged)
    /// query column of `L⁻¹`, applies `U⁻¹`, scales by `c`, and un-permutes
    /// the result into original node ids.
    fn proximities_from_query_column(&self, idx: &[NodeId], val: &[f64]) -> Vec<f64> {
        let n = self.num_nodes();
        let mut y = vec![0.0; n];
        for (&i, &v) in idx.iter().zip(val) {
            y[i as usize] = v;
        }
        let mut permuted = self.uinv.matvec(&y);
        for p in &mut permuted {
            *p *= self.c;
        }
        self.perm.unpermute_values(&permuted)
    }

    /// Merges the `L⁻¹` columns of a restart set into one sorted sparse
    /// vector `(1/|S|) Σ_s L⁻¹ e_s` (permuted index space). Validates and
    /// rejects empty or duplicate-containing sets.
    pub(crate) fn merged_query_column(
        &self,
        sources: &[NodeId],
    ) -> Result<(Vec<NodeId>, Vec<f64>)> {
        if sources.is_empty() {
            return Err(KdashError::InvalidRestartSet {
                reason: "restart set must be non-empty".into(),
            });
        }
        let mut seen = std::collections::HashSet::with_capacity(sources.len());
        for &s in sources {
            self.check_node(s)?;
            if !seen.insert(s) {
                return Err(KdashError::InvalidRestartSet {
                    reason: format!("node {s} appears twice in the restart set"),
                });
            }
        }
        let weight = 1.0 / sources.len() as f64;
        let mut pairs: Vec<(NodeId, f64)> = Vec::new();
        for &s in sources {
            let (idx, val) = self.linv.col(self.perm.new_of(s));
            pairs.extend(idx.iter().zip(val).map(|(&i, &v)| (i, v * weight)));
        }
        pairs.sort_unstable_by_key(|&(i, _)| i);
        // Fold each run of equal rows into its first entry, in order.
        pairs.dedup_by(|(i, v), (kept, sum)| {
            let same = i == kept;
            if same {
                *sum += *v;
            }
            same
        });
        Ok(pairs.into_iter().unzip())
    }

    /// Validates a caller-supplied node id.
    pub(crate) fn check_node(&self, v: NodeId) -> Result<()> {
        if (v as usize) < self.num_nodes() {
            Ok(())
        } else {
            Err(KdashError::NodeOutOfBounds { node: v, num_nodes: self.num_nodes() })
        }
    }

    /// Benchmark/diagnostic access to the stored `U⁻¹` (row-major). Hidden:
    /// layout and permutation are internal; use the query API for answers.
    #[doc(hidden)]
    pub fn uinv_rows(&self) -> &ProximityStore {
        &self.uinv
    }

    /// Benchmark/diagnostic access to the stored `L⁻¹` (column-major).
    /// Hidden for the same reason as [`uinv_rows`](Self::uinv_rows); the
    /// determinism tests use it to compare raw inverse arrays across
    /// thread counts.
    #[doc(hidden)]
    pub fn linv_cols(&self) -> &CscMatrix {
        &self.linv
    }

    /// How many trailing columns of the stored `L⁻¹` are at least half
    /// full — the dense tail a triangular solve against it would run as
    /// contiguous AXPYs (`kdash_sparse::triangular`). The LU factors are
    /// not kept, but the pattern of `L⁻¹` contains that of `L`, so this
    /// bounds the tail a rebuild's factorisation and inversion would see;
    /// what actually ran in it is per build, in
    /// [`BuildReport`](crate::BuildReport).
    pub fn linv_dense_tail_columns(&self) -> usize {
        kdash_sparse::dense_tail_columns(&self.linv, kdash_sparse::Triangle::Lower).unwrap_or(0)
    }

    /// Benchmark/diagnostic access to the permuted query column `L⁻¹ e_q`
    /// for original node id `q`. Hidden for the same reason as
    /// [`uinv_rows`](Self::uinv_rows).
    #[doc(hidden)]
    pub fn linv_query_column(&self, q: NodeId) -> (&[NodeId], &[f64]) {
        self.linv.col(self.perm.new_of(q))
    }

    /// The constants of the bounds `(A_max(v), A_max, c', Ā_u)`, in
    /// permuted node order. Hidden: `kdash-harness` reads them — the
    /// bit-identity check compares them, the stop-rule replay bounds with
    /// them.
    #[doc(hidden)]
    pub fn bound_constants(&self) -> (&[f64], f64, &[f64], &[f64]) {
        let b = &self.bounds;
        (&b.a_col_max, b.a_max, &b.c_prime, &b.a_row_max)
    }

    // Internal accessors for the search module (`pub` + hidden: the
    // dynamic engine maps edits into permuted space through them).
    #[doc(hidden)]
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }
    #[doc(hidden)]
    pub fn permuted_graph(&self) -> &CsrGraph {
        &self.graph
    }
    pub(crate) fn linv(&self) -> &CscMatrix {
        &self.linv
    }
    pub(crate) fn uinv(&self) -> &ProximityStore {
        &self.uinv
    }
    pub(crate) fn bounds(&self) -> &BoundConstants {
        &self.bounds
    }
    pub(crate) fn out_weight(&self) -> &[f64] {
        &self.out_weight
    }
    pub(crate) fn reach_anchor(&self) -> &ReachAnchor {
        &self.anchor
    }
    #[cfg(test)]
    pub(crate) fn out_weight_mut(&mut self) -> &mut [f64] {
        &mut self.out_weight
    }
    #[cfg(test)]
    pub(crate) fn reach_anchor_mut(&mut self) -> &mut ReachAnchor {
        &mut self.anchor
    }
}

/// The bound on a graph's weights beyond each edge's own rule: four times
/// their total is finite, so no sum a build forms overflows — an
/// out-weight (an infinite one would zero its column of `A`), a pair of
/// the undirected view, Louvain's aggregates and `2m`. Runs before a
/// build's ordering and in [`KdashIndex::assemble`].
pub(crate) fn check_weight_total(graph: &CsrGraph) -> Result<()> {
    let total: f64 = graph.edges().map(|(_, _, w)| w).sum();
    if !(4.0 * total).is_finite() {
        return Err(malformed(&format!(
            "edge weights sum to {total:e}; a build needs four times their sum finite"
        )));
    }
    Ok(())
}

/// The header's checks, which [`KdashIndex::assemble`] runs on what it is
/// handed and the audit on what an index holds: `c` lies in `(0, 1)`, and
/// the permutation and both inverses fit the graph's `n` nodes.
pub(crate) fn check_header(
    c: f64,
    graph: &CsrGraph,
    perm: &Permutation,
    linv: &CscMatrix,
    uinv: &ProximityStore,
) -> Result<()> {
    kdash_sparse::rwr::validate_restart(c)?;
    let n = graph.num_nodes();
    let square = |rows: usize, cols: usize| rows == n && cols == n;
    if perm.len() != n || !square(linv.nrows(), linv.ncols()) || !square(uinv.nrows(), uinv.ncols())
    {
        return Err(malformed("component dimensions disagree"));
    }
    Ok(())
}

/// The sparsification record's checks, run by [`KdashIndex::assemble`] and
/// by the audit: `ε` is finite and non-negative, each inverse records one
/// finite, non-negative dropped mass per node, and a dense-exact record
/// (`ε = 0`) dropped nothing — mass beside a zero tolerance means the
/// inverses and the record disagree about what was stored.
pub(crate) fn check_sparsify(
    drop_tolerance: f64,
    n: usize,
    linv_dropped: &[f64],
    uinv_dropped: &[f64],
) -> Result<()> {
    kdash_sparse::validate_drop_tolerance(drop_tolerance)?;
    if linv_dropped.len() != n || uinv_dropped.len() != n {
        return Err(malformed("component dimensions disagree"));
    }
    let mut masses = linv_dropped.iter().chain(uinv_dropped);
    if masses.clone().any(|m| !(m.is_finite() && *m >= 0.0)) {
        return Err(malformed("dropped-mass entries must be finite and non-negative"));
    }
    if drop_tolerance == 0.0 && masses.any(|&m| m != 0.0) {
        return Err(malformed("a zero drop tolerance records no dropped mass"));
    }
    Ok(())
}

/// The error of a failed component check.
fn malformed(detail: &str) -> KdashError {
    KdashError::Sparse(SparseError::Malformed(detail.into()))
}

/// [`CsrGraph::out_weight_sum`] of every node, in node order.
pub(crate) fn out_weight_sums(graph: &CsrGraph) -> Vec<f64> {
    (0..graph.num_nodes() as NodeId).map(|v| graph.out_weight_sum(v)).collect()
}

/// [`ReachAnchor`] flag: the node lies in the anchor's closure `R(a)`.
const IN_CLOSURE: u8 = 1;
/// [`ReachAnchor`] flag: the node reaches the anchor.
const REACHES: u8 = 2;

/// The certified tier's *reach anchor* `a`: the node with the most
/// in-edges among the nodes with an out-edge, ties to the smallest
/// (permuted) id. A query whose roots reach `a` lists its reachable set
/// from `a`'s closure instead of draining a BFS (the `searcher` module
/// docs give the lemma). On a power-law graph almost every query reaches
/// the hub, so almost every query shares one closure.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ReachAnchor {
    /// `a`; `None` when nothing refines or no node has an out-edge.
    pub(crate) node: Option<NodeId>,
    /// `R(a)`, every node `a` reaches (itself included), in ascending id.
    pub(crate) closure: Vec<NodeId>,
    /// Per node, [`IN_CLOSURE`] and [`REACHES`]; empty without an anchor.
    flags: Vec<u8>,
}

impl ReachAnchor {
    /// The anchor of `graph`, for an index that refines
    /// (`dropped_total > 0`), empty otherwise: one BFS from `a` and one
    /// over the transpose.
    pub(crate) fn of(graph: &CsrGraph, dropped_total: f64) -> ReachAnchor {
        if dropped_total <= 0.0 {
            return ReachAnchor::default();
        }
        let in_degree = graph.in_degrees();
        let with_out_edge = (0..graph.num_nodes() as NodeId).filter(|&v| graph.out_degree(v) > 0);
        let Some(a) = with_out_edge.max_by_key(|&v| (in_degree[v as usize], Reverse(v))) else {
            return ReachAnchor::default();
        };
        let mut flags = vec![0u8; graph.num_nodes()];
        let mut closure = BfsTree::new(graph, a).order;
        closure.sort_unstable();
        for &v in &closure {
            flags[v as usize] |= IN_CLOSURE;
        }
        for &v in &BfsTree::new(&graph.transpose(), a).order {
            flags[v as usize] |= REACHES;
        }
        ReachAnchor { node: Some(a), closure, flags }
    }

    /// Whether `v` lies in `R(a)`. Only meaningful with an anchor.
    #[inline]
    pub(crate) fn contains(&self, v: NodeId) -> bool {
        self.flags[v as usize] & IN_CLOSURE != 0
    }

    /// Whether any of `roots` reaches `a`, so that `R(a)` lies inside
    /// their reachable set. Always false without an anchor.
    #[inline]
    pub(crate) fn reached_from(&self, roots: &[NodeId]) -> bool {
        !self.flags.is_empty() && roots.iter().any(|&r| self.flags[r as usize] & REACHES != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdash_graph::GraphBuilder;
    use kdash_sparse::rwr::rwr_step;
    use kdash_sparse::transition_matrix;

    fn ring_with_chords(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n {
            b.add_edge(v as NodeId, ((v + 1) % n) as NodeId, 1.0);
            if v % 3 == 0 {
                b.add_edge(v as NodeId, ((v + n / 2) % n) as NodeId, 0.5);
            }
        }
        b.build().unwrap()
    }

    /// Ground truth via power iteration on the original graph.
    fn iterative_proximities(g: &CsrGraph, c: f64, q: NodeId) -> Vec<f64> {
        let a = transition_matrix(g, DanglingPolicy::Keep);
        let n = g.num_nodes();
        let mut p = vec![0.0; n];
        p[q as usize] = 1.0;
        let mut next = vec![0.0; n];
        for _ in 0..2000 {
            rwr_step(&a, c, q, &p, &mut next);
            std::mem::swap(&mut p, &mut next);
        }
        p
    }

    #[test]
    fn full_proximities_match_iterative() {
        let g = ring_with_chords(24);
        for ordering in [NodeOrdering::Natural, NodeOrdering::Degree, NodeOrdering::Hybrid] {
            let index = KdashIndex::build(
                &g,
                IndexOptions { ordering, restart_probability: 0.8, ..Default::default() },
            )
            .unwrap();
            for q in [0u32, 5, 13] {
                let got = index.full_proximities(q).unwrap();
                let expect = iterative_proximities(&g, 0.8, q);
                for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
                    assert!((a - b).abs() < 1e-9, "{ordering:?} q={q} node {i}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn single_proximity_matches_vector() {
        let g = ring_with_chords(15);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let full = index.full_proximities(3).unwrap();
        for u in 0..15u32 {
            let single = index.proximity(3, u).unwrap();
            assert!((single - full[u as usize]).abs() < 1e-12);
        }
    }

    #[test]
    fn proximities_sum_to_one_without_dangling() {
        let g = ring_with_chords(12);
        assert_eq!(g.num_dangling(), 0);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let p = index.full_proximities(0).unwrap();
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn dangling_keep_leaks_mass_self_loop_preserves_it() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 1.0); // 1 and 2 dangle
        let g = b.build().unwrap();
        let keep = KdashIndex::build(
            &g,
            IndexOptions { dangling: DanglingPolicy::Keep, ..Default::default() },
        )
        .unwrap();
        let p_keep: f64 = keep.full_proximities(0).unwrap().iter().sum();
        assert!(p_keep < 1.0);
        let looped = KdashIndex::build(
            &g,
            IndexOptions { dangling: DanglingPolicy::SelfLoop, ..Default::default() },
        )
        .unwrap();
        let p_loop: f64 = looped.full_proximities(0).unwrap().iter().sum();
        assert!((p_loop - 1.0).abs() < 1e-9);
    }

    /// The stored inverses against the "no stored inverses" alternative:
    /// `L y = e_q`, `U x = y` solved per query on the factors of the
    /// permuted graph's `W`.
    #[test]
    fn factors_path_matches_inverse_path() {
        let g = ring_with_chords(20);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let a = transition_matrix(index.permuted_graph(), index.dangling_policy());
        let w = kdash_sparse::w_matrix(&a, index.restart_probability()).unwrap();
        let factors = kdash_sparse::sparse_lu(&w).unwrap();
        let mut ws = kdash_sparse::SolveWorkspace::new(20);
        for q in [0u32, 7, 19] {
            let via_inv = index.full_proximities(q).unwrap();
            let (xi, xv) =
                factors.solve_unit_sparse(&mut ws, index.permutation().new_of(q)).unwrap();
            let mut via_lu = vec![0.0; 20];
            for (&i, &v) in xi.iter().zip(&xv) {
                via_lu[index.permutation().old_of(i) as usize] = index.restart_probability() * v;
            }
            for (a, b) in via_inv.iter().zip(&via_lu) {
                assert!((a - b).abs() < 1e-10, "q {q}: {a} vs {b}");
            }
        }
    }

    /// A patch that re-supplies the index's own components.
    fn identity_patch(index: &KdashIndex) -> IndexPatch {
        let (linv_dropped, uinv_dropped) = index.dropped_masses();
        IndexPatch {
            graph: index.permuted_graph().clone(),
            linv: index.linv_cols().clone(),
            uinv: index.uinv_rows().clone(),
            linv_dropped: linv_dropped.to_vec(),
            uinv_dropped: uinv_dropped.to_vec(),
            nnz_l: 7,
            nnz_u: 11,
            epochs: 2,
        }
    }

    #[test]
    fn patched_carries_build_stats_and_advances_the_epoch() {
        let index = KdashIndex::build(&ring_with_chords(18), IndexOptions::default()).unwrap();
        let next = index.patched(identity_patch(&index)).unwrap();
        assert_eq!((index.update_epoch(), next.update_epoch()), (0, 2));
        let (old, new) = (index.stats(), next.stats());
        // The factor counts come from the patch; every other count is read
        // off the (identical) components, so it carries over.
        assert_eq!(*new, IndexStats { nnz_l: 7, nnz_u: 11, ..old.clone() });
        assert_eq!(next.top_k(3, 5).unwrap().items, index.top_k(3, 5).unwrap().items);
    }

    #[test]
    fn patched_rejects_malformed_patches_and_leaves_self_usable() {
        let index = KdashIndex::build(&ring_with_chords(18), IndexOptions::default()).unwrap();
        let before = index.top_k(3, 5).unwrap();
        let smaller = KdashIndex::build(&ring_with_chords(12), IndexOptions::default()).unwrap();
        let spoilers: [fn(&mut IndexPatch, &KdashIndex); 5] = [
            |p, _| p.epochs = 0,
            |p, other| p.graph = other.permuted_graph().clone(),
            |p, other| p.linv = other.linv_cols().clone(),
            |p, _| p.uinv_dropped[4] = -1e-9,
            // A dense index (ε = 0) records no dropped mass.
            |p, _| p.linv_dropped[2] = 1e-9,
        ];
        for (case, spoil) in spoilers.into_iter().enumerate() {
            let mut patch = identity_patch(&index);
            spoil(&mut patch, &smaller);
            let err = index.patched(patch);
            assert!(matches!(err, Err(KdashError::Sparse(_))), "case {case}: {err:?}");
            assert_eq!(index.update_epoch(), 0);
            assert_eq!(index.top_k(3, 5).unwrap().items, before.items, "case {case}");
        }
    }

    #[test]
    fn stats_are_populated() {
        let g = ring_with_chords(18);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let s = index.stats();
        assert_eq!(s.num_nodes, 18);
        assert_eq!(s.num_edges, g.num_edges());
        assert!(s.nnz_l_inv >= 18, "diagonal alone is n entries");
        assert!(s.nnz_u_inv >= 18);
        assert!(s.inverse_heap_bytes > 0);
        assert!(s.inverse_nnz_ratio() > 0.0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let g = ring_with_chords(6);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        assert!(matches!(
            index.proximity(9, 0),
            Err(KdashError::NodeOutOfBounds { node: 9, .. })
        ));
        assert!(index.full_proximities(6).is_err());
    }

    #[test]
    fn invalid_restart_probability_rejected() {
        let g = ring_with_chords(6);
        let r = KdashIndex::build(
            &g,
            IndexOptions { restart_probability: 1.5, ..Default::default() },
        );
        assert!(matches!(r, Err(KdashError::Sparse(_))));
    }

    #[test]
    fn self_loops_shape_c_prime() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 1.0);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 0, 1.0);
        let g = b.build().unwrap();
        let c = 0.9;
        let index = KdashIndex::build(
            &g,
            IndexOptions { restart_probability: c, ..Default::default() },
        )
        .unwrap();
        // Node 0 has A_00 = 0.5 -> c' = (1-c)/(1 - 0.5 + 0.45) != (1-c).
        let new0 = index.permutation().new_of(0);
        let expect = (1.0 - c) / (1.0 - 0.5 + c * 0.5);
        assert!((index.bounds().c_prime[new0 as usize] - expect).abs() < 1e-12);
        let new1 = index.permutation().new_of(1);
        assert!((index.bounds().c_prime[new1 as usize] - (1.0 - c)).abs() < 1e-12);
    }
}
