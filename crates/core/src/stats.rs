//! Instrumentation records for precomputation and search.

/// What index construction produced — the quantities behind the paper's
/// Figure 5 (nnz ratio). What it cost, stage by stage (Figure 6), is the
/// build's [`BuildReport`](crate::BuildReport): a loaded or updated index
/// ran no build stages.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexStats {
    /// Stored entries of the factor `L` (diagonal implicit).
    pub nnz_l: usize,
    /// Stored entries of the factor `U`.
    pub nnz_u: usize,
    /// Stored entries of `L⁻¹` (diagonal explicit).
    pub nnz_l_inv: usize,
    /// Stored entries of `U⁻¹` (diagonal explicit).
    pub nnz_u_inv: usize,
    /// Edges of the indexed graph.
    pub num_edges: usize,
    /// Nodes of the indexed graph.
    pub num_nodes: usize,
    /// Approximate heap footprint of the stored inverses in bytes.
    pub inverse_heap_bytes: usize,
    /// Column-index bytes of the stored `U⁻¹` in its blocked encoding —
    /// what a full sweep of the gather path streams from memory (2/nnz +
    /// 8/run; flat CSR would take 4/nnz).
    pub uinv_index_bytes: usize,
}

impl IndexStats {
    /// The Figure 5 metric: stored inverse entries per graph edge.
    pub fn inverse_nnz_ratio(&self) -> f64 {
        if self.num_edges == 0 {
            return 0.0;
        }
        (self.nnz_l_inv + self.nnz_u_inv) as f64 / self.num_edges as f64
    }
}

/// Per-query counters (Figures 7 and 9).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Nodes whose upper bound was evaluated.
    pub visited: usize,
    /// Nodes whose exact proximity was computed (Fig. 9's y-axis).
    pub proximity_computations: usize,
    /// Nodes skipped by a per-node bound without terminating
    /// (random-root variant only).
    pub skipped: usize,
    /// True when the search ended early: the stop rule proved that no
    /// node still uncomputed could reach the cutoff. The stop came at
    /// visit position `proximity_computations` of the `reachable`
    /// discovered so far.
    pub terminated_early: bool,
    /// `M_q`, the upper bound on the query's total proximity mass the stop
    /// rule measured remaining mass against: `c · (1ᵀU⁻¹)(L⁻¹e_q)` rounded
    /// up and clamped to 1 — below 1 when walks can die in sinks. `1` on a
    /// sparsified index (whose truncated inverses do not yield it) and `0`
    /// on paths that run no `Searcher` prologue (the merge-join oracles).
    pub query_mass: f64,
    /// Nodes the search tree had *discovered* when the search ended.
    ///
    /// The search expands its BFS frontier lazily, one layer at a time, so
    /// a query that terminates early (`terminated_early == true`) never
    /// enumerates the rest of the reachable set: this field then reports
    /// the discovered-so-far count — a lower bound on true reachability —
    /// not the size of the full reachable set. When the search ran to
    /// completion the traversal is exhaustive and this is the exact
    /// reachable count, as before. On a sparsified index (certified
    /// refinement) it is always the exact reachable count `|R|`, budget
    /// aborts included: the loop lists `R` before it solves anything.
    /// (The eager reference path
    /// [`paper::top_k_merge_join`](crate::paper::top_k_merge_join) always
    /// reports the full count;
    /// consumers comparing the two — the experiment harness's
    /// "computed/reachable" ratios, the CLI stats line — must take an
    /// unpruned or merge-join run as the denominator.)
    pub reachable: usize,
    /// Nodes whose out-edges the query actually scanned.
    ///
    /// Always `<= reachable`. On a dense-exact index it is equal when the
    /// search ran to completion and *strictly* smaller on early-terminated
    /// queries (the layer the search died in was discovered but never
    /// expanded); the gap is the traversal work the early stop saved on
    /// top of the skipped proximity computations. On a sparsified index a
    /// query whose sources reach the index's reach anchor lists the
    /// anchor's closure without scanning it, so this counts only the nodes
    /// reached beside it — often none — unless the loop needed the visit
    /// order after all (a tie at a zero residual, or fewer than `k`
    /// reachable), which scans all of `reachable`.
    pub frontier_expanded: usize,
    /// Index bytes the proximity gathers streamed (2/nnz + 8/run of the
    /// blocked encoding). Zero on paths that never run
    /// the gather kernel (the merge-join oracles).
    pub bytes_touched: usize,
    /// Value bytes the gathers touched under the fixed accounting model
    /// (8 per stored entry of every gathered row: every kernel multiplies
    /// every entry) — machine-independent.
    pub value_bytes_touched: usize,
    /// Rows gathered in the one-accumulator reference order (the hidden
    /// `ResolvedKernel::reference` token).
    pub rows_scalar: usize,
    /// Rows gathered by the four-lane (unrolled/AVX2) kernel: the dense
    /// tier's candidate rows, and on a sparsified index every correction's
    /// pass of `Ũ⁻¹` rows.
    pub rows_wide: usize,
    /// Stored `U⁻¹` entries of every gathered row — the work metric
    /// [`QueryBudget::max_gather_nnz`](crate::QueryBudget) meters. On a
    /// sparsified index: one pass over the reachable set for every
    /// correction, the first step included, and zero for a query whose
    /// first step is a sweep (every top-k and threshold query from
    /// `c ≈ 0.2807` on), which reads no stored inverse.
    /// Kernel-independent by construction (it counts stored
    /// entries, not executed loads), so the same budget admits the same
    /// queries under every execution strategy. (The merge-join oracles
    /// count the rows they join the same way.)
    pub nnz_gathered: usize,
    /// The resolved gather kernel that produced this query's proximities
    /// (`"scalar"`, `"unrolled"` or `"avx2"`), recorded so the host's
    /// resolution is reproducible from logs. Empty on paths that never
    /// ran the gather kernel: the merge-join oracles, a budget abort
    /// before the first row, and a sparsified query whose first step is a
    /// sweep (`kdash query` prints `n/a`).
    pub kernel: &'static str,
    /// Certified-refinement steps the query ran after its first, of either
    /// kind: Gauss–Seidel sweeps over the reachable set and corrections
    /// (`x̃ += Ũ⁻¹(L̃⁻¹ r)`). The first step, from `x̃ = 0`, is never
    /// counted: a sweep, or the correction `Ũ⁻¹(L̃⁻¹ b)`. Zero on a
    /// dense-exact index (the classic stop-rule path never refines); on a
    /// sparsified index every answer was certified after this many steps.
    /// The same under both lane bodies, which are bit-identical — a pure
    /// function of index content and query on every host.
    pub refinement_iterations: usize,
    /// Stored entries the refinement loop moved: every step's residual
    /// pushes over the permuted graph, plus the `L̃⁻¹`/`Ũ⁻¹` entries each
    /// correction, the first step included, scatters and gathers (the
    /// gathers count in `nnz_gathered` too).
    /// The refinement-work currency the memory/latency tradeoff benches
    /// record. Zero when no refinement ran.
    pub refinement_nnz: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_empty_graph() {
        let s = IndexStats::default();
        assert_eq!(s.inverse_nnz_ratio(), 0.0);
    }

    #[test]
    fn ratio_counts_both_inverses_per_edge() {
        let s = IndexStats { nnz_l_inv: 30, nnz_u_inv: 20, num_edges: 10, ..Default::default() };
        assert!((s.inverse_nnz_ratio() - 5.0).abs() < 1e-12);
    }
}
