//! Staged index construction — the build-side twin of the query engine.
//!
//! [`IndexBuilder`] decomposes index construction into four named stages,
//!
//! ```text
//! ordering → factorization → inversion → assemble
//! ```
//!
//! each individually timed and surfaced through a [`BuildReport`]
//! ([`IndexBuilder::build_with_report`]). The stages are the quantities the
//! paper's Figure 6 measures: the reordering heuristic, the sparse LU of
//! `W = I − (1−c)A`, and — dominating everything at scale — the triangular
//! inversion that materialises `L⁻¹` and `U⁻¹`.
//!
//! The inversion is the parallel stage, driven by
//! [`IndexBuilder::threads`]: columns of a triangular inverse are
//! independent sparse solves, so one worker pool
//! ([`kdash_sparse::sparsify_factors_with`]) solves both triangles, one
//! solve workspace per worker. Each worker starts on its own triangle's
//! chunk cursor, expensive chunks first, and then claims the other
//! triangle's remaining chunks; `U⁻¹` comes back in row order, transposed
//! once by the calling thread as soon as its last chunk is in, while
//! `L⁻¹`'s last columns may still be being solved. In an exact build on a
//! host with AVX-512F, a factor with a dense tail has its columns solved
//! in panels of eight, one pass through each factor column serving all
//! eight (`kdash_sparse::inverse`'s module docs). The result is
//! **bit-identical** to the sequential, one-column build at every thread
//! count, which the tier-1 `build_determinism` suite pins. The LU runs on the calling
//! thread: each of its columns needs the columns to its left, and on the
//! benchmark graphs that chain left a second worker nothing to do
//! (`kdash_sparse::lu`'s module docs have the measurement).

use crate::ordering::{compute_ordering_with_stats, OrderingStats};
use crate::precompute::{check_weight_total, IndexParts};
use crate::{IndexOptions, KdashError, KdashIndex, NodeOrdering, Result};
use kdash_graph::{CsrGraph, Permutation};
use kdash_sparse::{
    sparse_lu_tallied, sparsify_factors_with, transition_matrix, validate_drop_tolerance, w_matrix,
    DanglingPolicy, InvertOptions, ProximityStore, RowLayout, SolveTally, SparsifiedFactors,
};
use std::time::{Duration, Instant};

/// The four steps of the build pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildStage {
    /// Node reordering and graph permutation (§4.2.2).
    Ordering,
    /// Transition matrix `A`, system matrix `W`, and the sparse LU `W = LU`.
    Factorization,
    /// Triangular inversion: `L⁻¹` by columns and `U⁻¹` by rows
    /// (Equations (4)–(5)), both triangles in one worker pool.
    Inversion,
    /// The blocked `U⁻¹` encoding and the final index assembly, which
    /// derives from the permuted graph the estimator constants `A_max`,
    /// `A_max(v)` and the `c'` factors, and the statistics.
    Assemble,
}

impl BuildStage {
    /// Every stage, in pipeline order.
    pub const ALL: [BuildStage; 4] = [
        BuildStage::Ordering,
        BuildStage::Factorization,
        BuildStage::Inversion,
        BuildStage::Assemble,
    ];

    /// Display name used in reports and the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            BuildStage::Ordering => "ordering",
            BuildStage::Factorization => "factorization",
            BuildStage::Inversion => "inversion",
            BuildStage::Assemble => "assemble",
        }
    }
}

/// One timed pipeline step.
#[derive(Debug, Clone, Copy)]
pub struct StageTiming {
    /// Which step.
    pub stage: BuildStage,
    /// Wall-clock the step took.
    pub duration: Duration,
}

/// What a build did, stage by stage.
#[derive(Debug, Clone, Default)]
pub struct BuildReport {
    /// Per-stage wall-clock, in pipeline order.
    pub stages: Vec<StageTiming>,
    /// What the ordering stage observed (community structure for the
    /// Louvain-backed cluster/hybrid orderings).
    pub ordering: OrderingStats,
    /// Worker count of the inversion stage, the build's one parallel
    /// stage: [`IndexBuilder::threads`] resolved (`0` = one per available
    /// hardware thread), at most one per column. The factorization runs on
    /// the calling thread whatever that setting says.
    pub inversion_threads: usize,
    /// What the factorization's column solves did: how many trailing
    /// columns ran as a dense tail, the multiply-subtracts made and the
    /// share of them inside it — counted in the kernel, so "where did the
    /// build's time go" needs no profiler. A function of the graph and
    /// the options alone, like the factors.
    pub factorization_solves: SolveTally,
    /// The same for the `L⁻¹` column solves of the inversion stage.
    pub linv_solves: SolveTally,
    /// The same for the `U⁻¹` column solves of the inversion stage.
    pub uinv_solves: SolveTally,
}

impl BuildReport {
    /// Wall-clock of one stage (zero if the stage was not recorded).
    pub fn duration_of(&self, stage: BuildStage) -> Duration {
        self.stages
            .iter()
            .find(|t| t.stage == stage)
            .map(|t| t.duration)
            .unwrap_or_default()
    }

    /// Total wall-clock across all stages.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|t| t.duration).sum()
    }
}

/// Staged, parallel index construction.
///
/// ```
/// use kdash_core::{IndexBuilder, NodeOrdering};
/// use kdash_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(32);
/// for v in 0..32u32 { b.add_edge(v, (v + 1) % 32, 1.0); }
/// let graph = b.build().unwrap();
///
/// let (index, report) = IndexBuilder::new()
///     .ordering(NodeOrdering::Degree)
///     .threads(0) // parallel inversion, one worker per core
///     .build_with_report(&graph)
///     .unwrap();
/// assert_eq!(index.num_nodes(), 32);
/// assert_eq!(report.stages.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct IndexBuilder {
    options: IndexOptions,
    threads: usize,
    /// When set, the ordering stage is skipped and this permutation pins
    /// the node order (see [`IndexBuilder::permutation`]).
    pinned_permutation: Option<Permutation>,
}

impl Default for IndexBuilder {
    fn default() -> Self {
        IndexBuilder::new()
    }
}

impl IndexBuilder {
    /// Builder with the paper's defaults (hybrid ordering, `c = 0.95`)
    /// and a sequential build.
    pub fn new() -> Self {
        IndexBuilder::from_options(IndexOptions::default())
    }

    /// Builder seeded from existing [`IndexOptions`].
    pub fn from_options(options: IndexOptions) -> Self {
        IndexBuilder { options, threads: 1, pinned_permutation: None }
    }

    /// Node reordering applied before LU.
    pub fn ordering(mut self, ordering: NodeOrdering) -> Self {
        self.options.ordering = ordering;
        self
    }

    /// Restart probability `c`.
    pub fn restart_probability(mut self, c: f64) -> Self {
        self.options.restart_probability = c;
        self
    }

    /// Treatment of nodes without out-edges.
    pub fn dangling(mut self, policy: DanglingPolicy) -> Self {
        self.options.dangling = policy;
        self
    }

    /// Pins the node order to an explicit permutation: the ordering stage
    /// skips the heuristic and uses `perm` verbatim (the configured
    /// [`NodeOrdering`] survives only as a label). This is how the
    /// dynamic-update equivalence suite rebuilds an edited graph *under
    /// the index's frozen order* — an incremental update never re-runs
    /// the ordering heuristic (edits would otherwise shift the
    /// permutation and with it every stored array), so the from-scratch
    /// reference it must match bit-for-bit has to hold the order fixed
    /// too. The permutation length is validated against the graph at
    /// build time.
    pub fn permutation(mut self, perm: Permutation) -> Self {
        self.pinned_permutation = Some(perm);
        self
    }

    /// Drop tolerance `ε` for the stored inverses (see
    /// [`IndexOptions::drop_tolerance`]). `0.0` (the default) builds the
    /// dense-exact index bit-for-bit; `ε > 0` truncates sub-`ε` inverse
    /// entries during inversion and routes queries through certified
    /// residual refinement, keeping answers exact.
    pub fn drop_tolerance(mut self, eps: f64) -> Self {
        self.options.drop_tolerance = eps;
        self
    }

    /// Worker threads for the inversion stage: `0` = one per available
    /// hardware thread, `1` (the default) = sequential. Output is
    /// bit-identical at every thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The effective options.
    pub fn options(&self) -> &IndexOptions {
        &self.options
    }

    /// Runs the pipeline.
    pub fn build(&self, graph: &CsrGraph) -> Result<KdashIndex> {
        self.build_with_report(graph).map(|(index, _)| index)
    }

    /// Runs the pipeline and reports per-stage timings and observations.
    pub fn build_with_report(&self, graph: &CsrGraph) -> Result<(KdashIndex, BuildReport)> {
        let options = self.options;
        validate_drop_tolerance(options.drop_tolerance)?;
        check_weight_total(graph)?;
        let mut report = BuildReport::default();

        // Stage 1 — ordering: permutation + permuted graph for the BFS.
        let t = Instant::now();
        let (perm, ordering_stats) = match &self.pinned_permutation {
            Some(pinned) => {
                if pinned.len() != graph.num_nodes() {
                    return Err(KdashError::Graph(kdash_graph::GraphError::InvalidPermutation(
                        format!(
                            "pinned permutation has length {} but graph has {} nodes",
                            pinned.len(),
                            graph.num_nodes()
                        ),
                    )));
                }
                (pinned.clone(), OrderingStats::default())
            }
            None => compute_ordering_with_stats(graph, options.ordering),
        };
        let permuted = graph.permute(&perm)?;
        report.ordering = ordering_stats;
        report.stages.push(StageTiming { stage: BuildStage::Ordering, duration: t.elapsed() });

        // Stage 2 — factorization: A, W = I − (1−c)A, and W = LU.
        let t = Instant::now();
        let a = transition_matrix(&permuted, options.dangling);
        let w = w_matrix(&a, options.restart_probability)?;
        let (factors, factorization_solves) = sparse_lu_tallied(&w)?;
        report.factorization_solves = factorization_solves;
        report.stages.push(StageTiming { stage: BuildStage::Factorization, duration: t.elapsed() });

        // Stage 3 — inversion: both triangles' independent column solves
        // in one worker pool, each worker moving to the other triangle
        // when its own runs dry, and U⁻¹ handed over in row order,
        // transposed once by the worker that finished it. Under a positive
        // drop tolerance the solves truncate sub-ε entries before they
        // propagate (at ε = 0 they are the exact solves, so the
        // dense-exact path stays bit-identical); the per-column dropped ℓ₁
        // masses ride along into the index for the certified refinement
        // loop.
        let t = Instant::now();
        let eps = options.drop_tolerance;
        let invert_options = InvertOptions { threads: self.threads };
        report.inversion_threads = invert_options.resolved_threads(permuted.num_nodes());
        let SparsifiedFactors { linv, uinv } =
            sparsify_factors_with(&factors, eps, invert_options)?;
        (report.linv_solves, report.uinv_solves) = (linv.tally, uinv.tally);
        report.stages.push(StageTiming { stage: BuildStage::Inversion, duration: t.elapsed() });

        // Stage 4 — assemble: the blocked proximity-store encoding of U⁻¹
        // with its derived tables, and the final immutable index, which
        // derives the bounds' constants and statistics itself.
        let t = Instant::now();
        let store = ProximityStore::from_csr(uinv.inverse, RowLayout::Blocked)?;
        let index = KdashIndex::assemble(IndexParts {
            c: options.restart_probability,
            ordering: options.ordering,
            dangling: options.dangling,
            update_epoch: 0,
            perm,
            graph: permuted,
            linv: linv.inverse,
            uinv: store,
            drop_tolerance: eps,
            linv_dropped: linv.dropped,
            uinv_dropped: uinv.dropped,
            nnz_l: factors.l.nnz(),
            nnz_u: factors.u.nnz(),
        })?;
        report.stages.push(StageTiming { stage: BuildStage::Assemble, duration: t.elapsed() });
        Ok((index, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdash_graph::{GraphBuilder, NodeId};

    fn ring(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as NodeId {
            b.add_edge(v, (v + 1) % n as NodeId, 1.0);
            if v % 3 == 0 {
                b.add_edge(v, (v + n as NodeId / 2) % n as NodeId, 0.5);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn report_covers_every_stage() {
        let g = ring(30);
        let (_, report) = IndexBuilder::new().build_with_report(&g).unwrap();
        assert_eq!(report.stages.len(), BuildStage::ALL.len());
        for (timing, stage) in report.stages.iter().zip(BuildStage::ALL) {
            assert_eq!(timing.stage, stage, "stages must report in pipeline order");
        }
        assert_eq!(report.inversion_threads, 1);
        // A 30-node ring grows no tail, and its solves are counted.
        for solves in [report.factorization_solves, report.linv_solves, report.uinv_solves] {
            assert_eq!((solves.tail_columns, solves.tail_multiply_subtracts), (0, 0));
            assert!(solves.multiply_subtracts > 0);
        }
    }

    #[test]
    fn builder_matches_legacy_build_bitwise() {
        let g = ring(40);
        for ordering in [NodeOrdering::Natural, NodeOrdering::Degree, NodeOrdering::Hybrid] {
            let options = IndexOptions { ordering, ..Default::default() };
            let legacy = KdashIndex::build(&g, options).unwrap();
            for threads in [1usize, 2, 0] {
                let staged =
                    IndexBuilder::from_options(options).threads(threads).build(&g).unwrap();
                for q in [0u32, 7, 21] {
                    let a = legacy.top_k(q, 6).unwrap();
                    let b = staged.top_k(q, 6).unwrap();
                    assert_eq!(a.nodes(), b.nodes(), "{ordering:?} threads {threads}");
                    for (x, y) in a.items.iter().zip(&b.items) {
                        assert_eq!(x.proximity.to_bits(), y.proximity.to_bits());
                    }
                }
                assert_eq!(legacy.stats().nnz_l_inv, staged.stats().nnz_l_inv);
                assert_eq!(legacy.stats().nnz_u_inv, staged.stats().nnz_u_inv);
            }
        }
    }

    #[test]
    fn community_stats_flow_through_report() {
        let g = ring(24);
        let (_, hybrid) =
            IndexBuilder::new().ordering(NodeOrdering::Hybrid).build_with_report(&g).unwrap();
        assert!(hybrid.ordering.communities.is_some());
        let (_, degree) =
            IndexBuilder::new().ordering(NodeOrdering::Degree).build_with_report(&g).unwrap();
        assert_eq!(degree.ordering, OrderingStats::default());
    }

    #[test]
    fn builder_setters_compose() {
        let b = IndexBuilder::new()
            .ordering(NodeOrdering::Degree)
            .restart_probability(0.8)
            .threads(4);
        assert_eq!(b.options().ordering, NodeOrdering::Degree);
        assert_eq!(b.options().restart_probability, 0.8);
        let g = ring(12);
        let index = b.build(&g).unwrap();
        assert_eq!(index.ordering(), NodeOrdering::Degree);
        assert_eq!(index.restart_probability(), 0.8);
    }

    #[test]
    fn pinned_permutation_reproduces_the_heuristic_build() {
        let g = ring(36);
        let (reference, report) =
            IndexBuilder::new().ordering(NodeOrdering::Hybrid).build_with_report(&g).unwrap();
        assert!(report.ordering.communities.is_some());
        // Pinning the exact permutation the heuristic chose must
        // reproduce the index bit-for-bit (the equivalence-suite rebuild
        // path), while skipping the heuristic itself.
        let (pinned, pinned_report) = IndexBuilder::new()
            .ordering(NodeOrdering::Hybrid)
            .permutation(reference.permutation().clone())
            .build_with_report(&g)
            .unwrap();
        assert_eq!(pinned_report.ordering, OrderingStats::default());
        let (ap, ai, av) = reference.linv_cols().raw();
        let (bp, bi, bv) = pinned.linv_cols().raw();
        assert_eq!((ap, ai), (bp, bi));
        assert!(av.iter().zip(bv).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(reference.uinv_rows(), pinned.uinv_rows());
        for q in [0u32, 17, 35] {
            let (a, b) = (reference.top_k(q, 5).unwrap(), pinned.top_k(q, 5).unwrap());
            assert_eq!(a.items, b.items);
        }
        // Wrong-length pins are typed errors.
        let err = IndexBuilder::new()
            .permutation(kdash_graph::Permutation::identity(7))
            .build(&g);
        assert!(matches!(err, Err(KdashError::Graph(_))));
    }

    #[test]
    fn fresh_builds_start_at_epoch_zero() {
        let g = ring(12);
        let index = IndexBuilder::new().build(&g).unwrap();
        assert_eq!(index.update_epoch(), 0);
        assert_eq!(index.dangling_policy(), DanglingPolicy::Keep);
    }

    #[test]
    fn duration_of_unknown_stage_is_zero() {
        let report = BuildReport::default();
        assert_eq!(report.duration_of(BuildStage::Inversion), Duration::ZERO);
        assert_eq!(report.total(), Duration::ZERO);
    }

    #[test]
    fn build_errors_propagate_through_pipeline() {
        let g = ring(10);
        let err = IndexBuilder::new().restart_probability(2.0).build(&g);
        assert!(err.is_err());
    }
}
