//! # kdash-core
//!
//! K-dash: exact top-k proximity search for Random Walk with Restart,
//! reproducing *Fujiwara, Nakatsuji, Onizuka, Kitsuregawa — "Fast and Exact
//! Top-k Search for Random Walk with Restart", PVLDB 5(5), 2012*.
//!
//! ## The algorithm in one paragraph
//!
//! RWR proximities from a query node `q` solve
//! `p = (1−c) A p + c e_q  ⇔  p = c W⁻¹ e_q` with `W = I − (1−c)A`
//! (Equations (1)–(2)). K-dash precomputes a node reordering that keeps the
//! triangular inverses of `W = LU` sparse, stores `L⁻¹` (column-major) and
//! `U⁻¹` (row-major), and answers a query by walking a breadth-first tree
//! rooted at `q`: each visited node gets its exact proximity as a sparse
//! row-times-column product `c · (U⁻¹)ᵤ · (L⁻¹ e_q)`, and the moment no
//! node still uncomputed can reach the current K-th best proximity the
//! search *terminates*, provably without missing an answer (Theorem 2).
//! The paper decides that with a cheap upper bound on the next node
//! (Definition 1, updated in `O(1)` per Definition 2, extended to the rest
//! by Lemmas 1–2); this crate bounds every uncomputed node at once from
//! the RWR equation itself — the exact in-neighbour sums of what is
//! computed plus the query's remaining proximity mass — a bound
//! Definition 2 relaxes, so it computes no more than the paper's
//! search anywhere and several times less where walks die in sinks.
//!
//! ## Quick start
//!
//! ```
//! use kdash_core::{KdashIndex, IndexOptions, NodeOrdering};
//! use kdash_graph::GraphBuilder;
//!
//! // A little directed ring with a chord.
//! let mut b = GraphBuilder::new(5);
//! for v in 0..5u32 { b.add_edge(v, (v + 1) % 5, 1.0); }
//! b.add_edge(0, 2, 2.0);
//! let graph = b.build().unwrap();
//!
//! let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
//! let result = index.top_k(0, 3).unwrap();
//! assert_eq!(result.items.len(), 3);
//! assert_eq!(result.items[0].node, 0); // the query node ranks first
//! ```
//!
//! The default [`IndexOptions`] use the paper's settings: hybrid reordering
//! and restart probability `c = 0.95`.
//!
//! ## Building at scale: the staged [`IndexBuilder`] pipeline
//!
//! [`KdashIndex::build`] is a convenience wrapper over a four-stage
//! pipeline — `ordering → factorization → inversion → assemble` — that
//! [`IndexBuilder`] exposes directly (the bounds' constants are derived
//! from the graph in `assemble`, as on a load or an update). Each stage is
//! individually timed ([`IndexBuilder::build_with_report`]), and the
//! inversion stage, which dominates precomputation cost (the paper's
//! Figure 6), runs its independent column solves on a work-stealing
//! worker pool: `threads(0)` uses every core, and the stored inverses are
//! **bit-identical** at any thread count.
//!
//! ```
//! use kdash_core::{IndexBuilder, NodeOrdering};
//! use kdash_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new(48);
//! for v in 0..48u32 { b.add_edge(v, (v + 1) % 48, 1.0); }
//! let graph = b.build().unwrap();
//!
//! let (index, report) = IndexBuilder::new()
//!     .ordering(NodeOrdering::Hybrid)  // Louvain-backed cluster+degree order
//!     .threads(0)                      // parallel triangular inversion
//!     .build_with_report(&graph)
//!     .unwrap();
//! for timing in &report.stages {
//!     println!("{:<14} {:?}", timing.stage.name(), timing.duration);
//! }
//! assert_eq!(index.top_k(0, 3).unwrap().items.len(), 3);
//! ```
//!
//! ## Serving loops: reuse a [`Searcher`]
//!
//! [`KdashIndex::top_k`] builds a transient query workspace per call. A
//! serving loop should hold a [`Searcher`] instead: the `O(n)` BFS and
//! scatter buffers are allocated once and every query after the first
//! allocates nothing (with [`Searcher::top_k_into`]) — the per-candidate
//! work drops to a dense gather over the stored `U⁻¹` row.
//!
//! ```
//! use kdash_core::{KdashIndex, IndexOptions, TopKResult};
//! use kdash_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new(64);
//! for v in 0..64u32 { b.add_edge(v, (v + 1) % 64, 1.0); b.add_edge(v, (v + 7) % 64, 0.5); }
//! let index = KdashIndex::build(&b.build().unwrap(), IndexOptions::default()).unwrap();
//!
//! let mut searcher = index.searcher();       // one per serving thread
//! let mut result = TopKResult::default();    // reused result buffer
//! for q in 0..64u32 {
//!     searcher.top_k_into(q, 10, &mut result).unwrap(); // allocation-free after warm-up
//!     assert_eq!(result.items[0].node, q);
//! }
//! ```
//!
//! A built index is immutable, so queries parallelise across threads with
//! one `Searcher` per thread. The serving tier (`kdash-serve`) does that
//! with a worker pool, each worker folding its requests through one
//! panic-isolated [`IsolatedExecutor`].
//!
//! ## Serving changing graphs
//!
//! The index does not have to be rebuilt when the graph changes: the
//! `kdash-dynamic` crate wraps a [`KdashIndex`] in a `DynamicIndex` that
//! applies validated edge-edit batches **incrementally** — a
//! Gilbert–Peierls reach analysis bounds exactly which `L⁻¹`/`U⁻¹`
//! columns an edit can touch, only those re-run their triangular
//! solves, and the patched index is bit-for-bit what a from-scratch
//! rebuild under the same node order would produce. A [`KdashIndex`] is
//! never modified: an update assembles the *next* index and the engine
//! swaps an `Arc`, so readers keep the one they hold.
//! [`KdashIndex::update_epoch`] counts applied batches (persisted from
//! index-format v3).
//!
//! Every query kind — top-k, threshold, restart set — runs through **one
//! search driver** on the [`Searcher`], monomorphised over a bound policy
//! (the stop rule) and a stop goal (k-th best vs a fixed θ), with the
//! source (one node vs a restart set) fixed by each entry point's
//! prologue. The paper's yardsticks live apart, in [`paper`], one
//! spelling each: Figure 7's search without pruning and Appendix D.1's
//! random-root tree drive the same loop under another bound, and the
//! eager merge-join oracle the equivalence suites hold the driver to
//! stops where the paper's Definition 2 ([`paper::LayerEstimator`]) does,
//! so its counters are the paper's. Four hot-path levers live on the
//! index and that driver:
//!
//! * **Lazy frontier** — BFS layers are discovered on demand inside the
//!   driver, so a query the stop rule terminates early never
//!   enumerates the layers it pruned away.
//!   [`SearchStats::frontier_expanded`] reports the traversal work paid;
//!   [`SearchStats::reachable`] is the discovered-so-far count on
//!   early-terminated queries (exact reachability on complete runs).
//! * **Blocked index encoding** — the stored `U⁻¹`
//!   ([`kdash_sparse::ProximityStore`], one type with one row encoding)
//!   encodes column indices as `u16` deltas against aligned block
//!   anchors: ~half the index bytes of flat CSR on the fill-dominated
//!   inverse rows (pinned by `tests/layout_equivalence.rs`), with each
//!   row's sum bit-identical to the same row in CSR form
//!   (`tests/kernel_equivalence.rs`).
//! * **Gather kernel** — the query column is a dense vector that is zero
//!   outside its loaded entries, so the gather multiplies every stored
//!   entry unconditionally — four lanes, no branch. Its AVX2 and
//!   portable bodies share one operation order and are bit-identical on
//!   every row, so answers are deterministic across machines and there
//!   is **no runtime kernel selector**: a workspace takes
//!   [`ResolvedKernel::default`] — AVX2 or the portable twin, from the
//!   host — once. (The hidden `Searcher::with_kernel` takes another
//!   token, the seam of the bit-identity suites: `ResolvedKernel::reference`
//!   is the one-accumulator order, bit-identical to the merge join.) The
//!   resolution and the row counts are recorded in [`SearchStats`] for
//!   reproducibility.
//! * **Prefetched candidate batching** — the driver prefetches the
//!   next block of candidate rows' index/value spans while the current
//!   row gathers, restoring memory-level parallelism on DRAM-resident
//!   indexes.
//!
//! ## The exactness contract under sparsified indexes
//!
//! [`IndexOptions::drop_tolerance`](precompute::IndexOptions) > 0 builds a
//! **sparsified index tier**: entries of `L⁻¹`/`U⁻¹` below `ε` are
//! truncated during inversion (shrinking both build time and stored
//! bytes), and the per-column dropped ℓ₁ masses are stored alongside.
//! Answers remain *exact* — the brand does not change — because queries on
//! a sparsified index run a **certified residual refinement loop** instead
//! of trusting the stored values. It solves for `x̃ ≈ W⁻¹ b` (`b` is the
//! unit restart vector `e_q`, or the merged restart-set vector) over the
//! query's reachable set and computes the residual `r = b − W x̃` directly
//! against the stored permuted graph, never from the stored inverses.
//! Because `A` is column-substochastic, `c·W⁻¹ = c·Σ ((1−c)A)^i` is
//! entrywise non-negative, and its entry `(u, j)` is the proximity of `u`
//! for a walk restarting at `j`: at most `1−c` when `u ≠ j` and at most 1
//! on the diagonal. The error `p − c·x̃ = c·W⁻¹r` therefore obeys, node by
//! node, `|p_u − c·x̃_u| ≤ c·|r_u| + (1−c)·‖r‖₁` — under either
//! [`DanglingPolicy`](kdash_sparse::DanglingPolicy) and for restart sets
//! alike, the same upper/lower-bound style as the paper's Lemma 2 applied
//! to the refinement residual instead of the BFS frontier.
//!
//! That certificate is the contract. A top-k answer is returned once each
//! answer's lower bound exceeds the next answer's upper bound and the
//! k-th's exceeds the upper bound of *every* node outside the answer; a
//! threshold answer once every node is provably on one side of θ and the
//! hits are provably ordered — **and** every returned value's bound is
//! within [`VALUE_TOLERANCE`] (`5·10⁻¹⁰`). Then set, order and values are
//! those of the exact answer. Until then the loop takes another step —
//! one pass over the reachable set, a Gauss–Seidel sweep or a
//! preconditioned correction `x̃ += Ũ⁻¹(L̃⁻¹ r)`, whichever its planner
//! expects to be cheaper; the first step is one of the two like any
//! other. The loop, its one pass shape and the planner are described in
//! the module docs of `searcher/refine.rs`.
//!
//! The loop fails *loudly* ([`KdashError::RefinementFailed`]) if
//! proximities are genuinely tied or closer than the achievable
//! floating-point floor, or if the residual stops contracting or is not
//! finite — it never returns a ranking it could not prove. Only a residual
//! of exactly zero certifies across a tie, and the tie then resolves as on
//! the dense path (the policy is written down at [`VALUE_TOLERANCE`]).
//! With `drop_tolerance = 0` (the default) nothing changes: the build
//! routes through the exact inverters bit-for-bit and queries run the
//! classic stop-rule path with zero refinement iterations.
//!
//! ## Operational guarantees
//!
//! Exactness is the brand, so the failure modes are engineered to be
//! *loud* rather than approximate:
//!
//! * **Crash-safe writes** — [`persist::save_atomic`] writes a temp file,
//!   fsyncs it, and renames it over the destination (then fsyncs the
//!   directory), so an interrupted save leaves the previous index intact.
//!   `kdash build` and `kdash update --out` both go through it. Transient
//!   failures (`EINTR`-class) are retried with bounded backoff; anything
//!   else surfaces as a typed [`persist::PersistError::Io`] naming the
//!   failing [stage](persist::IoStage) (tmp-write / fsync / rename /
//!   dir-fsync). An fsync that reports an *I/O error* is never retried
//!   (only `EINTR`-class interruptions are): once the kernel has
//!   reported write-back failure, dirty pages may already be gone, and
//!   retry-until-ok would convert data loss into a success report.
//! * **Corruption detection** — the on-disk format checksums every
//!   section (graph, `L⁻¹`, `U⁻¹`, row stats, estimator, dropped masses,
//!   trailer) with CRC32 plus a whole-file footer; [`KdashIndex::load`]
//!   reports a typed [`persist::PersistError`] naming the failing section
//!   and byte offset. The reader accepts the current format (v5) alone —
//!   no load path skips a CRC — and refuses v1–v4 with
//!   [`persist::PersistError::UnsupportedVersion`].
//! * **Deep auditing** — [`audit::IndexAudit::run`] re-verifies every
//!   structural invariant of a loaded or patched index by running each
//!   component's own check (the checks its constructor runs: permutation
//!   bijectivity, the graph's and `L⁻¹`'s arrays, the blocked `U⁻¹`
//!   encoding and the store's derived tables, the header and the
//!   sparsification record), plus what no constructor states: the unit
//!   diagonal leading every `L⁻¹` column, the nonzero diagonal leading
//!   every `U⁻¹` row, and the estimator constants recomputed bit-for-bit.
//!   Exposed as `kdash verify <index>` and as an opt-in post-update check
//!   on the dynamic engine (`DynamicIndex::verify_after_apply`).
//! * **Query failure isolation** — [`IsolatedExecutor::run`] wraps every
//!   query in `catch_unwind`: one poisoned query yields one
//!   [`BatchOutcome::Failed`] — a panic becomes a typed
//!   [`KdashError::QueryPanicked`] — while every other query the executor
//!   runs completes with bit-identical results.
//! * **Query budgets** — a [`QueryBudget`] on a [`Searcher`] (or an
//!   executor's [`BatchOptions`]) bounds frontier visits, gathered `U⁻¹`
//!   entries, and wall clock per query; a query that would exceed a
//!   ceiling aborts with a typed [`KdashError::BudgetExceeded`] carrying
//!   its [`SearchStats`] — never a silently truncated "exact" answer.
//!
//! ### Durability contract (journaled updates)
//!
//! With a sidecar write-ahead journal attached (`kdash-dynamic`'s
//! journaled mode, `kdash update --journal`), the update path promises:
//!
//! * **After an acknowledged apply** — the batch's journal frame
//!   (length, CRC32, epoch) was written *and fsynced* before the engine
//!   switched to the patched index, so a crash at any later instant
//!   loses nothing: recovery replays the frame onto the last snapshot and
//!   lands on an index bit-identical to the pre-crash one. If the journal
//!   write itself fails, the apply returns [`KdashError::JournalFailed`]
//!   and the engine keeps the index it had — acknowledgement and
//!   durability cannot disagree.
//! * **After a checkpoint** — `save_atomic` has durably replaced the
//!   snapshot (old-or-new atomicity, as above) and only then was the
//!   journal truncated — itself atomically, by renaming a fresh
//!   header-only journal into place. A crash between the two steps
//!   leaves snapshot *and* journal records; recovery skips frames at or
//!   below the snapshot's epoch, so replay is idempotent.
//! * **After a torn tail** — a crash mid-append leaves a prefix of a
//!   frame. Recovery (and reopening for append) scans frames, stops at
//!   the first bad length/CRC/epoch, truncates the tail, and replays
//!   only the intact prefix — typed errors throughout, never a panic,
//!   and never a frame acknowledged but not replayed (the torn frame was
//!   by construction never acknowledged). Epochs inside the journal must
//!   be contiguous and ascending; a gap above the snapshot epoch means
//!   acknowledged records were lost out-of-band and recovery refuses
//!   with a typed error rather than silently skipping history.
//!
//! The whole contract is enforced by a crash-point sweep in
//! `tests/failure_injection.rs`: a [`fault::CrashPlan`] kills the
//! pipeline at *every* injectable point (each byte of each write, each
//! fsync, rename and truncate) and recovery must produce an
//! [`IndexAudit`]-clean index, bit-identical to the live-apply state at
//! a well-defined epoch.

#![forbid(unsafe_code)]

pub mod audit;
pub mod batch;
mod estimator;
pub mod fault;
pub mod ordering;
pub mod paper;
pub mod persist;
pub mod pipeline;
pub mod precompute;
pub mod search;
pub mod searcher;
pub mod stats;

pub use audit::{AuditFinding, AuditSection, IndexAudit};
pub use batch::{BatchOptions, BatchOutcome, IsolatedExecutor};
pub use ordering::{compute_ordering, compute_ordering_with_stats, NodeOrdering, OrderingStats};
pub use fault::{CrashPlan, FaultInjector, NoFaults, WriteRuling};
pub use persist::{save_atomic, save_atomic_with, IoStage, LoadInfo, PersistError};
pub use pipeline::{BuildReport, BuildStage, IndexBuilder, StageTiming};
pub use precompute::{IndexOptions, KdashIndex};
#[doc(hidden)]
pub use precompute::IndexPatch;
pub use search::{RankedNode, TopKResult};
pub use searcher::{BudgetLimit, QueryBudget, Searcher, VALUE_TOLERANCE};
pub use stats::{IndexStats, SearchStats};

/// The gather-kernel token a [`Searcher`] runs (and the seam of the
/// bit-identity suites), re-exported so callers need not depend on
/// `kdash-sparse` directly; and the per-stage solve counts a
/// [`BuildReport`] carries.
pub use kdash_sparse::{ResolvedKernel, SolveTally};

/// Errors surfaced by index construction and queries.
#[derive(Debug, Clone, PartialEq)]
pub enum KdashError {
    /// A query or root node id was out of bounds.
    NodeOutOfBounds { node: kdash_graph::NodeId, num_nodes: usize },
    /// A threshold query received a non-positive or non-finite θ.
    InvalidThreshold { theta: f64 },
    /// A restart-set query received an empty set, a duplicate node, or an
    /// otherwise unusable source set.
    InvalidRestartSet { reason: String },
    /// Propagated graph error.
    Graph(kdash_graph::GraphError),
    /// Propagated sparse-kernel error.
    Sparse(kdash_sparse::SparseError),
    /// A query exceeded its [`QueryBudget`]: `limit` names the ceiling
    /// that fired and `stats` carries the work accumulated up to the
    /// abort. The query has no answer — budgets abort, never truncate.
    BudgetExceeded { limit: BudgetLimit, stats: Box<SearchStats> },
    /// A query panicked inside an [`IsolatedExecutor`] and was isolated by
    /// `catch_unwind`; `message` is the panic payload when it was a
    /// string. The executor's other queries are unaffected.
    QueryPanicked { message: String },
    /// A deep structural audit ([`IndexAudit::run`]) found invariant
    /// violations; each entry is `"<section>: <detail>"`.
    AuditFailed { findings: Vec<String> },
    /// The certified refinement loop on a sparsified index could not
    /// prove its goal: after `iterations` refinement steps (sweeps and
    /// corrections) the residual norm `‖r‖₁` was `residual` and had
    /// stopped contracting (or the step cap was reached). `gap` is the
    /// smallest decisive margin of the last check — a lower bound minus
    /// the upper bound it had to clear (for the full vector: the floor
    /// minus the widest bound) — negative while the per-node bounds still
    /// overlap. This happens when
    /// proximities are tied (or separated by less than the achievable
    /// floating-point floor), or — with a non-finite `residual` and a
    /// `gap` of −∞ — when the stored values overflowed: the query has no
    /// answer rather than a silently mis-ordered one. A dense-exact index
    /// (`drop_tolerance = 0`) never takes this path.
    RefinementFailed { iterations: usize, residual: f64, gap: f64 },
    /// A durability operation on the attached update journal failed
    /// before the engine switched to the patched index: the in-memory
    /// index is the one from before the call and the durable journal
    /// prefix still ends at the last acknowledged batch (a torn partial
    /// frame is healed in place or skipped by recovery). `detail` renders the underlying journal
    /// error; the rich typed form lives in `kdash-dynamic`'s
    /// `JournalError` (this enum is `Clone + PartialEq`, so it cannot
    /// carry the `io::Error` itself).
    JournalFailed { detail: String },
}

impl std::fmt::Display for KdashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KdashError::NodeOutOfBounds { node, num_nodes } => {
                write!(f, "node {node} out of bounds for index over {num_nodes} nodes")
            }
            KdashError::InvalidThreshold { theta } => {
                write!(f, "threshold {theta} must be positive and finite")
            }
            KdashError::InvalidRestartSet { reason } => {
                write!(f, "invalid restart set: {reason}")
            }
            KdashError::Graph(e) => write!(f, "graph error: {e}"),
            KdashError::Sparse(e) => write!(f, "sparse error: {e}"),
            KdashError::BudgetExceeded { limit, stats } => {
                write!(
                    f,
                    "query aborted: {limit} exceeded after visiting {} nodes \
                     ({} stored entries gathered)",
                    stats.visited, stats.nnz_gathered
                )
            }
            KdashError::QueryPanicked { message } => {
                write!(f, "query panicked: {message}")
            }
            KdashError::AuditFailed { findings } => {
                write!(f, "index audit failed with {} finding(s)", findings.len())?;
                if let Some(first) = findings.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            KdashError::RefinementFailed { iterations, residual, gap } => {
                write!(
                    f,
                    "refinement could not certify the answer after {iterations} \
                     step(s): residual norm {residual:.3e}, smallest decisive margin \
                     {gap:.3e} (tied or near-tied proximities)"
                )
            }
            KdashError::JournalFailed { detail } => {
                write!(f, "update journal failure (index not modified): {detail}")
            }
        }
    }
}

impl std::error::Error for KdashError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KdashError::Graph(e) => Some(e),
            KdashError::Sparse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<kdash_graph::GraphError> for KdashError {
    fn from(e: kdash_graph::GraphError) -> Self {
        KdashError::Graph(e)
    }
}

impl From<kdash_sparse::SparseError> for KdashError {
    fn from(e: kdash_sparse::SparseError) -> Self {
        KdashError::Sparse(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, KdashError>;
