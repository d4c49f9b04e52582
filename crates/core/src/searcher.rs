//! The reusable query workspace and the one search driver.
//!
//! A [`Searcher`] owns every piece of per-query state the top-k search
//! needs — the epoch-stamped BFS buffers ([`kdash_graph::BfsScratch`]),
//! the scattered query column ([`kdash_sparse::ScatteredColumn`]), the
//! top-k heap, the threshold-hit scratch and the stop rule's in-neighbour
//! sums — so a serving loop pays the `O(n)` allocations once and every
//! subsequent query touches only the state it actually visits. Once the
//! buffers have reached their high-water mark (i.e. after warm-up queries
//! covering the largest reachable set and `k` the loop will serve),
//! [`Searcher::top_k_into`] performs **zero heap allocations** (the
//! `tests/zero_alloc.rs` integration test pins this down with a counting
//! allocator).
//!
//! # One driver, three policies
//!
//! The paper has one search procedure (Algorithm 4): visit in BFS-layer
//! order, bound, terminate, else compute. Its ablations and our
//! extensions only swap a policy, so there is one visit loop —
//! `Searcher::drive` — and every entry point is *prologue → drive →
//! epilogue*:
//!
//! * **source** — fixed by the prologue (`seed_node` / `seed_set`): which
//!   `L⁻¹` column a dense index scatters, which roots seed the BFS, which
//!   right-hand side the certified tier solves for. A single query is a
//!   restart set of one; layer 0 is always computed, never pruned, in
//!   both.
//! * **bound** — a type parameter: the stop rule (`Inflow`: exact
//!   in-neighbour sums of what is computed plus the query's remaining
//!   proximity mass bound every uncomputed node at once — the lemma of the
//!   crate-private `estimator` module, of which the paper's Definition 2
//!   is a relaxation) may *stop* the search. It is the one bound that serves;
//!   the paper's two ablations in [`crate::paper`] plug into the same
//!   crate-visible hooks (`Bound`, `seed_node`, `ranked`): the
//!   order-agnostic bound of the Appendix D.1 random-root run may only
//!   *skip* one node, rooting the tree elsewhere (`Bound::tree_root`) and
//!   running the visit on past it into the ids it missed (the unreached
//!   tail); Figure 7's "without pruning" computes everything. Stopping
//!   never reorders or skips: the computed nodes are a prefix of the BFS
//!   order, and the heap sees the offers an unpruned run would make, in
//!   the same order, up to the stop.
//! * **goal** — a type parameter: the k-th best proximity so far (the
//!   heap) or a fixed threshold θ (the hit list) — the pair the certified
//!   tier proves as `RefineGoal`.
//!
//! Both are monomorphised, nothing is dispatched per node: the budget
//! check, the prefetch, the frontier step, the gather, the [`SearchStats`]
//! bookkeeping and the hand-off to the certified tier each exist once.
//!
//! The BFS that orders the visit is fused into the driver: layers are
//! discovered on demand ([`BfsScratch::expand_next_layer`]), so a query
//! the stop rule ends after a few layers never even *discovers* the rest
//! of the reachable set. [`SearchStats::frontier_expanded`] counts the
//! nodes whose out-edges were scanned, and [`SearchStats::reachable`] is
//! the discovered-so-far count on early-terminated queries (exact
//! reachability when the search runs to completion, and always on the
//! certified tier, which may list most of it without scanning it).
//! Layer-at-a-time expansion reproduces the eager queue order exactly
//! (`kdash-graph` pins that at every prefix), so results and visit order
//! are those of the eager oracle, [`crate::paper::top_k_merge_join`].
//!
//! # Proximity kernel
//!
//! The fixed query column `L⁻¹ e_q` is scattered once per dense-tier
//! query, then each candidate costs a gather over only `nnz((U⁻¹)ᵤ)`
//! through the branch-free four-lane kernel — AVX2 where the host has it,
//! its portable twin otherwise, resolved once per workspace. There is no
//! runtime selector: the two bodies are bit-identical, and within `1e-12`
//! of the one-accumulator scalar reference the bit-identity suites reach
//! through the hidden `Searcher::with_kernel` and hold against the
//! merge-join oracle ([`crate::paper::top_k_merge_join`]). Rows stream from the index's
//! [`ProximityStore`](kdash_sparse::ProximityStore) (blocked u16-delta
//! encoding), candidate rows are
//! software-prefetched a block ahead ([`PREFETCH_BLOCK`]), and every
//! query's byte traffic, row split and resolved kernel land in
//! [`SearchStats`].
//!
//! On a sparsified index the driver hands the seeded query to the
//! certified refinement loop instead (the `refine` child module, whose
//! docs describe its one pass shape).
//!
//! The matching [`KdashIndex`] methods are thin conveniences that build a
//! transient `Searcher` per call.

mod refine;

use crate::estimator::InflowBound;
use crate::{KdashError, KdashIndex, RankedNode, Result, SearchStats, TopKResult};
use kdash_graph::{BfsScratch, NodeId};
use kdash_sparse::{GatherCounters, GatherScratch, ResolvedKernel, ScatteredColumn};
use refine::{RefineGoal, RefineState};
use std::cmp::Ordering;
use std::time::{Duration, Instant};

/// Candidate rows per prefetch block: when the visit cursor enters a new
/// block, the whole block's `U⁻¹` row spans are software-prefetched before
/// the first of them is gathered — so on DRAM-resident indexes the next
/// rows' cache misses overlap the current row's arithmetic instead of
/// serialising behind it. Small enough that an early stop wastes at most a
/// handful of speculative prefetches.
const PREFETCH_BLOCK: usize = 8;

/// The value half of the certified tier's contract: every proximity a
/// refined top-k or threshold query returns is proven to lie within this
/// distance of the exact one (the iterative definition of the same
/// graph). The ranking half alone would let a query stop on a separable
/// order with its values still up to `~2e-8` off; a stricter tolerance
/// costs more refinement steps than it buys.
///
/// The dense tier never consults it. There each proximity is
/// `c·(U⁻¹)ᵤ·(L⁻¹ b)` over exact stored inverses, so its only error is
/// the rounding of the factorisation, the inversion and one dot product:
/// the lane bodies are bit-identical to each other and within `1e-12` of
/// the one-accumulator merge join, and the suites hold answers within
/// `1e-9` of the iterative baseline's converged vector.
///
/// Ties follow one policy on both tiers. At the k-th boundary the
/// earlier-visited of two equal proximities stays: candidates are offered
/// in BFS visit order, and one displaces the k-th only with a strictly
/// larger proximity. Answers are listed by descending proximity, then
/// ascending permuted id. The certified tier crosses a tie only at an
/// exactly zero residual; with any other residual a tie never certifies
/// and the query fails with [`KdashError::RefinementFailed`].
pub const VALUE_TOLERANCE: f64 = 5e-10;

/// Per-node error bound the full-vector refined paths iterate down to:
/// the returned vector is within this `ℓ∞` distance of the exact
/// proximities (and exactly exact when the residual reaches zero). Chosen
/// a couple of decades above `f64` epsilon so accumulation noise cannot
/// stall the loop short of its goal.
pub(crate) const FULL_VECTOR_FLOOR: f64 = 1e-13;

/// The resource ceiling a runaway query hit first — carried inside
/// [`KdashError::BudgetExceeded`] so callers can tell *which* knob fired
/// without parsing a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetLimit {
    /// [`QueryBudget::max_frontier_nodes`] was reached.
    FrontierNodes(usize),
    /// [`QueryBudget::max_gather_nnz`] was reached.
    GatherNnz(usize),
    /// [`QueryBudget::deadline`] elapsed.
    Deadline(Duration),
}

impl std::fmt::Display for BudgetLimit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetLimit::FrontierNodes(n) => write!(f, "frontier budget of {n} visited nodes"),
            BudgetLimit::GatherNnz(n) => write!(f, "gather budget of {n} stored entries"),
            BudgetLimit::Deadline(d) => write!(f, "wall-clock deadline of {d:?}"),
        }
    }
}

/// Per-query resource ceilings for serving tiers that cannot let one
/// pathological query monopolise a worker. The default is unlimited —
/// exactly the pre-budget behaviour, bit for bit.
///
/// Budgets never truncate: a query that would exceed a ceiling is
/// *aborted* with [`KdashError::BudgetExceeded`] (carrying the
/// [`SearchStats`] accumulated so far), never answered with a silently
/// incomplete "exact" result. The two work meters are deterministic and
/// execution-strategy-independent — `max_frontier_nodes` counts visited
/// candidates and `max_gather_nnz` counts stored `U⁻¹` entries of
/// gathered rows, both identical across kernels and thread counts — so
/// the same budget admits exactly the same queries everywhere. Only
/// `deadline` is inherently wall-clock (and therefore machine-dependent);
/// use it as the outermost safety net.
///
/// Checks run once per candidate visit, *before* the candidate's work,
/// so a budget of `N` admits at most `N` whole units — a partial visit
/// is never half-charged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryBudget {
    /// Abort once this many candidates have been visited (frontier work).
    pub max_frontier_nodes: Option<usize>,
    /// Abort once the gathered rows' stored entries reach this total
    /// (proximity work — the dominant cost on dense hub rows). On a
    /// sparsified index every correction gathers a pass of `Ũ⁻¹` rows; a
    /// sweep gathers nothing, so only the other two ceilings can stop one.
    /// A query whose first step is a sweep (every top-k and threshold
    /// query from `c ≈ 0.2807` on) gathers nothing at all: only the
    /// frontier meter and the clock bound it.
    pub max_gather_nnz: Option<usize>,
    /// Abort once this much wall clock has elapsed since the query began.
    pub deadline: Option<Duration>,
}

impl QueryBudget {
    /// No limits — the default, bit-identical to pre-budget behaviour.
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// The clock anchor for [`deadline`](Self::deadline); `None` when no
    /// deadline is set so unbudgeted queries never touch the clock.
    #[inline]
    fn start(&self) -> Option<Instant> {
        self.deadline.map(|_| Instant::now())
    }

    /// The first ceiling the running totals have reached, if any.
    #[inline]
    fn exceeded(
        &self,
        visited: usize,
        gathered_nnz: usize,
        started: Option<Instant>,
    ) -> Option<BudgetLimit> {
        if let Some(max) = self.max_frontier_nodes {
            if visited >= max {
                return Some(BudgetLimit::FrontierNodes(max));
            }
        }
        if let Some(max) = self.max_gather_nnz {
            if gathered_nnz >= max {
                return Some(BudgetLimit::GatherNnz(max));
            }
        }
        if let (Some(deadline), Some(started)) = (self.deadline, started) {
            if started.elapsed() >= deadline {
                return Some(BudgetLimit::Deadline(deadline));
            }
        }
        None
    }
}

/// Fixed-capacity min-heap keeping the K largest `(proximity, node)` pairs.
/// θ (the K-th best proximity so far) is the root once the heap is full.
/// Reusable: [`reset`](TopKHeap::reset) keeps the backing storage.
#[derive(Debug, Clone)]
pub(crate) struct TopKHeap {
    k: usize,
    entries: Vec<(f64, NodeId)>,
}

impl TopKHeap {
    pub(crate) fn new(k: usize) -> Self {
        TopKHeap { k, entries: Vec::with_capacity(k) }
    }

    /// Empties the heap for a new query of size `k`, keeping capacity.
    pub(crate) fn reset(&mut self, k: usize) {
        self.k = k;
        self.entries.clear();
    }

    pub(crate) fn is_full(&self) -> bool {
        self.entries.len() >= self.k
    }

    /// The paper's θ: K-th best proximity, 0 while dummies remain.
    pub(crate) fn threshold(&self) -> f64 {
        if self.k > 0 && self.is_full() {
            self.entries[0].0
        } else {
            0.0
        }
    }

    pub(crate) fn offer(&mut self, proximity: f64, node: NodeId) {
        if self.k == 0 {
            return;
        }
        if !self.is_full() {
            self.entries.push((proximity, node));
            let mut i = self.entries.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if self.entries[parent].0 <= self.entries[i].0 {
                    break;
                }
                self.entries.swap(i, parent);
                i = parent;
            }
        } else if proximity > self.entries[0].0 {
            self.entries[0] = (proximity, node);
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut smallest = i;
                if l < self.entries.len() && self.entries[l].0 < self.entries[smallest].0 {
                    smallest = l;
                }
                if r < self.entries.len() && self.entries[r].0 < self.entries[smallest].0 {
                    smallest = r;
                }
                if smallest == i {
                    break;
                }
                self.entries.swap(i, smallest);
                i = smallest;
            }
        }
    }

    /// Sorts the entries into rank order ([`by_rank`]) in place and
    /// returns them. The comparator is a total order over distinct nodes,
    /// so the unstable sort is deterministic — and allocation-free, unlike
    /// the stable one.
    pub(crate) fn sorted_entries(&mut self) -> &[(f64, NodeId)] {
        self.entries.sort_unstable_by(by_rank);
        &self.entries
    }
}

/// Rank order of `(proximity, node)` answers: descending proximity, ties
/// by ascending node id. A NaN (only ever seen on the way to a typed
/// [`KdashError::RefinementFailed`]) falls back to the IEEE total order:
/// still a total order, so the sorts cannot panic, and no pair of
/// non-NaN values moves.
fn by_rank(a: &(f64, NodeId), b: &(f64, NodeId)) -> Ordering {
    b.0.partial_cmp(&a.0).unwrap_or_else(|| b.0.total_cmp(&a.0)).then(a.1.cmp(&b.1))
}

/// A workspace `(proximity, permuted id)` entry as an answer entry in the
/// caller's id space.
pub(crate) fn ranked_node(index: &KdashIndex, &(proximity, u): &(f64, NodeId)) -> RankedNode {
    RankedNode { node: index.permutation().old_of(u), proximity }
}

/// A reusable query workspace over one [`KdashIndex`].
///
/// Construction is `O(n)`; each query after the first allocates nothing
/// (for [`top_k_into`](Searcher::top_k_into)) or only its result vector.
/// A `Searcher` is single-threaded by design — for parallel serving, give
/// each worker its own (each `kdash-serve` worker does, inside its
/// [`IsolatedExecutor`](crate::IsolatedExecutor)).
///
/// ```
/// use kdash_core::{IndexOptions, KdashIndex, TopKResult};
/// use kdash_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(5);
/// for v in 0..5u32 { b.add_edge(v, (v + 1) % 5, 1.0); }
/// let index = KdashIndex::build(&b.build().unwrap(), IndexOptions::default()).unwrap();
///
/// let mut searcher = index.searcher();
/// let mut result = TopKResult::default();
/// for q in 0..5u32 {
///     searcher.top_k_into(q, 3, &mut result).unwrap();   // no allocations after warm-up
///     assert_eq!(result.items[0].node, q);
/// }
/// ```
#[derive(Debug)]
pub struct Searcher<'a> {
    index: &'a KdashIndex,
    /// Epoch-stamped lazy BFS layers/order, reused across queries.
    bfs: BfsScratch,
    /// The dense scattered query column `L⁻¹ e_q`.
    column: ScatteredColumn,
    /// Top-k candidates of the current query.
    heap: TopKHeap,
    /// Threshold-query hit list scratch.
    hits: Vec<(f64, NodeId)>,
    /// The current query's sources, permuted: the BFS roots, and the
    /// support of the uniform restart vector the certified tier solves for.
    roots: Vec<NodeId>,
    /// `Some(next id)` when the visit runs on past the BFS tree into the
    /// nodes it missed (random-root ablation); `None`: the tree is all.
    tail: Option<NodeId>,
    /// Host-validated gather kernel every proximity runs through.
    kernel: ResolvedKernel,
    /// Byte-traffic and kernel-split counters, reset per query and folded
    /// into [`SearchStats`].
    counters: GatherCounters,
    /// Visit position up to which candidate rows have been prefetched.
    prefetched_until: usize,
    /// Per-query resource ceilings (default: unlimited).
    budget: QueryBudget,
    /// The stop rule's in-neighbour sums, remaining mass and hot stack
    /// (`O(n)` here, nothing per query); every source prologue restarts
    /// it, whichever bound the entry point then drives.
    inflow: InflowBound,
    /// Certified-refinement workspace, allocated on the first refined
    /// query. Stays `None` forever on a dense-exact index.
    refine: Option<Box<RefineState>>,
    /// `(|R|, nodes scanned)` while the certified tier's reachable set
    /// came from the reach anchor and the BFS still stands at its roots;
    /// `None` when the BFS's own counters are the query's. Set by every
    /// refined query before anything reads it, and never on a dense index.
    anchored: Option<(usize, usize)>,
    /// Unit tests' window on the refinement loop.
    #[cfg(test)]
    probe: Option<refine::RefineProbe>,
}

/// The *bound* policy of [`Searcher::drive`]: asked before each node's
/// gather whether it can be spared, fed each computed proximity after it.
/// Crate-visible so [`crate::paper`]'s ablation bounds drive the same loop.
pub(crate) trait Bound {
    /// Whether a prunable node ends the search (the verdict covers every
    /// node not yet computed) or merely spares that node's gather.
    const STOPS: bool;

    /// The node to root the visit tree at instead of the sources. `None`:
    /// the tree grows from the sources, so they are visited first.
    fn tree_root(&self) -> Option<NodeId> {
        None
    }

    /// Whether `u`, about to be visited at tree layer `layer`, provably
    /// stays below the goal's `cutoff` (strictly: a bound equal to it
    /// does not prune).
    fn prunable(&mut self, s: &mut Searcher<'_>, u: NodeId, layer: u32, cutoff: f64) -> bool;

    /// Accounts the exact proximity just computed for `u` and offered to
    /// the goal, whose cutoff is now `cutoff`.
    fn record(&mut self, _: &mut Searcher<'_>, _u: NodeId, _proximity: f64, _cutoff: Option<f64>) {}
}

/// The stop rule of every pruned entry point ([`InflowBound`], in the
/// workspace): the search ends once no node below the sources can still
/// reach the cutoff. Sources (layer 0) carry the restart term and are
/// always computed; the tree grows from them, so once the visit is past
/// layer 0 every uncomputed node — discovered or not, so the undiscovered
/// layers need never be enumerated — is one the bound covers.
struct Inflow;

impl Bound for Inflow {
    const STOPS: bool = true;

    #[inline]
    fn prunable(&mut self, s: &mut Searcher<'_>, _: NodeId, layer: u32, cutoff: f64) -> bool {
        layer > 0 && s.inflow.none_reaches(s.index, cutoff)
    }

    #[inline]
    fn record(&mut self, s: &mut Searcher<'_>, u: NodeId, proximity: f64, cutoff: Option<f64>) {
        s.inflow.record(s.index, u, proximity, cutoff.unwrap_or(0.0));
    }
}

/// The *goal* policy of [`Searcher::drive`]: what a bound is measured
/// against and where the answers accumulate in the workspace (emptied by
/// the entry point).
trait Goal {
    /// The proximity an unvisited node must reach to still matter, or
    /// `None` while anything would. Never falls during a query.
    fn cutoff(&self, s: &Searcher<'_>) -> Option<f64>;
    /// Offers one computed proximity.
    fn offer(&self, s: &mut Searcher<'_>, proximity: f64, u: NodeId);
    /// The same goal as the certified tier must prove it.
    fn certified(&self) -> RefineGoal<'static>;
}

/// The `k` best proximities, in the workspace heap; the cutoff is the
/// paper's θ, the k-th best so far.
struct KthBest(usize);

impl Goal for KthBest {
    #[inline]
    fn cutoff(&self, s: &Searcher<'_>) -> Option<f64> {
        s.heap.is_full().then(|| s.heap.threshold())
    }

    #[inline]
    fn offer(&self, s: &mut Searcher<'_>, proximity: f64, u: NodeId) {
        s.heap.offer(proximity, u);
    }

    fn certified(&self) -> RefineGoal<'static> {
        RefineGoal::TopK(self.0)
    }
}

/// Every proximity of at least the fixed θ, in the workspace hit list
/// (visit order; the epilogue ranks it).
struct AtLeast(f64);

impl Goal for AtLeast {
    #[inline]
    fn cutoff(&self, _: &Searcher<'_>) -> Option<f64> {
        Some(self.0)
    }

    #[inline]
    fn offer(&self, s: &mut Searcher<'_>, proximity: f64, u: NodeId) {
        if proximity >= self.0 {
            s.hits.push((proximity, u));
        }
    }

    fn certified(&self) -> RefineGoal<'static> {
        RefineGoal::Threshold(self.0)
    }
}

impl<'a> Searcher<'a> {
    /// A fresh workspace for `index`. `O(n)` once; queries then reuse it.
    pub fn new(index: &'a KdashIndex) -> Self {
        let n = index.num_nodes();
        Searcher {
            index,
            bfs: BfsScratch::new(n),
            column: ScatteredColumn::new(n),
            heap: TopKHeap::new(0),
            hits: Vec::new(),
            roots: Vec::new(),
            tail: None,
            kernel: ResolvedKernel::default(),
            counters: GatherCounters::default(),
            prefetched_until: 0,
            budget: QueryBudget::default(),
            inflow: InflowBound::new(n),
            refine: None,
            anchored: None,
            #[cfg(test)]
            probe: None,
        }
    }

    /// A fresh workspace running every proximity through `kernel`.
    /// Hidden: the kernel bodies are bit-identical by contract, so this is
    /// the seam of the suites that hold them to it (with
    /// [`ResolvedKernel::reference`], the one-accumulator order, or a token
    /// of [`ResolvedKernel::host_bodies`]), not a tuning knob.
    #[doc(hidden)]
    pub fn with_kernel(index: &'a KdashIndex, kernel: ResolvedKernel) -> Self {
        Searcher { kernel, ..Searcher::new(index) }
    }

    /// The kernel proximities run through (the *resolved* dispatch
    /// target: `avx2` or `unrolled`).
    pub fn kernel(&self) -> ResolvedKernel {
        self.kernel
    }

    /// The index this workspace serves.
    pub fn index(&self) -> &'a KdashIndex {
        self.index
    }

    /// Installs per-query resource ceilings for every subsequent query on
    /// this workspace. `QueryBudget::default()` removes them again.
    pub fn set_budget(&mut self, budget: QueryBudget) {
        self.budget = budget;
    }

    /// The active per-query budget.
    pub fn budget(&self) -> QueryBudget {
        self.budget
    }

    /// The typed abort for a query that hit a budget ceiling: folds the
    /// traversal and gather progress made so far into the carried stats so
    /// the caller can see exactly how far the runaway got. The workspace
    /// itself stays fully reusable — every entry point re-seeds its state.
    #[cold]
    fn budget_abort(&self, limit: BudgetLimit, mut stats: SearchStats) -> KdashError {
        self.record_traversal(&mut stats);
        KdashError::BudgetExceeded { limit, stats: Box::new(stats) }
    }

    /// Source prologue, one query node: validates `q`, scatters its `L⁻¹`
    /// column (on a dense index) and seeds the visit at it. Returns the
    /// permuted query id.
    pub(crate) fn seed_node(&mut self, q: NodeId) -> Result<NodeId> {
        self.index.check_node(q)?;
        let qp = self.index.permutation().new_of(q);
        let (col_idx, col_val) = self.index.linv().col(qp);
        self.begin_visit([qp], col_idx, col_val);
        Ok(qp)
    }

    /// Source prologue, restart set: validates `sources` (non-empty,
    /// duplicate-free, in bounds), scatters the uniformly weighted merge
    /// of their `L⁻¹` columns (on a dense index) and seeds the visit at
    /// all of them.
    fn seed_set(&mut self, sources: &[NodeId]) -> Result<()> {
        let index = self.index;
        let (col_idx, col_val) = index.merged_query_column(sources)?;
        let roots = sources.iter().map(|&s| index.permutation().new_of(s));
        self.begin_visit(roots, &col_idx, &col_val);
        Ok(())
    }

    /// Seeds the lazy BFS at `roots` (layer 0 only — deeper layers are
    /// discovered on demand by the driver), resets the per-query state
    /// and, on a dense index, scatters the (merged) query column the
    /// gathers read. The stop rule's mass is `c` times the column's dot
    /// with the `U⁻¹` column sums — the same dot for one source or a
    /// merged set — taken afresh here so no query inherits its
    /// predecessor's. Where the stored inverses are truncated nothing
    /// gathers against the column (the refinement loop reads `L̃⁻¹`
    /// columns itself), the dot is not the query's mass, nothing consults
    /// the bound, and it stands at the trivial 1.
    fn begin_visit(
        &mut self,
        roots: impl IntoIterator<Item = NodeId>,
        col_idx: &[NodeId],
        col_val: &[f64],
    ) {
        let index = self.index;
        self.roots.clear();
        self.roots.extend(roots);
        self.bfs.begin_multi(index.permuted_graph(), &self.roots);
        self.counters.reset();
        self.prefetched_until = 0;
        self.tail = None;
        let mass = if index.needs_refinement() {
            1.0
        } else {
            self.column.load(col_idx, col_val);
            let sums = index.uinv().column_sums();
            let dot: f64 = col_idx.iter().zip(col_val).map(|(&i, &v)| v * sums[i as usize]).sum();
            index.restart_probability() * dot
        };
        self.inflow.begin(mass);
    }

    /// One candidate proximity gather (without the `c` factor): row `u`
    /// of the stored `U⁻¹` against the scattered query column, through
    /// the workspace kernel, with byte traffic accumulated.
    #[inline]
    fn gather(&mut self, u: NodeId) -> f64 {
        let uinv = self.index.uinv();
        uinv.row_gather(self.kernel, u, &self.column, &mut GatherScratch, &mut self.counters)
    }

    /// Candidate batching: on entering a new block of visit positions,
    /// prefetches the whole block's row spans (index and values) so their
    /// DRAM fetches overlap the gathers that precede them. (Past the tree
    /// the range is empty: the unreached tail prefetches for itself.)
    #[inline]
    fn prefetch_block(&mut self, pos: usize) {
        if pos < self.prefetched_until {
            return;
        }
        let end = (pos + PREFETCH_BLOCK).min(self.bfs.num_discovered());
        let uinv = self.index.uinv();
        for &u in self.bfs.order().get(pos..end).unwrap_or_default() {
            uinv.prefetch_row(u);
        }
        self.prefetched_until = end;
    }

    /// The visit sequence, one step: the node at position `pos` of the
    /// lazy BFS order — discovering exactly one further layer when the
    /// cursor has consumed everything known — then, once the tree is
    /// exhausted, the [`unreached tail`](Self::next_unreached). `None`
    /// ends the visit.
    #[inline]
    fn next_visit(&mut self, pos: usize) -> Option<NodeId> {
        if pos >= self.bfs.num_discovered()
            && self.bfs.expand_next_layer(self.index.permuted_graph()) == 0
        {
            return self.next_unreached();
        }
        Some(self.bfs.order()[pos])
    }

    /// The second segment of a random-root visit sequence: every node the
    /// tree missed, in ascending id (they may still be answers — the walk
    /// starts at the query, not at the root), their rows prefetched a
    /// block of ids ahead. `None` at once when no tail is armed.
    fn next_unreached(&mut self) -> Option<NodeId> {
        let n = self.index.num_nodes() as NodeId;
        let uinv = self.index.uinv();
        let cursor = self.tail.as_mut()?;
        while *cursor < n {
            let v = *cursor;
            *cursor += 1;
            if v % PREFETCH_BLOCK as NodeId == 0 {
                let block = v..(v + PREFETCH_BLOCK as NodeId).min(n);
                block.filter(|&w| !self.bfs.is_reached(w)).for_each(|w| uinv.prefetch_row(w));
            }
            if !self.bfs.is_reached(v) {
                return Some(v);
            }
        }
        None
    }

    /// Folds the traversal and gather counters of the finished (or
    /// abandoned) run into `stats`, and the resolved kernel — how the
    /// host's resolution stays reproducible from logs — once it gathered
    /// a row.
    #[inline]
    fn record_traversal(&self, stats: &mut SearchStats) {
        (stats.reachable, stats.frontier_expanded) =
            self.anchored.unwrap_or((self.bfs.num_discovered(), self.bfs.num_expanded()));
        stats.bytes_touched = self.counters.index_bytes;
        stats.value_bytes_touched = self.counters.value_bytes;
        stats.rows_scalar = self.counters.rows_scalar;
        stats.rows_wide = self.counters.rows_wide;
        stats.nnz_gathered = self.counters.nnz;
        if self.counters.rows_scalar + self.counters.rows_wide > 0 {
            stats.kernel = self.kernel.name();
        }
        stats.query_mass = self.inflow.mass();
    }

    /// The one search procedure (Algorithm 4 and every variant of it) over
    /// the seeded query: visit, bound, stop or skip, else compute, offer
    /// and record. Expects a source prologue to have run and the goal's
    /// accumulator to be empty; leaves the answers there and returns the
    /// work counters.
    #[inline]
    fn drive<B: Bound, G: Goal>(&mut self, mut bound: B, goal: G) -> Result<SearchStats> {
        let index = self.index;
        let mut stats = SearchStats::default();
        if index.needs_refinement() {
            // Sparsified tier: gathered values are approximate, so no
            // bound may prune against them and the visit order is
            // irrelevant — solve the whole reachable set and certify.
            self.refined_run(goal.certified(), &mut stats)?;
            self.record_traversal(&mut stats);
            return Ok(stats);
        }
        if let Some(root) = bound.tree_root() {
            // A bound that cannot stop the search leaves the lazy frontier
            // nothing to save: drain the tree up front (its counters are
            // then exact even on a budget abort) and arm the tail.
            self.bfs.run(index.permuted_graph(), root);
            self.tail = Some(0);
        }
        let c = index.restart_probability();
        let started = self.budget.start();

        // Breaking out of this loop leaves every deeper layer unexpanded.
        let mut pos = 0;
        while let Some(u) = self.next_visit(pos) {
            if let Some(limit) = self.budget.exceeded(stats.visited, self.counters.nnz, started) {
                return Err(self.budget_abort(limit, stats));
            }
            self.prefetch_block(pos);
            stats.visited += 1;
            let layer = self.bfs.layer(u);
            let prunable = goal.cutoff(self).is_some_and(|t| bound.prunable(self, u, layer, t));
            if !prunable {
                let p = c * self.gather(u);
                stats.proximity_computations += 1;
                goal.offer(self, p, u);
                bound.record(self, u, p, goal.cutoff(self));
            } else if B::STOPS {
                stats.terminated_early = true;
                break;
            } else {
                stats.skipped += 1;
            }
            pos += 1;
        }
        self.record_traversal(&mut stats);
        Ok(stats)
    }

    /// Drive and epilogue of the ranking entry points (and of
    /// [`crate::paper`]'s two ablations): `min(k, n)` nodes in rank order,
    /// mapped back to original ids, into `out`.
    #[inline]
    pub(crate) fn ranked<B: Bound>(
        &mut self,
        bound: B,
        k: usize,
        out: &mut TopKResult,
    ) -> Result<()> {
        if k == 0 {
            // The answer is known empty; skip the traversal entirely.
            out.items.clear();
            out.stats = SearchStats::default();
            return Ok(());
        }
        self.heap.reset(k);
        out.stats = self.drive(bound, KthBest(k))?;
        let index = self.index;
        out.items.clear();
        out.items.extend(self.heap.sorted_entries().iter().map(|e| ranked_node(index, e)));
        // Fewer than `k` candidates: pad with unreached, zero-proximity
        // nodes (heap entries are always reached, so pads never collide
        // with them) — unless the visit ran on past the tree and missed
        // no node. Padding and lazy discovery cannot conflict: a heap that
        // never filled never let the search stop, so the traversal ran to
        // exhaustion and `is_reached` is exact reachability.
        if self.tail.is_none() {
            let unreached = (0..index.num_nodes() as NodeId).filter(|&v| !self.bfs.is_reached(v));
            let pads = unreached.take(k - out.items.len());
            out.items.extend(pads.map(|v| ranked_node(index, &(0.0, v))));
        }
        Ok(())
    }

    /// Exact top-k search (Algorithm 4). Returns `min(k, n)` nodes in
    /// descending proximity order; when fewer than `k` nodes are reachable
    /// the remainder is padded with unreachable nodes at proximity 0.
    pub fn top_k(&mut self, q: NodeId, k: usize) -> Result<TopKResult> {
        let mut out = TopKResult::default();
        self.top_k_into(q, k, &mut out)?;
        Ok(out)
    }

    /// [`top_k`](Self::top_k) writing into a caller-owned result, so a
    /// serving loop can reuse the result's allocation too. This is the
    /// zero-allocation hot path: once the workspace buffers have reached
    /// their high-water mark, repeated calls allocate nothing. (The BFS
    /// order and heap grow to the largest reachable set and `k` seen so
    /// far — a later query reaching strictly more nodes than any before
    /// it still grows them once.)
    pub fn top_k_into(&mut self, q: NodeId, k: usize, out: &mut TopKResult) -> Result<()> {
        self.seed_node(q)?;
        self.ranked(Inflow, k, out)
    }

    /// Exact *threshold* query: every node whose proximity is at least
    /// `theta`, in descending order. Extension beyond the paper, enabled
    /// by the same machinery: visit in BFS-layer order and stop as soon as
    /// no uncomputed node's bound reaches `theta` — every one of them is
    /// then provably below the threshold.
    ///
    /// `theta` must be positive and finite; anything else returns
    /// [`KdashError::InvalidThreshold`] (a proximity is a probability mass
    /// in `(0, 1]`, so a non-positive threshold would select every node
    /// and a NaN one nothing meaningful).
    pub fn nodes_above(&mut self, q: NodeId, theta: f64) -> Result<TopKResult> {
        let index = self.index;
        self.seed_node(q)?;
        if !(theta > 0.0 && theta.is_finite()) {
            return Err(KdashError::InvalidThreshold { theta });
        }
        self.hits.clear();
        let stats = self.drive(Inflow, AtLeast(theta))?;
        // (Already ranked when the certified tier delivered the hits.)
        self.hits.sort_unstable_by(by_rank);
        let items = self.hits.iter().map(|e| ranked_node(index, e)).collect();
        Ok(TopKResult { items, stats })
    }

    /// Exact top-k for a *restart set*: the walk restarts uniformly over
    /// `sources` (Personalized PageRank in the sense of the paper's
    /// footnote 6). All sources form layer 0 of the search tree and are
    /// computed exactly; the stop rule applies from layer 1 on, unchanged:
    /// every non-source node still satisfies `p_u = c'_u Σ_v A_uv p_v`,
    /// and the merged column's mass is the set's.
    pub fn top_k_from_set(&mut self, sources: &[NodeId], k: usize) -> Result<TopKResult> {
        let mut out = TopKResult::default();
        // (`sources` are validated for k = 0 too: that short-circuit is later.)
        self.seed_set(sources)?;
        self.ranked(Inflow, k, &mut out)?;
        Ok(out)
    }

    /// The full proximity vector (original id space) through the
    /// certified refinement loop, iterated down to [`FULL_VECTOR_FLOOR`]:
    /// every returned value is within that bound of exact (and exact when
    /// the residual reaches zero). `sources` restart uniformly, so a
    /// singleton slice reproduces the single-query vector. This is the
    /// sparsified-tier backend of [`KdashIndex::full_proximities`] and
    /// friends; on an index that needs no refinement it returns their
    /// exact vector, [`KdashIndex::full_proximities_from_set`]'s.
    #[doc(hidden)]
    pub fn refined_full_proximities(&mut self, sources: &[NodeId]) -> Result<Vec<f64>> {
        if !self.index.needs_refinement() {
            return self.index.full_proximities_from_set(sources);
        }
        self.seed_set(sources)?;
        let mut permuted = vec![0.0; self.index.num_nodes()];
        let mut stats = SearchStats::default();
        self.refined_run(RefineGoal::FullVector(&mut permuted), &mut stats)?;
        Ok(self.index.permutation().unpermute_values(&permuted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use super::refine::{
        certify_threshold, certify_top_k, plan, seed_restart, sweeps_reach, Certificate,
        RefineProbe, Step, StepModel, REFINE_MAX_ITERATIONS,
    };
    use crate::precompute::ReachAnchor;
    use crate::{paper, IndexOptions};
    use kdash_sparse::DanglingPolicy;
    use kdash_datagen::{barabasi_albert, erdos_renyi, rmat, RmatParams};
    use kdash_graph::{BfsTree, GraphBuilder};

    fn tiny_index() -> KdashIndex {
        let mut b = GraphBuilder::new(6);
        for v in 0..6u32 {
            b.add_edge(v, (v + 1) % 6, 1.0);
            b.add_edge(v, (v + 2) % 6, 0.5);
        }
        KdashIndex::build(&b.build().unwrap(), IndexOptions::default()).unwrap()
    }

    #[test]
    fn heap_keeps_largest_k() {
        let mut h = TopKHeap::new(3);
        for (p, n) in [(0.1, 1u32), (0.5, 2), (0.3, 3), (0.9, 4), (0.2, 5)] {
            h.offer(p, n);
        }
        let nodes: Vec<NodeId> = h.sorted_entries().iter().map(|&(_, n)| n).collect();
        assert_eq!(nodes, vec![4, 2, 3]);
    }

    #[test]
    fn heap_threshold_tracks_kth_best() {
        let mut h = TopKHeap::new(2);
        assert_eq!(h.threshold(), 0.0);
        h.offer(0.4, 1);
        assert_eq!(h.threshold(), 0.0, "not full yet");
        h.offer(0.7, 2);
        assert!((h.threshold() - 0.4).abs() < 1e-15);
        h.offer(0.5, 3);
        assert!((h.threshold() - 0.5).abs() < 1e-15);
        h.offer(0.1, 4); // too small, ignored
        assert!((h.threshold() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn heap_with_k_zero_accepts_and_returns_nothing() {
        let mut h = TopKHeap::new(0);
        assert!(h.is_full(), "a zero-capacity heap is trivially full");
        assert_eq!(h.threshold(), 0.0, "but its threshold stays the dummy 0");
        for (p, n) in [(0.9, 1u32), (0.1, 2)] {
            h.offer(p, n);
        }
        assert!(h.sorted_entries().is_empty());
    }

    #[test]
    fn heap_with_k_beyond_population_keeps_everything() {
        let mut h = TopKHeap::new(100);
        for (p, n) in [(0.1, 1u32), (0.5, 2), (0.3, 3)] {
            h.offer(p, n);
        }
        assert!(!h.is_full());
        assert_eq!(h.threshold(), 0.0, "threshold is 0 while dummies remain");
        let nodes: Vec<NodeId> = h.sorted_entries().iter().map(|&(_, n)| n).collect();
        assert_eq!(nodes, vec![2, 3, 1]);
    }

    #[test]
    fn heap_reset_reuses_storage_across_sizes() {
        let mut h = TopKHeap::new(3);
        for i in 0..10u32 {
            h.offer(f64::from(i) * 0.05, i);
        }
        h.reset(1);
        h.offer(0.2, 7);
        h.offer(0.9, 8);
        let top: Vec<NodeId> = h.sorted_entries().iter().map(|&(_, n)| n).collect();
        assert_eq!(top, vec![8]);
        h.reset(0);
        h.offer(1.0, 1);
        assert!(h.sorted_entries().is_empty());
    }

    #[test]
    fn heap_ties_break_by_ascending_node_id() {
        let mut h = TopKHeap::new(4);
        for n in [9u32, 3, 7, 1] {
            h.offer(0.25, n);
        }
        let nodes: Vec<NodeId> = h.sorted_entries().iter().map(|&(_, n)| n).collect();
        assert_eq!(nodes, vec![1, 3, 7, 9]);
    }

    /// `(x̃, r)` over nodes `0..`, for proximities `c·x̃ = p` at the
    /// workload constant `c = 0.95`.
    fn state(p: &[f64], r: &[f64]) -> (Vec<f64>, Vec<f64>, Certificate) {
        let c = 0.95;
        let l1 = r.iter().map(|v| v.abs()).sum();
        (p.iter().map(|p| p / c).collect(), r.to_vec(), Certificate::new(c, l1))
    }

    fn answer(heap: &mut TopKHeap) -> Vec<NodeId> {
        heap.sorted_entries().iter().map(|e| e.1).collect()
    }

    #[test]
    fn per_node_bound_certifies_what_the_uniform_one_cannot() {
        // Answers 2e-9 apart; the residual sits on the outside node 2.
        let (x, r, cert) = state(&[0.5, 0.5 - 2e-9, 0.5 - 4e-9], &[0.0, 0.0, 1.5e-9]);
        assert!(2e-9 <= 2.0 * cert.residual_l1, "the uniform bound cannot separate them");
        let mut heap = TopKHeap::new(0);
        let (certified, margin) = certify_top_k(&x, &r, &[0, 1, 2], 2, cert, &mut heap);
        assert!(certified, "margin {margin:e}");
        assert_eq!(answer(&mut heap), vec![0, 1]);
    }

    #[test]
    fn a_node_below_rank_k_plus_one_with_a_wide_bound_blocks() {
        // k = 1: rank 2 (node 1) is separated from the answer, but rank 3
        // (node 2) carries the whole residual and its upper bound reaches
        // the answer's lower bound.
        let (x, r, cert) = state(&[0.5, 0.5 - 2e-9, 0.5 - 3e-9], &[0.0, 0.0, 4e-9]);
        let lower = 0.5 - cert.radius(0.0);
        assert!(lower > 0.5 - 2e-9 + cert.radius(0.0), "rank k + 1 alone would certify");
        let mut heap = TopKHeap::new(0);
        let (certified, margin) = certify_top_k(&x, &r, &[2, 0, 1], 1, cert, &mut heap);
        assert!(!certified);
        let blocking = lower - (0.5 - 3e-9 + cert.radius(4e-9));
        assert!((margin - blocking).abs() < 1e-15 && margin < 0.0, "{margin:e} vs {blocking:e}");
    }

    #[test]
    fn a_separable_ranking_outside_the_value_tolerance_is_not_certified() {
        // Gaps of 0.2 against bounds of ~5e-9: the order is proven, but
        // the k-th value is not within the tolerance.
        let (x, r, cert) = state(&[0.5, 0.3, 0.1], &[0.0, 5e-9, 0.0]);
        assert!(cert.radius(0.0) <= VALUE_TOLERANCE && cert.radius(5e-9) > VALUE_TOLERANCE);
        let mut heap = TopKHeap::new(0);
        let (certified, margin) = certify_top_k(&x, &r, &[0, 1, 2], 2, cert, &mut heap);
        assert!(margin > 0.19, "the ranking half holds: {margin}");
        assert!(!certified, "the value half must hold too");
        // The threshold goal returns the same values and carries the
        // same obligation.
        let mut hits = Vec::new();
        let (certified, margin) = certify_threshold(&x, &r, &[0, 1, 2], 0.2, cert, &mut hits);
        assert!(margin > 0.09 && !certified);
        // With the residual on the node left out, both certify.
        let (x, r, cert) = state(&[0.5, 0.3, 0.1], &[0.0, 0.0, 5e-9]);
        assert!(certify_top_k(&x, &r, &[0, 1, 2], 2, cert, &mut heap).0);
        assert!(certify_threshold(&x, &r, &[0, 1, 2], 0.2, cert, &mut hits).0);
    }

    #[test]
    fn a_zero_residual_certifies_across_a_tie_in_visit_order() {
        // Nodes 1 and 2 tie at the k-th boundary; node 2 is visited first
        // and stays, as in the dense driver.
        let (x, r, cert) = state(&[0.5, 0.3, 0.3, 0.1], &[0.0; 4]);
        let mut heap = TopKHeap::new(0);
        let (certified, margin) = certify_top_k(&x, &r, &[0, 2, 1, 3], 2, cert, &mut heap);
        assert!(certified && margin == 0.0, "margin {margin}");
        assert_eq!(answer(&mut heap), vec![0, 2]);
        assert!(certify_top_k(&x, &r, &[0, 1, 2, 3], 2, cert, &mut heap).0);
        assert_eq!(answer(&mut heap), vec![0, 1]);
        // Any residual at all and the tie can never separate.
        let (x, r, cert) = state(&[0.5, 0.3, 0.3, 0.1], &[0.0, 0.0, 0.0, 1e-15]);
        assert!(!certify_top_k(&x, &r, &[0, 2, 1, 3], 2, cert, &mut heap).0);
    }

    /// The two steps at restart probability `c`, with the correction's
    /// contraction `rho` and the work per step measured on one RMAT-13
    /// query at ε = 1e-4 (`c = 0.95` there; `c = 0.15` is wider).
    fn models(c: f64, rho: f64, work: [f64; 2]) -> (StepModel, StepModel) {
        let sweep = StepModel { work: work[0], contraction: 1.0 - c };
        (sweep, StepModel { work: work[1], contraction: rho })
    }

    const RMAT_WORK: [f64; 2] = [19_356.0, 65_525.0];
    const RMAT_WIDE_WORK: [f64; 2] = [37_109.0, 822_561.0];

    #[test]
    fn a_sweep_is_planned_where_one_buys_more_per_unit_of_work() {
        // c = 0.95: four sweeps take 7e-4 below the value target for
        // 77k units; a correction and two sweeps would cost 104k.
        let (j, k) = models(0.95, 7e-4, RMAT_WORK);
        assert_eq!(plan(j, k, 7e-4, VALUE_TOLERANCE / 0.05, REFINE_MAX_ITERATIONS), Step::Sweep);
        // c = 0.15: a sweep shrinks ‖r‖₁ by 0.85 at most, so sweeps alone
        // would need 116 steps, past the cap; the cheapest mix that fits
        // holds four corrections, and they run first.
        let (j, k) = models(0.15, 0.085, RMAT_WIDE_WORK);
        let target = VALUE_TOLERANCE / 0.85;
        assert_eq!(plan(j, k, 0.085, target, REFINE_MAX_ITERATIONS), Step::Correction);
    }

    #[test]
    fn a_correction_that_does_not_contract_is_never_planned() {
        for rho in [1.0, 1.5, f64::INFINITY, f64::NAN] {
            // Corrections priced at next to nothing, and still not run.
            let (j, k) = models(0.15, rho, [1e6, 1.0]);
            assert_eq!(plan(j, k, 1.0, 1e-8, REFINE_MAX_ITERATIONS), Step::Sweep, "ρ = {rho}");
            assert_eq!(plan(j, k, 1e-9, 1e-8, REFINE_MAX_ITERATIONS), Step::Sweep, "ρ = {rho}");
        }
    }

    #[test]
    fn a_reached_target_takes_the_step_with_more_shrinkage_per_unit_of_work() {
        // Past the target the ranking is what is left to prove: a sweep
        // buys ln 20 ≈ 3.0 nepers per unit of work, a correction ln 1000 ≈
        // 6.9 nepers over its work — more while that is below ≈ 2.31.
        let (j, k) = models(0.95, 1e-3, [1.0, 2.2]);
        assert_eq!(plan(j, k, 1e-9, 1e-8, REFINE_MAX_ITERATIONS), Step::Correction);
        let (j, k) = models(0.95, 1e-3, [1.0, 2.4]);
        assert_eq!(plan(j, k, 1e-9, 1e-8, REFINE_MAX_ITERATIONS), Step::Sweep);
        let (j, k) = models(0.95, 1e-3, [1.0, 10.0]);
        assert_eq!(plan(j, k, 1e-8, 1e-8, REFINE_MAX_ITERATIONS), Step::Sweep);
    }

    #[test]
    fn no_plan_runs_past_the_step_cap() {
        // Sweeps alone are cheapest here, but need four steps.
        let (j, k) = models(0.95, 1e-6, [1.0, 10.0]);
        assert_eq!(plan(j, k, 1e-3, 1e-8, 4), Step::Sweep);
        assert_eq!(plan(j, k, 1e-3, 1e-8, 3), Step::Correction);
        // Re-planning after every step, with each step contracting as
        // modelled, reaches the target within the cap whenever some mix
        // can.
        for c in [0.95, 0.5, 0.3, 0.15, 0.05] {
            for rho in [1e-6, 1e-3, 0.02, 0.085, 0.3, 0.9] {
                for work in [RMAT_WORK, RMAT_WIDE_WORK, [1.0, 1.0], [1.0, 100.0]] {
                    for cap in [1, 3, 8, 64] {
                        let (j, k) = models(c, rho, work);
                        let (start, target) = (0.1f64, 5e-10);
                        let need = (start / target).ln();
                        let fits = (0..=cap).any(|b| {
                            let rest = need - b as f64 * k.gain();
                            rest <= 0.0 || (rest / j.gain()).ceil() as usize + b <= cap
                        });
                        let (mut residual, mut steps) = (start, 0);
                        while residual > target && steps < cap {
                            residual *= match plan(j, k, residual, target, cap - steps) {
                                Step::Sweep => j.contraction,
                                Step::Correction => k.contraction,
                            };
                            steps += 1;
                        }
                        let label = format!("c {c} ρ {rho} work {work:?} cap {cap}");
                        assert_eq!(residual <= target, fits, "{label}: {steps} steps");
                    }
                }
            }
        }
    }

    #[test]
    fn the_first_pass_is_a_sweep_where_sweeps_alone_reach_the_target() {
        // (c, top-k and threshold goals, full vector): sweeps alone fit the
        // cap from c ≥ 0.2807 on the value target, from c ≥ 0.3736 on the
        // full-vector floor.
        let table = [
            (0.95, true, true),
            (0.5, true, true),
            (0.3, true, false),
            (0.281, true, false),
            (0.280, false, false),
            (0.15, false, false),
            (0.05, false, false),
        ];
        for (c, ranked, full) in table {
            assert_eq!(sweeps_reach(c, VALUE_TOLERANCE / (1.0 - c)), ranked, "c {c} top-k");
            assert_eq!(sweeps_reach(c, FULL_VECTOR_FLOOR), full, "c {c} full vector");
        }
    }

    #[test]
    fn the_refined_loop_runs_over_the_sorted_reachable_set() {
        let ba = barabasi_albert(300, 3, 6);
        let ba_dag = GraphBuilder::from_edges(300, ba.edges().filter(|e| e.0 > e.1));
        let mut ring = GraphBuilder::new(48);
        for v in 0..48 {
            ring.add_undirected_edge(v, (v + 1) % 48, 1.0);
        }
        let families = [
            ("er", erdos_renyi(300, 500, 5)),
            // Newer → older only: a DAG, so the anchor's closure is tiny.
            ("ba", ba_dag.build().unwrap()),
            ("rmat", rmat(8, 700, RmatParams::default(), 7)),
            // Exactly tied: top-k fails to certify, but lists R first.
            ("ring", ring.build().unwrap()),
        ];
        // q = a, q in a's SCC, upstream, downstream (a miss), a sink, and a
        // restart set mixing a root that reaches a with one that does not.
        let mut covered = [0usize; 6];
        for (name, graph) in families {
            let options = IndexOptions { drop_tolerance: 1e-3, ..Default::default() };
            let index = KdashIndex::build(&graph, options).unwrap();
            assert!(index.needs_refinement(), "{name}");
            let (g, perm) = (index.permuted_graph(), index.permutation());
            let a = index.reach_anchor().node.expect("every family has edges");
            let (from_a, to_a) = (BfsTree::new(g, a), BfsTree::new(&g.transpose(), a));
            let (downstream, upstream) =
                (|v| from_a.distance(v).is_some(), |v| to_a.distance(v).is_some());
            let mut s = index.searcher();
            let mut anchored = 0;
            // The loop's ids for permuted `roots`, against the sorted BFS.
            let mut check = |roots: &[NodeId]| {
                let sources: Vec<NodeId> = roots.iter().map(|&r| perm.old_of(r)).collect();
                let _ = s.top_k_from_set(&sources, 3);
                anchored += usize::from(s.anchored.is_some());
                let mut want = BfsTree::new_multi(g, roots).order;
                want.sort_unstable();
                let got = &s.refine.as_ref().expect("the refined loop ran").ids;
                assert_eq!(got, &want, "{name}: roots {roots:?}");
            };
            let n = g.num_nodes() as NodeId;
            for q in 0..n {
                check(&[q]);
                let case = match (q == a, upstream(q), downstream(q)) {
                    (true, ..) => Some(0),
                    (_, true, true) => Some(1),
                    (_, true, false) => Some(2),
                    (_, false, true) => Some(3),
                    (_, false, false) => None,
                };
                if let Some(case) = case {
                    covered[case] += 1;
                }
                covered[4] += usize::from(g.out_degree(q) == 0);
            }
            let (hit, miss) = ((0..n).find(|&v| upstream(v)), (0..n).find(|&v| !upstream(v)));
            if let (Some(hit), Some(miss)) = (hit, miss) {
                check(&[miss, hit]);
                covered[5] += 1;
            }
            check(&[0, n / 2]);
            check(&[n - 1, 1, n / 3]);
            assert!(anchored > 0, "{name}: no query took the anchor path");
        }
        assert!(covered.iter().all(|&c| c > 0), "uncovered case: {covered:?}");
    }

    #[test]
    fn a_zero_residual_tie_keeps_the_earlier_visited_node_on_the_anchor_path() {
        // 2 → 6 ← 5, 6 → 7. In natural order W is lower triangular and every
        // value dyadic, so the first step, a sweep at c = 0.5, reaches
        // ‖r‖₁ = 0 exactly: 2, 5 and 6 all end at proximity 1/4, and top-1
        // is a three-way tie.
        let mut b = GraphBuilder::new(8);
        for (s, t) in [(2, 6), (5, 6), (6, 7)] {
            b.add_edge(s, t, 1.0);
        }
        let options = IndexOptions {
            ordering: crate::NodeOrdering::Natural,
            restart_probability: 0.5,
            drop_tolerance: 0.3,
            ..Default::default()
        };
        let index = KdashIndex::build(&b.build().unwrap(), options).unwrap();
        assert!(index.needs_refinement());
        assert_eq!(index.reach_anchor().node, Some(6));
        let mut drained = index.clone();
        *drained.reach_anchor_mut() = ReachAnchor::default();
        for set in [[5, 2], [2, 5]] {
            let got = index.searcher().top_k_from_set(&set, 1).unwrap();
            let want = drained.searcher().top_k_from_set(&set, 1).unwrap();
            assert_eq!(got.stats.nnz_gathered, 0, "{set:?}: the first step must be a sweep");
            assert_eq!(got.items[0].node, set[0], "{set:?}: the earlier-visited root stays");
            assert_eq!(got.items[0].proximity, 0.25);
            assert_eq!((&got.items, &got.stats), (&want.items, &want.stats), "{set:?}");
        }
    }

    /// `b − W x̃` from `x̃` alone: a plain loop over the stored edges in
    /// descending source id, with out-weight sums of its own. Also returns,
    /// per node, the magnitude of the terms summed there — the scale its
    /// rounding is relative to.
    fn residual_of(index: &KdashIndex, b: &[f64], x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let (g, one_minus_c) = (index.permuted_graph(), 1.0 - index.restart_probability());
        let self_loops = index.dangling_policy() == DanglingPolicy::SelfLoop;
        let mut r: Vec<f64> = b.iter().zip(x).map(|(b, x)| b - x).collect();
        let mut scale: Vec<f64> = b.iter().zip(x).map(|(b, x)| b.abs() + x.abs()).collect();
        let mut add = |t: NodeId, v: f64| {
            r[t as usize] += v;
            scale[t as usize] += v.abs();
        };
        for j in (0..g.num_nodes() as NodeId).rev() {
            let (xj, weights) = (x[j as usize], g.out_weights(j));
            if weights.is_empty() && self_loops {
                add(j, one_minus_c * xj);
            }
            let out_sum: f64 = weights.iter().sum();
            for (&t, &w) in g.out_neighbors(j).iter().zip(weights) {
                add(t, one_minus_c * xj * w / out_sum);
            }
        }
        (r, scale)
    }

    /// One textbook Gauss–Seidel sweep of `x = b + (1−c)·A x` in place, in
    /// ascending id, row by row over the in-edges.
    fn gauss_seidel(index: &KdashIndex, b: &[f64], x: &mut [f64]) {
        let (g, one_minus_c) = (index.permuted_graph(), 1.0 - index.restart_probability());
        let self_loops = index.dangling_policy() == DanglingPolicy::SelfLoop;
        let n = g.num_nodes() as NodeId;
        let out_sum: Vec<f64> = (0..n).map(|j| g.out_weights(j).iter().sum()).collect();
        let into = g.transpose();
        for u in 0..n {
            let mut v = b[u as usize];
            for (&j, &w) in into.out_neighbors(u).iter().zip(into.out_weights(u)) {
                v += one_minus_c * x[j as usize] * w / out_sum[j as usize];
            }
            if self_loops && g.out_degree(u) == 0 {
                v += one_minus_c * x[u as usize];
            }
            x[u as usize] = v;
        }
    }

    /// Runs the full-vector goal from permuted `roots` with a correction
    /// and two sweeps forced after the first step, and holds every step,
    /// the first included, to its contract: the loop's `r` is `b − W x̃` of
    /// its own `x̃`, and a sweep is one Gauss–Seidel sweep that does not
    /// raise `‖r‖₁`. Returns whether the forced correction left a residual
    /// of both signs.
    fn check_steps(label: &str, index: &KdashIndex, roots: &[NodeId]) -> bool {
        let (g, n) = (index.permuted_graph(), index.num_nodes());
        let reach = BfsTree::new_multi(g, roots).order;
        assert!(reach.iter().any(|&v| g.out_degree(v) == 0), "{label}: no sink");
        let mut b = vec![0.0; n];
        seed_restart(&mut b, roots);
        let mut s = index.searcher();
        let script = [Step::Correction, Step::Sweep, Step::Sweep];
        s.probe = Some(RefineProbe { script: script.into(), ..Default::default() });
        let sources: Vec<NodeId> = roots.iter().map(|&r| index.permutation().old_of(r)).collect();
        let run = s.refined_full_proximities(&sources);
        let seen = s.probe.take().unwrap().seen;
        let kinds: Vec<_> = seen.iter().take(4).map(|e| e.0).collect();
        let c = index.restart_probability();
        let first = if sweeps_reach(c, FULL_VECTOR_FLOOR) { Step::Sweep } else { Step::Correction };
        assert_eq!(kinds, [first, Step::Correction, Step::Sweep, Step::Sweep], "{label}");
        let l1 = |r: &[f64]| r.iter().map(|v| v.abs()).sum::<f64>();
        let start = (Step::Sweep, vec![0.0; n], b.clone());
        for (i, (step, x, r)) in seen.iter().enumerate() {
            let (want, scale) = residual_of(index, &b, x);
            for u in reach.iter().map(|&u| u as usize) {
                let err = (r[u] - want[u]).abs();
                assert!(err <= 1e-13 * scale[u], "{label} check {i}: r[{u}] off by {err:e}");
            }
            if *step == Step::Sweep {
                // The first step starts from x̃ = 0, r = b.
                let before = i.checked_sub(1).map_or(&start, |j| &seen[j]);
                let (x_before, r_before) = (&before.1, &before.2);
                assert!(l1(r) <= l1(r_before), "{label} sweep {i}: ‖r‖₁ rose to {:e}", l1(r));
                let mut sweep = x_before.clone();
                gauss_seidel(index, &b, &mut sweep);
                for u in reach.iter().map(|&u| u as usize) {
                    let err = (x[u] - sweep[u]).abs();
                    assert!(err <= 1e-13 * scale[u], "{label} sweep {i}: x̃[{u}] off by {err:e}");
                }
            }
        }
        run.unwrap();
        let r = &seen[1].2;
        r.iter().any(|&v| v > 0.0) && r.iter().any(|&v| v < 0.0)
    }

    #[test]
    fn every_step_leaves_the_residual_of_its_own_iterate() {
        let graphs =
            [("er", erdos_renyi(300, 500, 5)), ("rmat", rmat(8, 700, Default::default(), 7))];
        let mut mixed = 0;
        for (name, graph) in &graphs {
            for dangling in [DanglingPolicy::Keep, DanglingPolicy::SelfLoop] {
                for c in [0.95, 0.15] {
                    let options = IndexOptions {
                        restart_probability: c,
                        dangling,
                        drop_tolerance: 1e-3,
                        ..Default::default()
                    };
                    let index = KdashIndex::build(graph, options).unwrap();
                    assert!(index.needs_refinement(), "{name}");
                    let g = index.permuted_graph();
                    let n = g.num_nodes() as NodeId;
                    let q = (0..n).max_by_key(|&v| BfsTree::new(g, v).order.len()).unwrap();
                    for roots in [vec![q], vec![q, n / 3, 2 * n / 3]] {
                        let label = format!("{name} {dangling:?} c {c} roots {roots:?}");
                        mixed += usize::from(check_steps(&label, &index, &roots));
                    }
                }
            }
        }
        assert!(mixed > 0, "no correction left a mixed-sign residual");
    }

    /// Runs top-10 from permuted `roots` on an index whose first step is a
    /// sweep and holds every pass to the guarantee a first sweep rests
    /// on: the first is one textbook Gauss–Seidel sweep from `x̃ = 0`, and
    /// after each, `r` is `b − W x̃` of its own `x̃`, nonnegative, and at
    /// most `(1−c)` times the previous `‖r‖₁` — all to `1e-13` of the
    /// magnitudes summed.
    fn check_sweep_start(label: &str, index: &KdashIndex, roots: &[NodeId]) {
        let (g, n, c) = (index.permuted_graph(), index.num_nodes(), index.restart_probability());
        let reach = BfsTree::new_multi(g, roots).order;
        let mut b = vec![0.0; n];
        seed_restart(&mut b, roots);
        let mut first = vec![0.0; n];
        gauss_seidel(index, &b, &mut first);
        let mut s = index.searcher();
        s.probe = Some(RefineProbe::default());
        let sources: Vec<NodeId> = roots.iter().map(|&r| index.permutation().old_of(r)).collect();
        // A tie may leave the goal unproven; every pass is checked anyway.
        let _ = s.top_k_from_set(&sources, 10);
        assert_eq!(s.counters.nnz, 0, "{label}: a row was gathered");
        let seen = s.probe.take().unwrap().seen;
        let mut prev_l1 = 1.0;
        for (i, (step, x, r)) in seen.iter().enumerate() {
            assert_eq!(*step, Step::Sweep, "{label} pass {i}");
            let (want, scale) = residual_of(index, &b, x);
            let (mut l1, mut slack) = (0.0, 0.0);
            for u in reach.iter().map(|&u| u as usize) {
                let tol = 1e-13 * scale[u];
                assert!((r[u] - want[u]).abs() <= tol, "{label} pass {i}: r[{u}] = {:e}", r[u]);
                assert!(r[u] >= -tol, "{label} pass {i}: r[{u}] = {:e} < 0", r[u]);
                if i == 0 {
                    let err = (x[u] - first[u]).abs();
                    assert!(err <= tol, "{label}: first step x̃[{u}] off by {err:e}");
                }
                (l1, slack) = (l1 + r[u].abs(), slack + tol);
            }
            let bound = (1.0 - c) * prev_l1 + slack;
            assert!(l1 <= bound, "{label} pass {i}: ‖r‖₁ {l1:e} > (1−c)·{prev_l1:e}");
            prev_l1 = l1;
        }
        assert!(seen.len() > 1, "{label}: no sweep ran after the first step");
    }

    #[test]
    fn every_sweep_from_a_sweep_start_keeps_a_nonnegative_residual_shrinking_by_one_minus_c() {
        let ba = barabasi_albert(300, 3, 6);
        let ba_dag = GraphBuilder::from_edges(300, ba.edges().filter(|e| e.0 > e.1));
        let graphs = [
            ("er", erdos_renyi(300, 500, 5)),
            ("ba", ba_dag.build().unwrap()),
            ("rmat", rmat(8, 700, Default::default(), 7)),
        ];
        for (name, graph) in &graphs {
            for dangling in [DanglingPolicy::Keep, DanglingPolicy::SelfLoop] {
                for c in [0.95, 0.3] {
                    let options = IndexOptions {
                        restart_probability: c,
                        dangling,
                        drop_tolerance: 1e-3,
                        ..Default::default()
                    };
                    let index = KdashIndex::build(graph, options).unwrap();
                    assert!(index.needs_refinement(), "{name}");
                    let g = index.permuted_graph();
                    let n = g.num_nodes() as NodeId;
                    let q = (0..n).max_by_key(|&v| BfsTree::new(g, v).order.len()).unwrap();
                    for roots in [vec![q], vec![q, n / 3, 2 * n / 3]] {
                        let label = format!("{name} {dangling:?} c {c} roots {roots:?}");
                        check_sweep_start(&label, &index, &roots);
                    }
                }
            }
        }
    }

    #[test]
    fn the_kernel_is_named_only_where_a_row_was_gathered() {
        let graph = rmat(8, 700, Default::default(), 7);
        for (c, eps, gathers) in [(0.95, 1e-3, false), (0.15, 1e-3, true), (0.95, 0.0, true)] {
            let options =
                IndexOptions { restart_probability: c, drop_tolerance: eps, ..Default::default() };
            let index = KdashIndex::build(&graph, options).unwrap();
            let mut s = index.searcher();
            let stats = s.top_k(3, 10).unwrap().stats;
            let label = format!("c {c} ε {eps:e}");
            assert_eq!(stats.nnz_gathered > 0, gathers, "{label}");
            let want = if gathers { s.kernel().name() } else { "" };
            assert_eq!(stats.kernel, want, "{label}");
        }
    }

    #[test]
    fn searcher_reuse_matches_fresh_searchers() {
        let index = tiny_index();
        let mut reused = index.searcher();
        for q in 0..6u32 {
            for k in [0usize, 2, 6, 10] {
                let a = reused.top_k(q, k).unwrap();
                let b = index.searcher().top_k(q, k).unwrap();
                assert_eq!(a.items.len(), b.items.len());
                for (x, y) in a.items.iter().zip(&b.items) {
                    assert_eq!(x.node, y.node);
                    assert_eq!(x.proximity.to_bits(), y.proximity.to_bits());
                }
            }
        }
    }

    #[test]
    fn top_k_into_reuses_the_result_buffer() {
        let index = tiny_index();
        let mut searcher = index.searcher();
        let mut out = TopKResult::default();
        searcher.top_k_into(0, 4, &mut out).unwrap();
        let first: Vec<NodeId> = out.items.iter().map(|r| r.node).collect();
        searcher.top_k_into(3, 4, &mut out).unwrap();
        assert_eq!(out.items.len(), 4);
        assert_eq!(out.items[0].node, 3, "buffer must hold the *new* query's answer");
        searcher.top_k_into(0, 4, &mut out).unwrap();
        let again: Vec<NodeId> = out.items.iter().map(|r| r.node).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn mixed_entry_points_share_one_workspace() {
        // Interleaving different query kinds must not leak state between
        // them: each call replays identically to a fresh workspace.
        let index = tiny_index();
        let mut s = index.searcher();
        for round in 0..3 {
            let a = s.top_k(1, 3).unwrap();
            let b = s.nodes_above(2, 1e-4).unwrap();
            let c = s.top_k_from_set(&[0, 4], 3).unwrap();
            let d = paper::top_k_from_root(&mut s, 1, 3, 5).unwrap();
            let e = paper::top_k_unpruned(&mut s, 1, 3).unwrap();
            let fresh_a = index.searcher().top_k(1, 3).unwrap();
            let fresh_b = index.searcher().nodes_above(2, 1e-4).unwrap();
            let fresh_c = index.searcher().top_k_from_set(&[0, 4], 3).unwrap();
            let fresh_d = paper::top_k_from_root(&mut index.searcher(), 1, 3, 5).unwrap();
            for (got, want) in [(&a, &fresh_a), (&b, &fresh_b), (&c, &fresh_c), (&d, &fresh_d)] {
                assert_eq!(got.items.len(), want.items.len(), "round {round}");
                for (x, y) in got.items.iter().zip(&want.items) {
                    assert_eq!(x.node, y.node);
                    assert_eq!(x.proximity.to_bits(), y.proximity.to_bits());
                }
            }
            for (x, y) in a.items.iter().zip(&e.items) {
                assert!((x.proximity - y.proximity).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn invalid_thresholds_are_errors_not_panics() {
        let index = tiny_index();
        let mut s = index.searcher();
        for theta in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            match s.nodes_above(0, theta) {
                Err(KdashError::InvalidThreshold { .. }) => {}
                other => panic!("theta {theta}: expected InvalidThreshold, got {other:?}"),
            }
        }
        // The workspace stays usable after a rejected query.
        assert!(s.nodes_above(0, 1e-3).is_ok());
    }

    #[test]
    fn frontier_budget_aborts_with_typed_error_and_stats() {
        let index = tiny_index();
        let mut s = index.searcher();
        s.set_budget(QueryBudget {
            max_frontier_nodes: Some(2),
            ..QueryBudget::default()
        });
        match s.top_k(0, 6) {
            Err(KdashError::BudgetExceeded { limit, stats }) => {
                assert_eq!(limit, BudgetLimit::FrontierNodes(2));
                assert_eq!(stats.visited, 2, "the budget admits exactly 2 visits");
                assert!(stats.proximity_computations <= 2);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // The same workspace answers exactly once the budget is lifted.
        s.set_budget(QueryBudget::unlimited());
        let a = s.top_k(0, 6).unwrap();
        let b = index.searcher().top_k(0, 6).unwrap();
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.proximity.to_bits(), y.proximity.to_bits());
        }
    }

    #[test]
    fn gather_budget_meters_stored_entries() {
        let index = tiny_index();
        let mut s = index.searcher();
        s.set_budget(QueryBudget { max_gather_nnz: Some(1), ..QueryBudget::default() });
        match s.top_k(0, 6) {
            Err(KdashError::BudgetExceeded { limit, stats }) => {
                assert_eq!(limit, BudgetLimit::GatherNnz(1));
                assert!(stats.nnz_gathered >= 1, "the abort carries the running total");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn budgets_cover_every_entry_point() {
        let index = tiny_index();
        let mut s = index.searcher();
        s.set_budget(QueryBudget {
            max_frontier_nodes: Some(1),
            ..QueryBudget::default()
        });
        assert!(matches!(s.top_k(0, 6), Err(KdashError::BudgetExceeded { .. })));
        assert!(matches!(
            paper::top_k_unpruned(&mut s, 0, 6),
            Err(KdashError::BudgetExceeded { .. })
        ));
        assert!(matches!(s.nodes_above(0, 1e-6), Err(KdashError::BudgetExceeded { .. })));
        assert!(matches!(
            s.top_k_from_set(&[0, 3], 6),
            Err(KdashError::BudgetExceeded { .. })
        ));
        assert!(matches!(
            paper::top_k_from_root(&mut s, 0, 6, 2),
            Err(KdashError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn expired_deadline_aborts_before_any_work() {
        let index = tiny_index();
        let mut s = index.searcher();
        s.set_budget(QueryBudget {
            deadline: Some(Duration::ZERO),
            ..QueryBudget::default()
        });
        match s.top_k(0, 3) {
            Err(KdashError::BudgetExceeded { limit, stats }) => {
                assert_eq!(limit, BudgetLimit::Deadline(Duration::ZERO));
                assert_eq!(stats.visited, 0);
                assert_eq!(stats.proximity_computations, 0);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_no_budget() {
        let index = tiny_index();
        let mut budgeted = index.searcher();
        budgeted.set_budget(QueryBudget {
            max_frontier_nodes: Some(usize::MAX),
            max_gather_nnz: Some(usize::MAX),
            deadline: Some(Duration::from_secs(3600)),
            ..QueryBudget::default()
        });
        let mut plain = index.searcher();
        for q in 0..6u32 {
            let a = budgeted.top_k(q, 4).unwrap();
            let b = plain.top_k(q, 4).unwrap();
            assert_eq!(a.stats, b.stats, "budget checks must not perturb the search");
            for (x, y) in a.items.iter().zip(&b.items) {
                assert_eq!(x.node, y.node);
                assert_eq!(x.proximity.to_bits(), y.proximity.to_bits());
            }
        }
    }
}
