//! The reusable query workspace.
//!
//! A [`Searcher`] owns every piece of per-query state the top-k search
//! needs — the epoch-stamped BFS buffers ([`kdash_graph::BfsScratch`]),
//! the scattered query column ([`kdash_sparse::ScatteredColumn`]), the
//! top-k heap and the threshold-hit scratch — so a serving loop pays the
//! `O(n)` allocations once and every subsequent query touches only the
//! state it actually visits. Once the buffers have reached their
//! high-water mark (i.e. after warm-up queries covering the largest
//! reachable set and `k` the loop will serve),
//! [`Searcher::top_k_into`] performs **zero heap allocations** (the
//! `tests/zero_alloc.rs` integration test pins this down with a counting
//! allocator).
//!
//! # Lazy frontier
//!
//! The BFS that orders the visit is fused into the search loop: layers are
//! discovered on demand ([`BfsScratch::expand_next_layer`]), so a query
//! the Lemma 2 bound terminates after a few layers never enumerates —
//! never even *discovers* — the rest of the reachable set. The layer the
//! search died in is the last one discovered, and nothing below it is
//! expanded; [`SearchStats::frontier_expanded`] counts the nodes whose
//! out-edges were actually scanned, and [`SearchStats::reachable`]
//! consequently reports the discovered-so-far count on early-terminated
//! queries (exact reachability, as before, when the search runs to
//! completion). Layer-at-a-time expansion reproduces the eager queue
//! order exactly, so results and visit order are identical to the eager
//! reference — only the traversal cost shrinks.
//!
//! # Proximity kernels
//!
//! Proximities come from the scatter/gather kernel: the fixed query column
//! `L⁻¹ e_q` is scattered once per query, then each candidate costs a
//! gather over only `nnz((U⁻¹)ᵤ)` — through the workspace's selected
//! [`GatherKernel`] (default [`GatherKernel::Auto`]: the branch-free
//! four-lane kernel, AVX2 where the host has it, its portable twin
//! otherwise; see [`Searcher::set_kernel`]). The two bodies are
//! bit-identical to each other and within `1e-12` of the one-accumulator
//! scalar reference, which itself is bit-identical to the merge join
//! ([`KdashIndex::top_k_merge_join`] keeps the old eager path alive as
//! the exactness cross-check). Rows stream
//! from the index's [`ProximityStore`](kdash_sparse::ProximityStore)
//! (blocked u16-delta layout by default — bit-identical across layouts),
//! candidate rows are software-prefetched a block ahead
//! ([`PREFETCH_BLOCK`]), and every query's byte traffic, per-class row
//! split and resolved kernel land in [`SearchStats`].
//!
//! # Certified refinement (sparsified tier)
//!
//! On an index built with a positive `drop_tolerance`, the stored
//! inverses are *truncated* and a raw gather yields only an approximation
//! `x̃ ≈ W⁻¹ b`. Every entry point detects this
//! ([`KdashIndex::needs_refinement`]) and routes through the certified
//! refinement loop instead of the Lemma-2 search. The loop drains the BFS,
//! lists the reachable set `R` once in ascending permuted id — the order
//! the graph, `L̃⁻¹` and `Ũ⁻¹` are stored in — and then streams that list
//! over three dense vectors `x̃`, `r`, `y`:
//!
//! 1. *initial solve* — one gather per node of `R` against the scattered
//!    query column, the classic search's per-candidate cost;
//! 2. *residual* `r = b − x̃ + (1−c)·A x̃` — each node pushes its value
//!    along its out-edges, normalised by its precomputed out-weight sum.
//!    The index stores the permuted graph exactly, so this is the true
//!    residual of `x̃`, whatever the stored inverses hold;
//! 3. *certify* — `|p_u − c·x̃_u| ≤ ‖r‖₁` turns the ranking into a proof
//!    obligation: once every consecutive gap among the answer candidates
//!    exceeds `2‖r‖₁`, the returned set *and order* are provably those of
//!    the dense-exact answer, and the loop stops;
//! 4. *correction* `x̃ += Ũ⁻¹(L̃⁻¹ r)` — one `L̃⁻¹` column AXPY into `y`
//!    per nonzero of `r`, then one dense `Ũ⁻¹` row dot per node of `R`.
//!    The sparsified inverses are their own preconditioner, so `‖r‖₁`
//!    contracts geometrically; back to 2.
//!
//! `R` is closed under out-edges and the triangular inverses only fill
//! along paths of the graph, so every write lands inside `R`: no support
//! lists, no flags, and sweeping `R` on the way out leaves the vectors
//! all-zero for the next query (a `debug_assert!` holds them to it). The
//! certificate rests on less: `x̃` and `r` are read and written only over
//! `R`, which the BFS defines, so inverses that broke the fill pattern
//! could slow a later query through a stale `y`, never falsify a proof.
//!
//! Tied proximities can never separate, so the loop fails loudly with
//! [`KdashError::RefinementFailed`] instead of guessing — likewise when
//! the residual stops contracting or is not finite. Returned *values* are
//! `c·x̃`, within the final `‖r‖₁` of exact. A zero residual certifies
//! unconditionally, and ties then resolve as in the classic search:
//! candidates are offered in visit (BFS) order and the heap replaces only
//! on a strictly larger proximity, so at the k-th boundary the
//! earlier-visited of two equals is kept; the answer itself is listed by
//! descending proximity, then ascending *permuted* id.
//!
//! All five query entry points run through this workspace; the matching
//! [`KdashIndex`] methods are thin conveniences that build a transient
//! `Searcher` per call.

use crate::{
    ArbitraryOrderBound, KdashError, KdashIndex, LayerEstimator, RankedNode, Result, SearchStats,
    TopKResult,
};
use kdash_graph::{BfsScratch, NodeId};
use kdash_sparse::{
    DanglingPolicy, GatherCounters, GatherKernel, GatherScratch, ResolvedKernel, ScatteredColumn,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cmp::Ordering;
use std::time::{Duration, Instant};

/// Candidate rows per prefetch block: when the visit cursor enters a new
/// block, the whole block's `U⁻¹` row spans are software-prefetched before
/// the first of them is gathered — so on DRAM-resident indexes the next
/// rows' cache misses overlap the current row's arithmetic instead of
/// serialising behind it. Small enough that a Lemma 2 termination wastes
/// at most a handful of speculative prefetches.
const PREFETCH_BLOCK: usize = 8;

/// Hard ceiling on certified-refinement correction passes. The loop
/// contracts `‖r‖₁` geometrically when it converges at all, so a query
/// still uncertified after this many passes is tied (or past the
/// floating-point floor) and fails loudly instead of spinning.
const REFINE_MAX_ITERATIONS: usize = 64;

/// Residual floor the full-vector refined paths iterate down to: the
/// returned vector is within this `ℓ∞` distance of the exact proximities
/// (and exactly exact when the residual reaches zero). Chosen a couple of
/// decades above `f64` epsilon so accumulation noise cannot stall the
/// loop short of its goal.
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
/// gathered rows, both identical across kernels, layouts and thread
/// counts — so the same budget admits exactly the same queries
/// everywhere. Only `deadline` is inherently wall-clock (and therefore
/// machine-dependent); use it as the outermost safety net.
///
/// Checks run once per candidate visit, *before* the candidate's work,
/// so a budget of `N` admits at most `N` whole units — a partial visit
/// is never half-charged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryBudget {
    /// Abort once this many candidates have been visited (frontier work).
    pub max_frontier_nodes: Option<usize>,
    /// Abort once the gathered rows' stored entries reach this total
    /// (proximity work — the dominant cost on dense hub rows).
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

/// Workspace of the certified refinement loop — allocated on the first
/// refined query (sparsified tier only) and reused afterwards. The three
/// dense vectors are indexed by permuted node id and are all-zero between
/// queries: a query writes them only inside its reachable set and zeroes
/// that set again on the way out, success or error.
#[derive(Debug)]
struct RefineState {
    /// The approximate solution `x̃`.
    x: Vec<f64>,
    /// The residual `r = b − W x̃`.
    resid: Vec<f64>,
    /// The correction intermediate `y = L̃⁻¹ r`. A `Ũ⁻¹` row reads it at
    /// every column, reachable or not: it must be zero outside the set.
    y: Vec<f64>,
    /// The reachable set in ascending permuted id: the order the three
    /// passes stream the id-ordered stores in.
    ids: Vec<NodeId>,
    /// Top-`(k+1)` scratch the certification check ranks candidates with.
    cert: TopKHeap,
}

impl RefineState {
    fn new(n: usize) -> Self {
        RefineState {
            x: vec![0.0; n],
            resid: vec![0.0; n],
            y: vec![0.0; n],
            ids: Vec::new(),
            cert: TopKHeap::new(0),
        }
    }

    /// Loads the drained BFS's reachable set in ascending id: a sort of
    /// the visit order when that is cheaper than a scan of all `n` stamps.
    fn load_ids(&mut self, bfs: &BfsScratch) {
        let (reach, n) = (bfs.num_discovered(), bfs.dim());
        self.ids.clear();
        if reach * (reach.ilog2() as usize + 1) < n {
            self.ids.extend_from_slice(bfs.order());
            self.ids.sort_unstable();
        } else {
            self.ids.extend((0..n as NodeId).filter(|&v| bfs.is_reached(v)));
        }
    }
}

/// What the refinement loop must prove before it may stop.
enum RefineGoal<'o> {
    /// Certify the top-k set and order; the winners land in the
    /// workspace heap (ties by ascending permuted id).
    TopK(usize),
    /// Certify every reachable node's side of `theta` and the order of
    /// the hits; the hits land in the workspace hit list (sorted).
    Threshold(f64),
    /// Iterate the residual down to [`FULL_VECTOR_FLOOR`]; `c·x̃` lands
    /// in the provided dense permuted vector.
    FullVector(&'o mut [f64]),
}

/// Top-k certification: ranks the `k + 1` best candidates (the entry
/// below the last ranked one is the exact-zero proximity of the
/// unreached padding) and demands every consecutive gap among the top
/// `k` exceed `2δ` — then no exchange across any of those boundaries can
/// survive the error bound, so set and order are proven. A zero residual
/// certifies unconditionally (the values are exact; ties fall to the
/// deterministic comparator). Returns the verdict and the smallest
/// decisive gap for diagnostics.
fn certify_top_k(
    x: &[f64],
    order: &[NodeId],
    c: f64,
    k: usize,
    delta: f64,
    cert: &mut TopKHeap,
) -> (bool, f64) {
    cert.reset(k + 1);
    for &u in order {
        cert.offer(c * x[u as usize], u);
    }
    let ranked = cert.sorted_entries();
    let m = ranked.len();
    let limit = k.min(m);
    let mut min_gap = f64::INFINITY;
    for i in 0..limit {
        let next = if i + 1 < m { ranked[i + 1].0 } else { 0.0 };
        min_gap = min_gap.min(ranked[i].0 - next);
    }
    if !min_gap.is_finite() {
        min_gap = 0.0;
    }
    (delta == 0.0 || min_gap > 2.0 * delta, min_gap)
}

/// Threshold certification: every reachable node must sit provably on
/// one side of `theta` (margin `> δ`) and the hits must be provably
/// ordered among themselves (gaps `> 2δ`). Fills `hits` with the
/// candidate answers, sorted; on the accepting iteration they are the
/// final ones.
fn certify_threshold(
    x: &[f64],
    order: &[NodeId],
    c: f64,
    theta: f64,
    delta: f64,
    hits: &mut Vec<(f64, NodeId)>,
) -> (bool, f64) {
    hits.clear();
    let mut min_margin = f64::INFINITY;
    for &u in order {
        let p = c * x[u as usize];
        min_margin = min_margin.min((p - theta).abs());
        if p >= theta {
            hits.push((p, u));
        }
    }
    hits.sort_unstable_by(by_rank);
    let mut min_gap = 2.0 * min_margin;
    for pair in hits.windows(2) {
        min_gap = min_gap.min(pair[0].0 - pair[1].0);
    }
    if !min_gap.is_finite() {
        min_gap = 0.0;
    }
    (delta == 0.0 || (min_margin > delta && min_gap > 2.0 * delta), min_gap)
}

/// A reusable query workspace over one [`KdashIndex`].
///
/// Construction is `O(n)`; each query after the first allocates nothing
/// (for [`top_k_into`](Searcher::top_k_into)) or only its result vector.
/// A `Searcher` is single-threaded by design — for parallel serving, give
/// each worker its own (see [`crate::batch_top_k`], which does exactly
/// that over a work-stealing queue).
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
    /// Permuted restart-set scratch for multi-source queries.
    sources_p: Vec<NodeId>,
    /// Host-validated gather kernel every proximity runs through.
    kernel: ResolvedKernel,
    /// Byte-traffic and kernel-split counters, reset per query and folded
    /// into [`SearchStats`].
    counters: GatherCounters,
    /// Visit position up to which candidate rows have been prefetched.
    prefetched_until: usize,
    /// Per-query resource ceilings (default: unlimited).
    budget: QueryBudget,
    /// Certified-refinement workspace, allocated on the first refined
    /// query. Stays `None` forever on a dense-exact index.
    refine: Option<Box<RefineState>>,
}

impl<'a> Searcher<'a> {
    /// A fresh workspace for `index` with the default
    /// ([`GatherKernel::Auto`]) kernel. `O(n)` once; queries then reuse it.
    pub fn new(index: &'a KdashIndex) -> Self {
        let n = index.num_nodes();
        Searcher {
            index,
            bfs: BfsScratch::new(n),
            column: ScatteredColumn::new(n),
            heap: TopKHeap::new(0),
            hits: Vec::new(),
            sources_p: Vec::new(),
            kernel: ResolvedKernel::default(),
            counters: GatherCounters::default(),
            prefetched_until: 0,
            budget: QueryBudget::default(),
            refine: None,
        }
    }

    /// A fresh workspace running every proximity through `kernel`.
    /// Fails with [`KdashError::UnsupportedKernel`] when the host CPU
    /// cannot honour the selection (only [`GatherKernel::Auto`] falls
    /// back).
    pub fn with_kernel(index: &'a KdashIndex, kernel: GatherKernel) -> Result<Self> {
        let mut searcher = Searcher::new(index);
        searcher.set_kernel(kernel)?;
        Ok(searcher)
    }

    /// Switches the gather kernel for subsequent queries. Fails with
    /// [`KdashError::UnsupportedKernel`] — leaving the current kernel in
    /// place — when the host cannot honour the selection.
    pub fn set_kernel(&mut self, kernel: GatherKernel) -> Result<()> {
        self.kernel = kernel.resolve()?;
        Ok(())
    }

    /// The kernel proximities currently run through (the *resolved*
    /// dispatch target, e.g. `Auto` shows up as `avx2` or `unrolled`).
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

    /// Shared single-root query prologue: validates `q`, seeds the lazy
    /// BFS at it (layer 0 only — deeper layers are discovered on demand by
    /// the search loop) and scatters its `L⁻¹` column. Returns the
    /// permuted query id.
    fn prepare_query(&mut self, q: NodeId) -> Result<NodeId> {
        self.index.check_node(q)?;
        let qp = self.index.permutation().new_of(q);
        self.bfs.begin(self.index.permuted_graph(), qp);
        let (col_idx, col_val) = self.index.linv().col(qp);
        self.column.load(col_idx, col_val);
        self.counters.reset();
        self.prefetched_until = 0;
        Ok(qp)
    }

    /// One candidate proximity gather (without the `c` factor): row `u`
    /// of the stored `U⁻¹` against the scattered query column, through
    /// the workspace kernel, with byte traffic accumulated.
    #[inline]
    fn gather(&mut self, u: NodeId) -> f64 {
        self.index.uinv().row_gather(
            self.kernel,
            u,
            &self.column,
            &mut GatherScratch,
            &mut self.counters,
        )
    }

    /// Candidate batching: on entering a new block of visit positions,
    /// prefetches the whole block's row spans (index and values) so their
    /// DRAM fetches overlap the gathers that precede them.
    #[inline]
    fn prefetch_block(&mut self, pos: usize) {
        if pos < self.prefetched_until {
            return;
        }
        let end = (pos + PREFETCH_BLOCK).min(self.bfs.num_discovered());
        let uinv = self.index.uinv();
        for &u in &self.bfs.order()[pos..end] {
            uinv.prefetch_row(u);
        }
        self.prefetched_until = end;
    }

    /// One lazy-frontier step: ensures the node at visit position `pos` is
    /// discovered, expanding exactly one further layer if the cursor has
    /// consumed everything discovered so far. Returns the node, or `None`
    /// when the traversal is exhausted.
    #[inline]
    fn next_visit(&mut self, pos: usize) -> Option<NodeId> {
        if pos == self.bfs.num_discovered() && self.bfs.expand_next_layer(self.index.permuted_graph()) == 0
        {
            return None;
        }
        Some(self.bfs.order()[pos])
    }

    /// Folds the traversal counters of the finished (or abandoned) lazy
    /// run into `stats`.
    #[inline]
    fn record_traversal(&self, stats: &mut SearchStats) {
        stats.reachable = self.bfs.num_discovered();
        stats.frontier_expanded = self.bfs.num_expanded();
        self.record_gather(stats);
    }

    /// Folds the gather counters and the resolved kernel into `stats` —
    /// how `auto` resolutions stay reproducible from logs.
    #[inline]
    fn record_gather(&self, stats: &mut SearchStats) {
        stats.bytes_touched = self.counters.index_bytes;
        stats.value_bytes_touched = self.counters.value_bytes;
        stats.rows_scalar = self.counters.rows_scalar;
        stats.rows_wide = self.counters.rows_wide;
        stats.nnz_gathered = self.counters.nnz;
        stats.kernel = self.kernel.name();
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
        self.top_k_into_impl(q, k, out, false)
    }

    /// The eager-traversal replay of [`top_k_into`](Self::top_k_into): the
    /// whole BFS tree is drained *before* the same search loop runs,
    /// exactly what the engine did before the lazy frontier landed.
    /// Hidden — benchmark baseline (the `query_engine` bench measures the
    /// lazy path's traversal saving against it) and equivalence oracle
    /// only.
    #[doc(hidden)]
    pub fn top_k_eager_into(&mut self, q: NodeId, k: usize, out: &mut TopKResult) -> Result<()> {
        self.top_k_into_impl(q, k, out, true)
    }

    /// One search loop for both traversal modes, so the eager baseline can
    /// never drift from the production algorithm: `eager` only decides
    /// whether the frontier is drained up front or pulled by `next_visit`.
    fn top_k_into_impl(
        &mut self,
        q: NodeId,
        k: usize,
        out: &mut TopKResult,
        eager: bool,
    ) -> Result<()> {
        let index = self.index;
        if k == 0 {
            // The answer is known empty; skip the traversal entirely.
            index.check_node(q)?;
            out.items.clear();
            out.stats = SearchStats::default();
            return Ok(());
        }
        let qp = self.prepare_query(q)?;
        if index.needs_refinement() {
            // Sparsified tier: gathered values are approximate, so the
            // Lemma-2 path is unsound — certify instead (both traversal
            // modes drain the frontier there anyway).
            return self.refined_top_k(&[(qp, 1.0)], k, out);
        }
        if eager {
            while self.bfs.expand_next_layer(index.permuted_graph()) > 0 {}
        }
        let c = index.restart_probability();
        let started = self.budget.start();

        self.heap.reset(k);
        let mut estimator = LayerEstimator::new(index.a_max());
        let mut stats = SearchStats::default();

        // The frontier is pulled lazily: `next_visit` discovers one more
        // layer exactly when the cursor has consumed everything known, so
        // breaking out of this loop leaves every deeper layer unexpanded.
        // (An eager run arrives pre-drained and `next_visit` just walks
        // the complete order.)
        let mut pos = 0;
        while let Some(u) = self.next_visit(pos) {
            if let Some(limit) = self.budget.exceeded(stats.visited, self.counters.nnz, started) {
                return Err(self.budget_abort(limit, stats));
            }
            self.prefetch_block(pos);
            stats.visited += 1;
            let layer = self.bfs.layer(u);
            if pos == 0 {
                // The root is the query: p̄_q = 1 by definition, never pruned.
                let p = c * self.gather(u);
                stats.proximity_computations += 1;
                estimator.record_root(p, index.a_col_max()[u as usize]);
                self.heap.offer(p, u);
                pos += 1;
                continue;
            }
            let terms = estimator.advance(layer);
            // Termination must cover every unvisited node, whose c' may
            // exceed this node's when self-loops are present — use max c'.
            if self.heap.is_full() && index.c_prime_max() * terms < self.heap.threshold() {
                // Lemma 2: every unvisited node is bounded by this too —
                // discovered or not, so the undiscovered layers need never
                // be enumerated.
                stats.terminated_early = true;
                break;
            }
            let p = c * self.gather(u);
            stats.proximity_computations += 1;
            estimator.record_selected(layer, p, index.a_col_max()[u as usize]);
            self.heap.offer(p, u);
            pos += 1;
        }
        self.record_traversal(&mut stats);

        self.finish(k, true, stats, out);
        Ok(())
    }

    /// Algorithm 4 with the termination test removed: computes the exact
    /// proximity of every reachable node (the traversal always runs to
    /// exhaustion, so its `reachable` is the full reachable count). This
    /// is the "Without pruning" series of Figure 7.
    pub fn top_k_unpruned(&mut self, q: NodeId, k: usize) -> Result<TopKResult> {
        let index = self.index;
        if k == 0 {
            index.check_node(q)?;
            return Ok(TopKResult::default());
        }
        let qp = self.prepare_query(q)?;
        if index.needs_refinement() {
            let mut out = TopKResult::default();
            self.refined_top_k(&[(qp, 1.0)], k, &mut out)?;
            return Ok(out);
        }
        let c = index.restart_probability();
        let started = self.budget.start();

        self.heap.reset(k);
        let mut stats = SearchStats::default();
        let mut pos = 0;
        while let Some(u) = self.next_visit(pos) {
            if let Some(limit) = self.budget.exceeded(stats.visited, self.counters.nnz, started) {
                return Err(self.budget_abort(limit, stats));
            }
            self.prefetch_block(pos);
            stats.visited += 1;
            let p = c * self.gather(u);
            stats.proximity_computations += 1;
            self.heap.offer(p, u);
            pos += 1;
        }
        self.record_traversal(&mut stats);
        let mut out = TopKResult::default();
        self.finish(k, true, stats, &mut out);
        Ok(out)
    }

    /// Exact *threshold* query: every node whose proximity is at least
    /// `theta`, in descending order. Extension beyond the paper, enabled
    /// by the same machinery: visit in BFS-layer order and stop as soon as
    /// the Lemma 2 bound falls below `theta` — every unvisited node is
    /// then provably below the threshold.
    ///
    /// `theta` must be positive and finite; anything else returns
    /// [`KdashError::InvalidThreshold`] (a proximity is a probability mass
    /// in `(0, 1]`, so a non-positive threshold would select every node
    /// and a NaN one nothing meaningful).
    pub fn nodes_above(&mut self, q: NodeId, theta: f64) -> Result<TopKResult> {
        let index = self.index;
        index.check_node(q)?;
        if !(theta > 0.0 && theta.is_finite()) {
            return Err(KdashError::InvalidThreshold { theta });
        }
        let qp = self.prepare_query(q)?;
        if index.needs_refinement() {
            let mut stats = SearchStats::default();
            self.refined_run(&[(qp, 1.0)], RefineGoal::Threshold(theta), &mut stats)?;
            self.record_traversal(&mut stats);
            // The accepting certification pass left `hits` sorted.
            let items = self
                .hits
                .iter()
                .map(|&(p, u)| RankedNode { node: index.permutation().old_of(u), proximity: p })
                .collect();
            return Ok(TopKResult { items, stats });
        }
        let c = index.restart_probability();
        let started = self.budget.start();

        self.hits.clear();
        let mut estimator = LayerEstimator::new(index.a_max());
        let mut stats = SearchStats::default();
        let mut pos = 0;
        while let Some(u) = self.next_visit(pos) {
            if let Some(limit) = self.budget.exceeded(stats.visited, self.counters.nnz, started) {
                return Err(self.budget_abort(limit, stats));
            }
            self.prefetch_block(pos);
            stats.visited += 1;
            let layer = self.bfs.layer(u);
            if pos > 0 {
                let bound = index.c_prime_max() * estimator.advance(layer);
                if bound < theta {
                    stats.terminated_early = true;
                    break;
                }
            }
            let p = c * self.gather(u);
            stats.proximity_computations += 1;
            if pos == 0 {
                estimator.record_root(p, index.a_col_max()[u as usize]);
            } else {
                estimator.record_selected(layer, p, index.a_col_max()[u as usize]);
            }
            if p >= theta {
                self.hits.push((p, u));
            }
            pos += 1;
        }
        self.record_traversal(&mut stats);
        self.hits.sort_unstable_by(by_rank);
        let items = self
            .hits
            .iter()
            .map(|&(p, u)| RankedNode { node: index.permutation().old_of(u), proximity: p })
            .collect();
        Ok(TopKResult { items, stats })
    }

    /// Exact top-k for a *restart set*: the walk restarts uniformly over
    /// `sources` (Personalized PageRank in the sense of the paper's
    /// footnote 6). All sources form layer 0 of the search tree and are
    /// computed exactly; pruning starts at layer 1, where Lemma 1/2 hold
    /// unchanged (every non-source node still satisfies
    /// `p_u = c'_u Σ_v A_uv p_v`).
    pub fn top_k_from_set(&mut self, sources: &[NodeId], k: usize) -> Result<TopKResult> {
        let index = self.index;
        // Validation (empty/duplicate/out-of-bounds sources) must still run
        // for k = 0, so the short-circuit sits behind the column merge.
        let (col_idx, col_val) = index.merged_query_column(sources)?;
        if k == 0 {
            return Ok(TopKResult::default());
        }
        self.column.load(&col_idx, &col_val);
        self.counters.reset();
        self.prefetched_until = 0;
        self.sources_p.clear();
        self.sources_p.extend(sources.iter().map(|&s| index.permutation().new_of(s)));
        let roots = std::mem::take(&mut self.sources_p);
        self.bfs.begin_multi(index.permuted_graph(), &roots);
        self.sources_p = roots;
        if index.needs_refinement() {
            // The restart vector is uniform over the sources.
            let weight = 1.0 / self.sources_p.len() as f64;
            let rhs: Vec<(NodeId, f64)> =
                self.sources_p.iter().map(|&s| (s, weight)).collect();
            let mut out = TopKResult::default();
            self.refined_top_k(&rhs, k, &mut out)?;
            return Ok(out);
        }
        let c = index.restart_probability();
        let started = self.budget.start();

        self.heap.reset(k);
        let mut estimator = LayerEstimator::new(index.a_max());
        let mut stats = SearchStats::default();

        let mut pos = 0;
        while let Some(u) = self.next_visit(pos) {
            if let Some(limit) = self.budget.exceeded(stats.visited, self.counters.nnz, started) {
                return Err(self.budget_abort(limit, stats));
            }
            self.prefetch_block(pos);
            stats.visited += 1;
            let layer = self.bfs.layer(u);
            if layer == 0 {
                // Sources carry the restart term; their proximities are
                // computed unconditionally and feed the estimator chain.
                let p = c * self.gather(u);
                stats.proximity_computations += 1;
                if pos > 0 {
                    let _ = estimator.advance(0);
                }
                estimator.record_selected(0, p, index.a_col_max()[u as usize]);
                self.heap.offer(p, u);
                pos += 1;
                continue;
            }
            let terms = estimator.advance(layer);
            if self.heap.is_full() && index.c_prime_max() * terms < self.heap.threshold() {
                stats.terminated_early = true;
                break;
            }
            let p = c * self.gather(u);
            stats.proximity_computations += 1;
            estimator.record_selected(layer, p, index.a_col_max()[u as usize]);
            self.heap.offer(p, u);
            pos += 1;
        }
        self.record_traversal(&mut stats);
        let mut out = TopKResult::default();
        self.finish(k, true, stats, &mut out);
        Ok(out)
    }

    /// The Appendix D.1 ablation: the search tree is rooted at a random
    /// node instead of the query. The layer bound is no longer valid, so an
    /// order-agnostic bound is used — exact answers, per-node skipping
    /// only, and every node must still be visited.
    pub fn top_k_random_root(&mut self, q: NodeId, k: usize, seed: u64) -> Result<TopKResult> {
        let n = self.index.num_nodes();
        self.index.check_node(q)?;
        let root = StdRng::seed_from_u64(seed).gen_range(0..n) as NodeId;
        self.top_k_from_root(q, k, root)
    }

    /// Random-root search with an explicit root (exposed for tests).
    pub fn top_k_from_root(&mut self, q: NodeId, k: usize, root: NodeId) -> Result<TopKResult> {
        let index = self.index;
        index.check_node(q)?;
        index.check_node(root)?;
        if k == 0 {
            return Ok(TopKResult::default());
        }
        if index.needs_refinement() {
            // The ablation's visit order is irrelevant to a refined
            // answer — every reachable node is solved and certified
            // regardless — so the random root routes through the standard
            // refined query and stays exact on sparsified tiers.
            let qp = self.prepare_query(q)?;
            let mut out = TopKResult::default();
            self.refined_top_k(&[(qp, 1.0)], k, &mut out)?;
            return Ok(out);
        }
        let qp = index.permutation().new_of(q);
        let rootp = index.permutation().new_of(root);
        // The order-agnostic bound can never terminate the search, so every
        // node must be visited regardless — the lazy frontier has nothing
        // to save here and the tree is drained eagerly up front. Its
        // counters are exact: `reachable` is the full root-reachable set
        // and `frontier_expanded` equals it.
        self.bfs.run(index.permuted_graph(), rootp);
        let (col_idx, col_val) = index.linv().col(qp);
        self.column.load(col_idx, col_val);
        self.counters.reset();
        let c = index.restart_probability();
        let started = self.budget.start();

        self.heap.reset(k);
        let mut bound_state = ArbitraryOrderBound::new(index.a_max());
        let mut stats = SearchStats::default();
        self.record_traversal(&mut stats);

        // Visit order: BFS from the root, then every node the root cannot
        // reach (they may still be answers — the walk starts at q, not at
        // the root). The tree is complete up front, so candidate batching
        // prefetches straight off the final order.
        let uinv = index.uinv();
        let order = self.bfs.order();
        for (i, &u) in order.iter().enumerate() {
            if let Some(limit) = self.budget.exceeded(stats.visited, self.counters.nnz, started) {
                return Err(self.budget_abort(limit, stats));
            }
            if i % PREFETCH_BLOCK == 0 {
                for &v in &order[i..(i + PREFETCH_BLOCK).min(order.len())] {
                    uinv.prefetch_row(v);
                }
            }
            visit_any_order(
                index,
                self.kernel,
                &self.column,
                &mut self.counters,
                &mut self.heap,
                &mut bound_state,
                &mut stats,
                qp,
                c,
                u,
            );
        }
        let n = index.num_nodes() as NodeId;
        for v in 0..n {
            if let Some(limit) = self.budget.exceeded(stats.visited, self.counters.nnz, started) {
                return Err(self.budget_abort(limit, stats));
            }
            // Same candidate batching for the unreached tail (which can be
            // most of the graph when the root's component is small):
            // prefetch the block's unreached rows before gathering them.
            if v % PREFETCH_BLOCK as NodeId == 0 {
                for w in v..(v + PREFETCH_BLOCK as NodeId).min(n) {
                    if !self.bfs.is_reached(w) {
                        uinv.prefetch_row(w);
                    }
                }
            }
            if !self.bfs.is_reached(v) {
                visit_any_order(
                    index,
                    self.kernel,
                    &self.column,
                    &mut self.counters,
                    &mut self.heap,
                    &mut bound_state,
                    &mut stats,
                    qp,
                    c,
                    v,
                );
            }
        }
        // The traversal counters were exact before the visits; the gather
        // counters only exist now that the visits ran.
        self.record_gather(&mut stats);
        // Every node was visited (or skipped soundly); no padding needed.
        let mut out = TopKResult::default();
        self.finish(k, false, stats, &mut out);
        Ok(out)
    }

    /// Shared epilogue: drains the heap in rank order, maps back to
    /// original ids, and (when `pad_unreached` is set) pads with
    /// unreachable, zero-proximity nodes when fewer than `k` candidates
    /// exist. Heap entries are always reached nodes, so pads can never
    /// collide with them.
    ///
    /// Padding and lazy discovery cannot conflict: fewer than `k` heap
    /// entries means the heap never filled, so the Lemma 2 termination
    /// (which requires a full heap) never fired, the traversal ran to
    /// exhaustion, and `is_reached` is exact reachability.
    fn finish(&mut self, k: usize, pad_unreached: bool, stats: SearchStats, out: &mut TopKResult) {
        let index = self.index;
        out.stats = stats;
        out.items.clear();
        for &(p, u) in self.heap.sorted_entries() {
            out.items.push(RankedNode { node: index.permutation().old_of(u), proximity: p });
        }
        if pad_unreached && out.items.len() < k {
            for v in 0..index.num_nodes() as NodeId {
                if out.items.len() >= k {
                    break;
                }
                if !self.bfs.is_reached(v) {
                    out.items.push(RankedNode {
                        node: index.permutation().old_of(v),
                        proximity: 0.0,
                    });
                }
            }
        }
    }

    /// Refined top-k epilogue shared by every sparsified-tier ranking
    /// entry point: run the certified loop, fold the traversal counters,
    /// rank + pad. Expects the BFS seeded and the query column loaded.
    /// Out of line, so the Lemma-2 loops compile the same without it.
    #[inline(never)]
    fn refined_top_k(
        &mut self,
        rhs: &[(NodeId, f64)],
        k: usize,
        out: &mut TopKResult,
    ) -> Result<()> {
        let mut stats = SearchStats::default();
        self.refined_run(rhs, RefineGoal::TopK(k), &mut stats)?;
        self.record_traversal(&mut stats);
        self.finish(k, true, stats, out);
        Ok(())
    }

    /// The full proximity vector (original id space) through the
    /// certified refinement loop, iterated down to [`FULL_VECTOR_FLOOR`]:
    /// every returned value is within that bound of exact (and exact when
    /// the residual reaches zero). `sources` restart uniformly, so a
    /// singleton slice reproduces the single-query vector. This is the
    /// sparsified-tier backend of [`KdashIndex::full_proximities`] and
    /// friends.
    #[doc(hidden)]
    pub fn refined_full_proximities(&mut self, sources: &[NodeId]) -> Result<Vec<f64>> {
        let index = self.index;
        let (col_idx, col_val) = index.merged_query_column(sources)?;
        self.column.load(&col_idx, &col_val);
        self.counters.reset();
        self.prefetched_until = 0;
        self.sources_p.clear();
        self.sources_p.extend(sources.iter().map(|&s| index.permutation().new_of(s)));
        let roots = std::mem::take(&mut self.sources_p);
        self.bfs.begin_multi(index.permuted_graph(), &roots);
        let weight = 1.0 / roots.len() as f64;
        let rhs: Vec<(NodeId, f64)> = roots.iter().map(|&s| (s, weight)).collect();
        self.sources_p = roots;
        let mut permuted = vec![0.0; index.num_nodes()];
        let mut stats = SearchStats::default();
        self.refined_run(&rhs, RefineGoal::FullVector(&mut permuted), &mut stats)?;
        Ok(index.permutation().unpermute_values(&permuted))
    }

    /// The certified refinement driver (see the module docs): drains the
    /// reachable set, solves it approximately through the sparsified
    /// inverses, and iterates residual/correction passes until `goal` is
    /// proven. Expects the BFS seeded at the support of `rhs` (the
    /// restart vector `b = Σ weight·e_root`, permuted ids) and the
    /// matching `L̃⁻¹` query column loaded.
    fn refined_run(
        &mut self,
        rhs: &[(NodeId, f64)],
        mut goal: RefineGoal<'_>,
        stats: &mut SearchStats,
    ) -> Result<()> {
        // The Lemma-2 bound cannot prune against approximate proximities,
        // so the refined path always drains the whole reachable set.
        while self.bfs.expand_next_layer(self.index.permuted_graph()) > 0 {}
        let mut st = self
            .refine
            .take()
            .unwrap_or_else(|| Box::new(RefineState::new(self.index.num_nodes())));
        debug_assert!(
            st.x.iter().chain(&st.resid).chain(&st.y).all(|&v| v == 0.0),
            "refinement vectors must be all-zero between queries"
        );
        st.load_ids(&self.bfs);
        let result = self.refined_run_inner(&mut st, rhs, &mut goal, stats);
        // Zero the vectors over the reachable set before parking the state:
        // an error leaves the workspace exactly as reusable as success.
        for &u in &st.ids {
            st.x[u as usize] = 0.0;
            st.resid[u as usize] = 0.0;
            st.y[u as usize] = 0.0;
        }
        self.refine = Some(st);
        result
    }

    fn refined_run_inner(
        &mut self,
        st: &mut RefineState,
        rhs: &[(NodeId, f64)],
        goal: &mut RefineGoal<'_>,
        stats: &mut SearchStats,
    ) -> Result<()> {
        let index = self.index;
        let graph = index.permuted_graph();
        let out_weight = index.out_weight();
        let (linv, uinv) = (index.linv(), index.uinv());
        let c = index.restart_probability();
        let one_minus_c = 1.0 - c;
        let self_loops = index.dangling_policy() == DanglingPolicy::SelfLoop;
        let started = self.budget.start();
        let RefineState { x, resid, y, ids, cert } = st;

        // Initial approximate solve x̃ = Ũ⁻¹(L̃⁻¹ b): one gather per
        // reachable node through the workspace kernel, exactly the
        // classic search's per-candidate cost.
        for &u in ids.iter() {
            if let Some(limit) = self.budget.exceeded(stats.visited, self.counters.nnz, started) {
                return Err(self.budget_abort(limit, stats.clone()));
            }
            stats.visited += 1;
            x[u as usize] = self.gather(u);
            stats.proximity_computations += 1;
        }

        let mut iterations = 0usize;
        let mut prev_norm = f64::INFINITY;
        loop {
            // Residual r = b − W x̃ = b − x̃ + (1−c)·A x̃, pushed along the
            // permuted graph's out-edges (the index stores the graph
            // exactly, so this is the true residual): column j of A is
            // node j's out-distribution, self-looped when dangling under
            // that policy, empty when dangling is kept absorbing. The
            // reachable set is closed under out-edges, so every write
            // lands inside it. (The same sweep clears y for the correction
            // that may follow.)
            for &j in ids.iter() {
                resid[j as usize] = 0.0;
                y[j as usize] = 0.0;
            }
            for &(root, weight) in rhs {
                resid[root as usize] += weight;
            }
            let mut edge_terms = 0usize;
            for &j in ids.iter() {
                let xj = x[j as usize];
                if xj == 0.0 {
                    continue;
                }
                resid[j as usize] -= xj;
                let out_sum = out_weight[j as usize];
                if out_sum > 0.0 {
                    let scale = one_minus_c * xj / out_sum;
                    let targets = graph.out_neighbors(j);
                    for (&t, &w) in targets.iter().zip(graph.out_weights(j)) {
                        resid[t as usize] += scale * w;
                    }
                    edge_terms += targets.len();
                } else if self_loops {
                    resid[j as usize] += one_minus_c * xj;
                }
            }
            stats.refinement_nnz += edge_terms;
            let delta: f64 = ids.iter().map(|&j| resid[j as usize].abs()).sum();

            // |p_u − c·x̃_u| ≤ ‖r‖₁ for every node (column sums of W⁻¹
            // are at most 1/c, cancelling the c in p = c·x): certify the
            // goal against that uniform bound. Candidates are offered in
            // visit order, which is what decides a tie at the k-th
            // boundary (the heap replaces on strict `>`).
            let order = &self.bfs.order()[..ids.len()];
            let (certified, min_gap) = match goal {
                RefineGoal::TopK(k) => certify_top_k(x, order, c, *k, delta, cert),
                RefineGoal::Threshold(theta) => {
                    certify_threshold(x, order, c, *theta, delta, &mut self.hits)
                }
                RefineGoal::FullVector(_) => (delta <= FULL_VECTOR_FLOOR, delta),
            };
            if certified {
                break;
            }
            if iterations >= REFINE_MAX_ITERATIONS || delta >= prev_norm || !delta.is_finite() {
                // Tied (or sub-floating-point-separated) proximities can
                // never certify, a non-contracting residual means the
                // drop tolerance out-weighs the preconditioner, and a
                // non-finite one that the stored values overflowed: fail
                // loudly, never return an unproven ranking.
                return Err(KdashError::RefinementFailed {
                    iterations,
                    residual: delta,
                    gap: min_gap,
                });
            }
            prev_norm = delta;

            // One correction pass x̃ += Ũ⁻¹(L̃⁻¹ r): the L̃⁻¹ columns of
            // the residual's nonzeros accumulate into the dense y (their
            // supports stay inside the reachable set), then every
            // reachable Ũ⁻¹ row is dotted against it.
            for &j in ids.iter() {
                let rj = resid[j as usize];
                if rj == 0.0 {
                    continue;
                }
                let (idx, val) = linv.col(j);
                stats.refinement_nnz += idx.len();
                for (&i, &v) in idx.iter().zip(val) {
                    y[i as usize] += rj * v;
                }
            }
            let nnz_before = self.counters.nnz;
            for &u in ids.iter() {
                if let Some(limit) =
                    self.budget.exceeded(stats.visited, self.counters.nnz, started)
                {
                    return Err(self.budget_abort(limit, stats.clone()));
                }
                x[u as usize] += uinv.row_dot_dense(u, y, &mut self.counters);
            }
            stats.refinement_nnz += self.counters.nnz - nnz_before;
            iterations += 1;
        }
        stats.refinement_iterations = iterations;

        // Deliver the certified answer.
        match goal {
            RefineGoal::TopK(k) => {
                // The certification scratch already ranked the k+1 best
                // candidates; the first k are the proven answer.
                self.heap.reset(*k);
                for &(p, u) in cert.sorted_entries().iter().take(*k) {
                    self.heap.offer(p, u);
                }
            }
            // The accepting certification pass left the sorted hits in
            // the workspace hit list.
            RefineGoal::Threshold(_) => {}
            RefineGoal::FullVector(out) => {
                for &u in ids.iter() {
                    out[u as usize] = c * x[u as usize];
                }
            }
        }
        Ok(())
    }
}

/// One candidate visit of the order-agnostic (random-root) search. A free
/// function over the workspace's split-out fields so both visit loops can
/// call it while the BFS order is borrowed.
#[allow(clippy::too_many_arguments)]
#[inline]
fn visit_any_order(
    index: &KdashIndex,
    kernel: ResolvedKernel,
    column: &ScatteredColumn,
    counters: &mut GatherCounters,
    heap: &mut TopKHeap,
    bound_state: &mut ArbitraryOrderBound,
    stats: &mut SearchStats,
    qp: NodeId,
    c: f64,
    u: NodeId,
) {
    stats.visited += 1;
    // The order-agnostic bound only holds for non-query nodes.
    if u != qp {
        let bound = index.c_prime()[u as usize] * bound_state.bound_term();
        if heap.is_full() && bound < heap.threshold() {
            stats.skipped += 1;
            return;
        }
    }
    let p = c * index.uinv().row_gather(kernel, u, column, &mut GatherScratch, counters);
    stats.proximity_computations += 1;
    bound_state.record(p, index.a_col_max()[u as usize]);
    heap.offer(p, u);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexOptions;
    use kdash_graph::GraphBuilder;

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
            let d = s.top_k_from_root(1, 3, 5).unwrap();
            let e = s.top_k_unpruned(1, 3).unwrap();
            let fresh_a = index.searcher().top_k(1, 3).unwrap();
            let fresh_b = index.searcher().nodes_above(2, 1e-4).unwrap();
            let fresh_c = index.searcher().top_k_from_set(&[0, 4], 3).unwrap();
            let fresh_d = index.searcher().top_k_from_root(1, 3, 5).unwrap();
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
        assert!(matches!(s.top_k_unpruned(0, 6), Err(KdashError::BudgetExceeded { .. })));
        assert!(matches!(s.nodes_above(0, 1e-6), Err(KdashError::BudgetExceeded { .. })));
        assert!(matches!(
            s.top_k_from_set(&[0, 3], 6),
            Err(KdashError::BudgetExceeded { .. })
        ));
        assert!(matches!(
            s.top_k_from_root(0, 6, 2),
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
