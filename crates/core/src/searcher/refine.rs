//! # Certified refinement (sparsified tier)
//!
//! On an index built with a positive `drop_tolerance`, the stored
//! inverses are *truncated* and a raw gather yields only an approximation
//! `x̃ ≈ W⁻¹ b`. The driver detects this
//! ([`KdashIndex::needs_refinement`](crate::KdashIndex::needs_refinement))
//! and hands the seeded query to the certified refinement loop instead of
//! visiting. The loop lists the reachable set `R` once in ascending
//! permuted id — the order the graph, `L̃⁻¹` and `Ũ⁻¹` are stored in — and
//! then streams that list over four dense vectors: `x̃`, `r`, the spare `y`
//! and the `visit` notes.
//!
//! Listing `R` rarely costs a traversal. Each refining index derives a
//! *reach anchor* `a` — the node with the most in-edges among those with
//! an out-edge — and stores its closure `R(a)` in ascending id. The
//! lemma: if `a ∈ R(q)` then `R(a) ⊆ R(q)`; and `R(a)` is closed under
//! out-edges, so a path from `q` to a node outside `R(a)` never enters
//! it. Hence when a root reaches `a`, `R = R(a) ∪ R̄`, where `R̄` is what
//! a BFS from the roots finds without entering `R(a)`, and the two merge
//! in id order without `R(a)` ever being traversed. On a power-law graph
//! almost every query reaches the hub, and `R̄` is a handful of nodes.
//! Roots that do not reach `a` drain the BFS and sort (or scan) what it
//! found. Either way the list is the same, so the steps below run over
//! identical ids.
//!
//! Every step that settles a value of `x̃` also *pushes* it at once into
//! the next true residual `r = b − x̃ + (1−c)·A x̃`: the node's value
//! leaves its own entry and flows along its out-edges, normalised by its
//! precomputed out-weight sum. The index stores the permuted graph
//! exactly, so `r` is the true residual of `x̃`, whatever the stored
//! inverses hold — never the recurrence a step would predict.
//!
//! # One pass shape
//!
//! The loop starts at `x̃ = 0` and `r = visit = b`, then repeats:
//!
//! 1. *one step* over `R`, of one of two kinds:
//!    * *sweep* — one Gauss–Seidel pass over `R` in ascending id, the
//!      forward push in the stored order. Every step notes, as it reaches
//!      `u`, its accumulator's value there, `visit_u`: `b_u` plus the
//!      pushes from ids below `u`. So `r_u + x̃_u − visit_u` is what the
//!      ids from `u` up pushed into `u`. The sweep builds the next
//!      residual in the spare `y` from `b`; on reaching `u`, `y_u` holds
//!      `b_u` plus this sweep's pushes from below, so
//!      `x̃_u ← y_u + (r_u + x̃_u − visit_u)` solves row `u` with every
//!      lower neighbour already updated. The new value is pushed into
//!      `y`, and the two vectors swap. An update by `d_u` takes `|d_u|`
//!      off `u`'s residual and pushes at most `(1−c)·|d_u|` on, so
//!      `‖r‖₁` never rises; it shrinks by at least `1−c` while the
//!      residual keeps one sign (a correction leaves it mixed), and far
//!      more in practice, since most of the transition weight points to
//!      a higher id and is spent within the same pass.
//!    * *correction* `x̃ += Ũ⁻¹(L̃⁻¹ r)` — one `L̃⁻¹` column AXPY into `y`
//!      per nonzero of `r`, emptying `r` as it reads it, then one `Ũ⁻¹`
//!      row dot per node of `R` in ascending id, through the workspace's
//!      gather kernel (the dense tier's four-lane body), each new value
//!      pushed at once. Row `u` of the upper-triangular `Ũ⁻¹` reads `y`
//!      only at columns `≥ u`, so `y_u` is spent and zeroed right after.
//!      The sparsified inverses are their own preconditioner: `‖r‖₁`
//!      contracts by the factor `ρ` the loop observes, far below `1−c`
//!      when `c` is small.
//! 2. *certify* — each node by its own residual:
//!    `|p_u − c·x̃_u| ≤ c·|r_u| + (1−c)·‖r‖₁`. The error is `c·W⁻¹r`, and
//!    an entry of `c·W⁻¹` is the proximity of a walk from one node to
//!    another: at most `1−c` off the diagonal, where the walk has to take
//!    a step, and at most 1 on it. That turns the goal into a proof
//!    obligation in two halves — the *ranking* (every lower bound of an
//!    answer above the upper bound of what it must outrank) and the
//!    *values* (every returned bound within [`VALUE_TOLERANCE`]); once
//!    both hold, the returned set, order and values are provably those of
//!    the dense-exact answer, and the loop stops. While the uniform share
//!    `(1−c)·‖r‖₁` alone exceeds the tolerance no node can meet it, and
//!    the check is skipped;
//! 3. *plan* the next step: the kind the planner (`plan`) expects to
//!    reach the goal's residual target for the least work; back to 1.
//!
//! The first step is a sweep exactly where sweeps alone provably reach
//! the goal's residual target within the step cap of 64 (`sweeps_reach`:
//! `⌈ln(1/target) / −ln(1−c)⌉` fits it from `c ≈ 0.2807` on for top-k and
//! threshold goals, from `c ≈ 0.3736` on for the full vector). From
//! `x̃ = 0` and `visit = b` it takes `x̃_u = y_u`, `b_u` plus the pushes
//! from below, and gathers no row. With `b ≥ 0` every update a sweep then
//! makes is a nonnegative `d_u` at least the residual `u` held when the
//! sweep began, so the residual stays nonnegative and `‖r‖₁` shrinks by at
//! least `1−c` per sweep; no correction ever measures `ρ`, so none is
//! planned. Below those values the first step is a correction: from
//! `x̃ = 0` and `r = b` it is `Ũ⁻¹(L̃⁻¹ b)`, one gather per node of `R`,
//! the classic search's per-candidate cost, and it measures the first
//! `ρ`. Sweeps alone would run out of steps there (`c = 0.05` needs
//! hundreds). Whichever kind it is, the first step charges every node of
//! `R` as a visit and a proximity computation, as the dense tier's visit
//! does, prices both kinds for the planner from its own counts, and is
//! not counted in [`SearchStats::refinement_iterations`].
//!
//! `R` is closed under out-edges and the triangular inverses only fill
//! along paths of the graph, so every write lands inside `R`: no support
//! lists, no flags. Each step leaves `y` all-zero, and sweeping `R` on the
//! way out leaves `x̃`, `r`, `y` and `visit` all-zero for the next query
//! (a `debug_assert!` holds them to it). The certificate rests on less:
//! `x̃` and `r` are read and written only over `R`, which the graph
//! defines, so inverses that broke the fill pattern could slow a later
//! query through a stale `y`, and a wrong `visit` could only pick a worse
//! `x̃` — never falsify a proof: whichever step ran, the check reads the
//! residual recomputed from the stored graph.
//!
//! Tied proximities can never separate, so the loop fails loudly with
//! [`KdashError::RefinementFailed`] instead of guessing — likewise when
//! the residual stops contracting or is not finite. Returned *values* are
//! `c·x̃`, each within [`VALUE_TOLERANCE`] of exact (a full vector within
//! `1e-13`). A zero residual certifies
//! unconditionally, and ties then resolve as in the classic search: the
//! BFS is drained, candidates are offered in visit order and the heap
//! replaces only on a strictly larger proximity, so at the k-th boundary
//! the earlier-visited of two equals is kept; the answer itself is listed
//! by descending proximity, then ascending *permuted* id. With a nonzero
//! residual a tie never certifies, no verdict depends on the order, and
//! the checks run in id order.

use super::{by_rank, QueryBudget, Searcher, TopKHeap, FULL_VECTOR_FLOOR, VALUE_TOLERANCE};
use crate::precompute::ReachAnchor;
use crate::{KdashError, Result, SearchStats};
use kdash_graph::{BfsScratch, CsrGraph, EpochStamps, NodeId};
use kdash_sparse::DanglingPolicy;
use std::time::Instant;

/// Hard ceiling on certified-refinement steps, sweeps and corrections
/// alike. Either kind shrinks `‖r‖₁` (a step that does not ends the loop
/// as stalled), and the planner never schedules past the ceiling, so a
/// query still uncertified after this many steps is tied (or past the
/// floating-point floor) and fails loudly instead of spinning.
pub(super) const REFINE_MAX_ITERATIONS: usize = 64;

/// Workspace of the certified refinement loop — allocated on the first
/// refined query (sparsified tier only) and reused afterwards. The four
/// dense vectors are indexed by permuted node id, a query touches them
/// only inside its reachable set, and all four are all-zero between
/// queries: each query zeroes that set again on the way out, success or
/// error.
#[derive(Debug)]
pub(super) struct RefineState {
    /// The approximate solution `x̃`.
    x: Vec<f64>,
    /// The residual `r = b − W x̃`.
    resid: Vec<f64>,
    /// The spare vector, all-zero between steps: a correction's
    /// intermediate `y = L̃⁻¹ r` (a `Ũ⁻¹` row reads it at every column,
    /// reachable or not, so it must be zero outside the set), or the next
    /// residual a sweep builds before it swaps with `resid`.
    y: Vec<f64>,
    /// Per node, the residual accumulator's value when the last step
    /// reached it: `b_u` plus that step's pushes from lower ids, and `b`
    /// before the first step. Every step writes it over the whole
    /// reachable set; a sweep reads it.
    visit: Vec<f64>,
    /// The reachable set in ascending permuted id: the order every sweep
    /// streams the id-ordered stores in.
    pub(super) ids: Vec<NodeId>,
    /// The anchor path's BFS queue: what the roots reach beside the
    /// anchor's closure (`R̄`), then sorted for the merge.
    beside: Vec<NodeId>,
    /// Discovery marks of that BFS.
    marks: EpochStamps,
    /// Top-`k` scratch the certification check ranks candidates with.
    heap: TopKHeap,
}

impl RefineState {
    fn new(n: usize) -> Self {
        RefineState {
            x: vec![0.0; n],
            resid: vec![0.0; n],
            y: vec![0.0; n],
            visit: vec![0.0; n],
            ids: Vec::new(),
            beside: Vec::new(),
            marks: EpochStamps::new(n),
            heap: TopKHeap::new(0),
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

    /// Lists the reachable set of `roots`, some of which reach the anchor,
    /// as `R(a) ∪ R̄` in ascending id: a BFS from the roots that never
    /// enters `R(a)` finds `R̄`, whose few ids are then spliced into the
    /// stored closure. Returns `|R̄|`, the nodes whose out-edges it
    /// scanned.
    fn load_ids_beside(
        &mut self,
        graph: &CsrGraph,
        anchor: &ReachAnchor,
        roots: &[NodeId],
    ) -> usize {
        self.marks.advance();
        self.beside.clear();
        for &root in roots.iter().filter(|&&r| !anchor.contains(r)) {
            self.marks.mark(root as usize);
            self.beside.push(root);
        }
        let mut head = 0;
        while let Some(&v) = self.beside.get(head) {
            head += 1;
            for &t in graph.out_neighbors(v) {
                if !anchor.contains(t) && !self.marks.is_marked(t as usize) {
                    self.marks.mark(t as usize);
                    self.beside.push(t);
                }
            }
        }
        self.beside.sort_unstable();
        self.ids.clear();
        let mut rest = anchor.closure.as_slice();
        for &v in &self.beside {
            let split = rest.partition_point(|&u| u < v);
            self.ids.extend_from_slice(&rest[..split]);
            self.ids.push(v);
            rest = &rest[split..];
        }
        self.ids.extend_from_slice(rest);
        self.beside.len()
    }
}

/// Starts a residual in `r`, all-zero over the reachable set, at the
/// restart vector `b`: uniform over the query's (permuted) sources.
pub(super) fn seed_restart(r: &mut [f64], roots: &[NodeId]) {
    let weight = 1.0 / roots.len() as f64;
    for &root in roots {
        r[root as usize] += weight;
    }
}

/// `‖r‖₁` over `ids`, summed in four independent lanes so the adds
/// overlap instead of waiting on one chain.
fn l1_over(r: &[f64], ids: &[NodeId]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut quads = ids.chunks_exact(4);
    for quad in &mut quads {
        for (lane, &j) in lanes.iter_mut().zip(quad) {
            *lane += r[j as usize].abs();
        }
    }
    for (lane, &j) in lanes.iter_mut().zip(quads.remainder()) {
        *lane += r[j as usize].abs();
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// The residual push (module docs): a settled `x̃_j` leaves its own entry
/// of `r` and flows along column `j` of `A` — node `j`'s out-distribution,
/// self-looped when dangling under that policy, empty when dangling is
/// kept absorbing. Pushed in ascending `j`, whatever the step, each entry
/// sums its terms in one fixed order.
#[derive(Clone, Copy)]
struct Push<'a> {
    graph: &'a CsrGraph,
    /// Per node, the sum of its out-weights (the normaliser of its column).
    out_weight: &'a [f64],
    one_minus_c: f64,
    self_loops: bool,
}

impl Push<'_> {
    /// Pushes `x̃_j = xj` into `r`; returns the edge terms moved. Always
    /// inlined: left as a call per node, it made a sweep's speed hinge on
    /// code placement (`rmat-certified` `query_p50_us` +15 % in one build).
    #[inline(always)]
    fn push(self, r: &mut [f64], j: NodeId, xj: f64) -> usize {
        if xj == 0.0 {
            return 0;
        }
        r[j as usize] -= xj;
        let out_sum = self.out_weight[j as usize];
        if out_sum > 0.0 {
            let scale = self.one_minus_c * xj / out_sum;
            let targets = self.graph.out_neighbors(j);
            for (&t, &w) in targets.iter().zip(self.graph.out_weights(j)) {
                r[t as usize] += scale * w;
            }
            return targets.len();
        }
        if self.self_loops {
            r[j as usize] += self.one_minus_c * xj;
        }
        0
    }
}

/// What the refinement loop must prove before it may stop.
pub(super) enum RefineGoal<'o> {
    /// Certify the top-k set and order; the winners land in the
    /// workspace heap (ties by ascending permuted id).
    TopK(usize),
    /// Certify every reachable node's side of `theta` and the order of
    /// the hits; the hits land in the workspace hit list (sorted).
    Threshold(f64),
    /// Iterate every node's bound down to [`FULL_VECTOR_FLOOR`]; `c·x̃`
    /// lands in the provided dense permuted vector.
    FullVector(&'o mut [f64]),
}

/// The certificate of one residual: node `u`'s proximity is within
/// `radius(r_u) = c·|r_u| + (1−c)·‖r‖₁` of `c·x̃_u` (module docs).
#[derive(Clone, Copy)]
pub(super) struct Certificate {
    c: f64,
    /// `‖r‖₁`; zero proves every value exact.
    pub(super) residual_l1: f64,
    /// `(1−c)·‖r‖₁`: the share every node's bound carries.
    slack: f64,
}

impl Certificate {
    pub(super) fn new(c: f64, residual_l1: f64) -> Self {
        Certificate { c, residual_l1, slack: (1.0 - c) * residual_l1 }
    }

    /// Whether the residual is exactly zero: the values are exact, and a
    /// goal is proven whatever its margins.
    fn is_exact(self) -> bool {
        self.residual_l1 == 0.0
    }

    #[inline]
    pub(super) fn radius(self, r_u: f64) -> f64 {
        self.c * r_u.abs() + self.slack
    }
}

/// Top-k certification. Ranks the `k` best candidates — offered in visit
/// order, so at the k-th boundary the earlier-visited of two equals stays
/// — and proves them against the per-node bounds: each answer's lower
/// bound above the next one's upper bound, the k-th's above the upper
/// bound of **every** node outside the answer (with per-node bounds the
/// one that blocks need not be rank `k + 1`; the unreached sit at exactly
/// zero), and each answer's bound within [`VALUE_TOLERANCE`]. A zero
/// residual certifies unconditionally (the values are exact; ties fall to
/// the visit order and the comparator). Returns the verdict and the
/// smallest decisive margin — a lower bound minus the upper bound it must
/// clear, negative while they overlap.
pub(super) fn certify_top_k(
    x: &[f64],
    resid: &[f64],
    order: &[NodeId],
    k: usize,
    cert: Certificate,
    heap: &mut TopKHeap,
) -> (bool, f64) {
    heap.reset(k);
    for &u in order {
        heap.offer(cert.c * x[u as usize], u);
    }
    let ranked = heap.sorted_entries();
    let Some(&(kth, kth_node)) = ranked.last() else {
        return (true, f64::INFINITY);
    };
    let bounds = |&(p, u): &(f64, NodeId)| {
        let radius = cert.radius(resid[u as usize]);
        (p - radius, p + radius, radius)
    };
    let mut margin = f64::INFINITY;
    for pair in ranked.windows(2) {
        margin = margin.min(bounds(&pair[0]).0 - bounds(&pair[1]).1);
    }
    // Above the k-th proximity every node is an answer; at it only the
    // (rare) exact ties need the membership scan.
    let mut outside = 0.0f64;
    for &u in order {
        let p = cert.c * x[u as usize];
        if p < kth || (p == kth && u != kth_node && !ranked.iter().any(|e| e.1 == u)) {
            outside = outside.max(bounds(&(p, u)).1);
        }
    }
    margin = margin.min(bounds(&(kth, kth_node)).0 - outside);
    let within = ranked.iter().all(|e| bounds(e).2 <= VALUE_TOLERANCE);
    (cert.is_exact() || (margin > 0.0 && within), margin)
}

/// Threshold certification against the per-node bounds: every reachable
/// node provably on one side of `theta`, the hits provably ordered among
/// themselves, and each hit's bound within [`VALUE_TOLERANCE`]. Fills
/// `hits` with the candidate answers, sorted; on the accepting iteration
/// they are the final ones. Returns the verdict and the smallest decisive
/// margin, as [`certify_top_k`] does.
pub(super) fn certify_threshold(
    x: &[f64],
    resid: &[f64],
    order: &[NodeId],
    theta: f64,
    cert: Certificate,
    hits: &mut Vec<(f64, NodeId)>,
) -> (bool, f64) {
    hits.clear();
    let mut margin = f64::INFINITY;
    let mut within = true;
    for &u in order {
        let (p, radius) = (cert.c * x[u as usize], cert.radius(resid[u as usize]));
        if p >= theta {
            hits.push((p, u));
            margin = margin.min(p - radius - theta);
            within &= radius <= VALUE_TOLERANCE;
        } else {
            margin = margin.min(theta - (p + radius));
        }
    }
    hits.sort_unstable_by(by_rank);
    for pair in hits.windows(2) {
        let [(p, u), (q, v)] = [pair[0], pair[1]];
        let (lower, upper) = (p - cert.radius(resid[u as usize]), q + cert.radius(resid[v as usize]));
        margin = margin.min(lower - upper);
    }
    (cert.is_exact() || (margin > 0.0 && within), margin)
}

/// The two kinds of refinement step (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Step {
    /// One Gauss–Seidel push sweep in ascending id: `‖r‖₁` never rises,
    /// and is planned to shrink by `1−c`, its floor while the residual
    /// keeps one sign.
    Sweep,
    /// `x̃ += Ũ⁻¹(L̃⁻¹ r)`: a scatter and a row-dot sweep, `‖r‖₁` shrinks
    /// by the observed `ρ`.
    Correction,
}

/// What unit tests steer and watch the refinement loop by: steps it
/// runs in place of the planner's after the first, in order, and at every
/// residual check the step just run with `x̃` and `r` as it left them.
#[cfg(test)]
#[derive(Debug, Default)]
pub(super) struct RefineProbe {
    pub(super) script: std::collections::VecDeque<Step>,
    pub(super) seen: Vec<(Step, Vec<f64>, Vec<f64>)>,
}

/// One step kind as the planner sees it.
#[derive(Debug, Clone, Copy)]
pub(super) struct StepModel {
    /// Stored entries the step moves plus one unit per node per sweep
    /// over the reachable set.
    pub(super) work: f64,
    /// The factor the step is expected to shrink `‖r‖₁` by.
    pub(super) contraction: f64,
}

impl StepModel {
    /// Shrinkage per step in nepers: `+∞` for a step that zeroes the
    /// residual, not positive (or NaN) for one that does not shrink it.
    pub(super) fn gain(self) -> f64 {
        -self.contraction.ln()
    }
}

/// The next refinement step: the first of the cheapest mix of sweeps and
/// corrections expected to take `‖r‖₁` from `residual` down to `target`
/// within `steps_left` steps. Corrections come first in a mix: `ρ` is
/// only an estimate until a correction measures it again (the first one,
/// off `b`, is the least telling), while a sweep is planned at `1−c`, its
/// floor on a one-signed residual, and its finer steps overshoot the
/// target less. The loop re-plans after every step. A correction not
/// expected to contract (`ρ ≥ 1`, or NaN) is never planned. With the
/// target already reached but the goal unproven, the step with the most
/// shrinkage per unit of work runs; with no mix that fits in the steps
/// left, the one with the most shrinkage per step. After a first sweep no
/// correction has measured `ρ` (it stays NaN), so every step is a sweep.
/// Soundness never rests on the choice: every check reads a residual
/// recomputed from the stored graph.
pub(super) fn plan(
    sweep: StepModel,
    correction: StepModel,
    residual: f64,
    target: f64,
    steps_left: usize,
) -> Step {
    let (gs, gc) = (sweep.gain(), correction.gain());
    if gc.is_nan() || gc <= 0.0 {
        return Step::Sweep;
    }
    let need = (residual / target).ln();
    if need <= 0.0 {
        return if gs / sweep.work >= gc / correction.work {
            Step::Sweep
        } else {
            Step::Correction
        };
    }
    // `b` corrections, then as many sweeps as the rest of the way needs.
    let mut cheapest: Option<(f64, Step)> = None;
    for b in 0..=steps_left {
        let rest = if b == 0 { need } else { need - b as f64 * gc };
        let a = if rest > 0.0 { (rest / gs).ceil().max(1.0) } else { 0.0 };
        if a + b as f64 > steps_left as f64 {
            continue;
        }
        let cost = a * sweep.work + b as f64 * correction.work;
        if cheapest.is_none_or(|(least, _)| cost < least) {
            cheapest = Some((cost, if b > 0 { Step::Correction } else { Step::Sweep }));
        }
    }
    match cheapest {
        Some((_, step)) => step,
        None if gs >= gc => Step::Sweep,
        None => Step::Correction,
    }
}

/// Whether a query at restart probability `c` starts with a sweep: whether
/// the planner's sweep-only mix takes `‖r‖₁` from `‖b‖₁ = 1` down to
/// `target` within the step cap. From `x̃ = 0` every sweep provably
/// shrinks `‖r‖₁` by `1−c` (module docs), so sweeps alone get there.
pub(super) fn sweeps_reach(c: f64, target: f64) -> bool {
    (target.recip().ln() / -(1.0 - c).ln()).ceil() <= REFINE_MAX_ITERATIONS as f64
}

impl<'a> Searcher<'a> {
    /// The certified refinement driver (see the module docs): lists the
    /// whole reachable set and runs steps over it until `goal` is proven.
    /// Expects a source prologue to have run: the BFS seeded at the roots,
    /// and the restart vector `b` uniform over them. Out of line, so the
    /// dense-tier loops compile the same without it.
    #[inline(never)]
    pub(super) fn refined_run(
        &mut self,
        mut goal: RefineGoal<'_>,
        stats: &mut SearchStats,
    ) -> Result<()> {
        let index = self.index;
        let mut st =
            self.refine.take().unwrap_or_else(|| Box::new(RefineState::new(index.num_nodes())));
        debug_assert!(
            st.x.iter().chain(&st.resid).chain(&st.y).chain(&st.visit).all(|&v| v == 0.0),
            "refinement vectors must be all-zero between queries"
        );
        // No bound can prune against approximate proximities, so the
        // refined path always solves the whole reachable set.
        let anchor = index.reach_anchor();
        if anchor.reached_from(&self.roots) {
            let scanned = st.load_ids_beside(index.permuted_graph(), anchor, &self.roots);
            self.anchored = Some((st.ids.len(), scanned));
        } else {
            self.drain_bfs();
            st.load_ids(&self.bfs);
        }
        let result = self.refined_run_inner(&mut st, &mut goal, stats);
        // Zero the vectors over the reachable set before parking the state:
        // an error leaves the workspace exactly as reusable as success.
        for &u in &st.ids {
            let i = u as usize;
            (st.x[i], st.resid[i], st.y[i], st.visit[i]) = (0.0, 0.0, 0.0, 0.0);
        }
        self.refine = Some(st);
        result
    }

    /// Drains the lazy BFS, for what needs the visit order or exact
    /// reachability after the anchor path skipped it. Its counters are the
    /// query's from then on: they cover every node the anchor path
    /// scanned.
    fn drain_bfs(&mut self) {
        while self.bfs.expand_next_layer(self.index.permuted_graph()) > 0 {}
        self.anchored = None;
    }

    /// The budget check of the refinement steps, once per node before
    /// its work: the typed abort carries the stats so far.
    #[inline]
    fn within_budget(&self, stats: &SearchStats, started: Option<Instant>) -> Result<()> {
        match self.budget.exceeded(stats.visited, self.counters.nnz, started) {
            Some(limit) => Err(self.budget_abort(limit, stats.clone())),
            None => Ok(()),
        }
    }

    /// One step of `kind` over `R` (module docs). `first` (1 or 0) is
    /// charged per node as a visit and a proximity computation, and a
    /// correction charges each `L̃⁻¹` entry into `stats.refinement_nnz` as
    /// it reads it. Returns the edge terms pushed. Out of line: inlined
    /// into the loop, `rmat-certified` `query_p50_us` read ≈ 8 % slower.
    #[inline(never)]
    fn step(
        &mut self,
        kind: Step,
        st: &mut RefineState,
        push: Push<'_>,
        first: usize,
        stats: &mut SearchStats,
        started: Option<Instant>,
    ) -> Result<usize> {
        // Hoisted: the per-node checks cost a sweep ~15 % even when no
        // ceiling is set, which none then can reach.
        let budgeted = self.budget != QueryBudget::unlimited();
        let (linv, uinv) = (self.index.linv(), self.index.uinv());
        let RefineState { x, resid, y, visit, ids, .. } = st;
        let mut edge_terms = 0;
        match kind {
            Step::Sweep => {
                // On reaching u, y_u is b_u plus this sweep's pushes from
                // below u, and r_u + x̃_u − visit_u the last step's pushes
                // from u up, so their sum solves row u. r is emptied as it
                // is read, so the swap leaves the spare all-zero.
                seed_restart(y, &self.roots);
                // Sliced to one length, so the bounds check on `y[i]`
                // covers the other three vectors (≈ 5 % of a sweep).
                let n = y.len();
                let (xn, rn, vn) = (&mut x[..n], &mut resid[..n], &mut visit[..n]);
                for &u in ids.iter() {
                    if budgeted {
                        self.within_budget(stats, started)?;
                    }
                    stats.visited += first;
                    stats.proximity_computations += first;
                    let i = u as usize;
                    let below = y[i];
                    let xu = below + (std::mem::take(&mut rn[i]) + xn[i] - vn[i]);
                    vn[i] = below;
                    xn[i] = xu;
                    edge_terms += push.push(y, u, xu);
                }
                std::mem::swap(resid, y);
            }
            Step::Correction => {
                // The L̃⁻¹ columns of the residual's nonzeros accumulate
                // into the dense y (their supports stay inside the
                // reachable set), then every reachable Ũ⁻¹ row is dotted
                // against it through the workspace kernel and its new
                // value pushed.
                for &j in ids.iter() {
                    let rj = std::mem::take(&mut resid[j as usize]);
                    if rj == 0.0 {
                        continue;
                    }
                    let (idx, val) = linv.col(j);
                    stats.refinement_nnz += idx.len();
                    for (&i, &v) in idx.iter().zip(val) {
                        y[i as usize] += rj * v;
                    }
                }
                seed_restart(resid, &self.roots);
                for &u in ids.iter() {
                    if budgeted {
                        self.within_budget(stats, started)?;
                    }
                    stats.visited += first;
                    stats.proximity_computations += first;
                    let dot = uinv.row_dot_dense(self.kernel, u, y, &mut self.counters);
                    let xu = x[u as usize] + dot;
                    // No later (higher) row reads column u.
                    y[u as usize] = 0.0;
                    x[u as usize] = xu;
                    visit[u as usize] = resid[u as usize];
                    edge_terms += push.push(resid, u, xu);
                }
            }
        }
        Ok(edge_terms)
    }

    fn refined_run_inner(
        &mut self,
        st: &mut RefineState,
        goal: &mut RefineGoal<'_>,
        stats: &mut SearchStats,
    ) -> Result<()> {
        let index = self.index;
        let c = index.restart_probability();
        let one_minus_c = 1.0 - c;
        let started = self.budget.start();
        let push = Push {
            graph: index.permuted_graph(),
            out_weight: index.out_weight(),
            one_minus_c,
            self_loops: index.dangling_policy() == DanglingPolicy::SelfLoop,
        };

        // The bound every returned value must meet, and the residual the
        // planner aims for: where `(1−c)·‖r‖₁` meets the value tolerance,
        // or where `‖r‖₁` itself meets the full-vector floor.
        let (tolerance, target) = match goal {
            RefineGoal::FullVector(_) => (FULL_VECTOR_FLOOR, FULL_VECTOR_FLOOR),
            _ => (VALUE_TOLERANCE, VALUE_TOLERANCE / one_minus_c),
        };

        // The first step runs from x̃ = 0 and r = visit = b: a sweep then
        // takes x̃_u = y_u, and a correction gathers Ũ⁻¹(L̃⁻¹ b). It is a
        // sweep wherever sweeps alone provably reach the target.
        seed_restart(&mut st.resid, &self.roots);
        seed_restart(&mut st.visit, &self.roots);
        let mut step = if sweeps_reach(c, target) { Step::Sweep } else { Step::Correction };
        let reach = st.ids.len();
        let mut sweep = StepModel { work: 0.0, contraction: one_minus_c };
        let mut correction = StepModel { work: 0.0, contraction: f64::NAN };
        let mut iterations = 0usize;
        let mut prev_norm = 1.0;
        loop {
            let first = usize::from(iterations == 0);
            let gathered_before = self.counters.nnz;
            // The first step charges every node as a visit and a
            // proximity computation, as the dense tier's visit does.
            let edge_terms = self.step(step, st, push, first, stats, started)?;
            let gathered = self.counters.nnz - gathered_before;
            stats.refinement_nnz += edge_terms + gathered;
            let RefineState { x, resid, ids, heap, .. } = &mut *st;
            if first == 1 {
                // The planner's view of the two kinds, from this query's
                // own counts. A first correction applied the
                // preconditioner once to r = b, ‖b‖₁ = 1, so ρ starts as
                // ‖r‖₁ after it; after a first sweep ρ stays unmeasured,
                // and no correction is planned. A correction is priced as
                // a scatter of every `L̃⁻¹` column of R.
                let scattered = ids.iter().filter(|_| step == Step::Correction);
                let linv_nnz: usize = scattered.map(|&u| index.linv().col(u).0.len()).sum();
                sweep.work = (edge_terms + 2 * reach) as f64;
                correction.work = (linv_nnz + gathered + edge_terms + 3 * reach) as f64;
            }

            let delta = l1_over(resid, ids);
            #[cfg(test)]
            if let Some(probe) = &mut self.probe {
                probe.seen.push((step, x.clone(), resid.clone()));
            }
            if !delta.is_finite() {
                // The stored values overflowed: no bound holds at all.
                return Err(KdashError::RefinementFailed {
                    iterations,
                    residual: delta,
                    gap: f64::NEG_INFINITY,
                });
            }

            if step == Step::Correction {
                correction.contraction = delta / prev_norm;
            }

            // Certify the goal against the per-node bounds — unless the
            // share every bound carries already exceeds the tolerance, so
            // no node can meet it. Tied (or sub-floating-point-separated)
            // proximities never certify, and a residual a step failed to
            // shrink is past the floating-point floor or out of the
            // preconditioner's reach: then the check runs anyway, for the
            // margin the loud failure reports — never an unproven answer.
            let cert = Certificate::new(c, delta);
            let stalled =
                iterations >= REFINE_MAX_ITERATIONS || (iterations > 0 && delta >= prev_norm);
            if cert.slack <= tolerance || stalled {
                // Visit order decides a tie at the k-th boundary, and only
                // a zero residual lets a tie certify: only then are the
                // candidates offered in BFS order. Otherwise no verdict
                // depends on the order, and the id order stands in.
                let order = if cert.is_exact() {
                    self.drain_bfs();
                    self.bfs.order()
                } else {
                    ids.as_slice()
                };
                let (certified, margin) = match goal {
                    RefineGoal::TopK(k) => certify_top_k(x, resid, order, *k, cert, heap),
                    RefineGoal::Threshold(theta) => {
                        certify_threshold(x, resid, order, *theta, cert, &mut self.hits)
                    }
                    RefineGoal::FullVector(_) => {
                        let worst = ids.iter().map(|&u| cert.radius(resid[u as usize]));
                        let margin = FULL_VECTOR_FLOOR - worst.fold(0.0, f64::max);
                        (margin >= 0.0, margin)
                    }
                };
                if certified {
                    break;
                }
                if stalled {
                    return Err(KdashError::RefinementFailed {
                        iterations,
                        residual: delta,
                        gap: margin,
                    });
                }
            }
            prev_norm = delta;

            step = plan(sweep, correction, delta, target, REFINE_MAX_ITERATIONS - iterations);
            #[cfg(test)]
            if let Some(forced) = self.probe.as_mut().and_then(|p| p.script.pop_front()) {
                step = forced;
            }
            iterations += 1;
        }
        stats.refinement_iterations = iterations;

        // Deliver the certified answer.
        match goal {
            RefineGoal::TopK(k) => {
                // The certification scratch holds the proven answer.
                self.heap.reset(*k);
                for &(p, u) in st.heap.sorted_entries() {
                    self.heap.offer(p, u);
                }
                // Fewer than `k` reachable: the epilogue pads from the
                // BFS's marks.
                if !self.heap.is_full() {
                    self.drain_bfs();
                }
            }
            // The accepting certification pass left the sorted hits in
            // the workspace hit list.
            RefineGoal::Threshold(_) => {}
            RefineGoal::FullVector(out) => {
                for &u in st.ids.iter() {
                    out[u as usize] = c * st.x[u as usize];
                }
            }
        }
        Ok(())
    }
}
