//! The proximity upper bounds.
//!
//! # The stop rule of the search (`InflowBound`)
//!
//! Every non-source node satisfies the RWR equation with its self-loop
//! solved out, `p_u = c'_u · Σ_{v≠u} A_uv p_v` with
//! `c'_u = (1−c)/(1 − A_uu + c·A_uu)`. Split the sum by what the search
//! has computed so far:
//!
//! **Lemma.** Let `C` be the computed nodes, `S_u = Σ_{v∈C, v≠u} A_uv p_v`
//! (exact: every term is known), `Ā_u = max_v A_uv` and
//! `R = M − Σ_{v∈C} p_v` for any `M ≥ Σ_v p_v`. Then every uncomputed
//! non-source `u` has `p_u ≤ c'_u · (S_u + Ā_u · R)`.
//!
//! *Proof.* `p_u = c'_u (S_u + Σ_{v∉C, v≠u} A_uv p_v)`; each `A_uv ≤ Ā_u`
//! and proximities are non-negative, so the second sum is at most
//! `Ā_u · Σ_{v∉C} p_v`; and `Σ_{v∉C} p_v = Σ_v p_v − Σ_{v∈C} p_v ≤ R`. ∎
//!
//! The search stops once no uncomputed node's bound reaches θ (strictly:
//! a bound *equal* to θ keeps it going). `S_u` is kept per node by pushing
//! `p_v · A_uv` along `v`'s out-edges when `v` is computed; a node no push
//! has reached has `S_u = 0` and is covered by `c'_max · A_max · R`. `M` is
//! the query's own mass `M_q = c · (1ᵀU⁻¹)(L⁻¹e_q)` — below 1 whenever a
//! walk can die in a sink ([`DanglingPolicy::Keep`]) — rounded up by
//! a relative `10⁻⁹` (`MASS_SLACK`) and clamped to 1.
//!
//! # Definition 2 is a relaxation of it
//!
//! [`LayerEstimator`] is the paper's Definition 1 with the `O(1)` update
//! of Definition 2: visiting in BFS-layer order from the query, the
//! estimate of the next node derives from the previous node's three terms
//!
//! ```text
//! p̄_u = c'_u · ( Σ_{v ∈ V_{l−1}(u)} p_v·A_max(v)     (term 1)
//!              + Σ_{v ∈ V_l(u)}     p_v·A_max(v)      (term 2)
//!              + (1 − Σ_{v ∈ V_s} p_v) · A_max )      (term 3)
//! ```
//!
//! A computed in-neighbour of an uncomputed node of layer `≥ l` lies in
//! layer `l−1` or `l`, and `A_uv ≤ A_max(v)`, so `S_u ≤` term 1 + term 2
//! for every uncomputed `u` at once; `M_q ≤ 1` and `Ā_u ≤ A_max` put
//! `Ā_u · R` below term 3. The lemma's bound is never above Definition
//! 2's, so the search never computes more than the paper's does — and on
//! graphs with sinks far less, because term 3 can never fall below
//! `(1 − M_q) · A_max`: the mass the walk loses is mass Definition 2 waits
//! for forever.
//!
//! Lemma 1 guarantees `p̄_u ≥ p_u`; Lemma 2 guarantees the sequence of
//! `p̄` is non-increasing along the visit, which is what lets the paper
//! stop at the first node whose bound drops below θ. The stop rule above
//! needs no monotonicity: it tests every uncomputed node, not just the
//! next one, so nothing has to be inferred about the rest. Definition 2
//! lives on where the paper's own count is the point: the eager oracle
//! ([`crate::paper::top_k_merge_join`]) and the estimator ablation bench,
//! both reaching it as `kdash_core::paper::LayerEstimator`.
//!
//! Note on the paper text: Definition 2's root case writes the third term
//! as `(1 − p_q)·A_max(u)`; consistency with Definition 1 and with Lemma 2
//! requires the **global** `A_max` there, which is what this implementation
//! (and the paper's own Definition 1) uses.
//!
//! [`ArbitraryOrderBound`] is the weaker bound used by the random-root
//! ablation (paper Appendix D.1, [`crate::paper::top_k_from_root`]): it
//! stays valid for *any* visit order but
//! bounds one node at a time with no in-neighbour sums, so it can only
//! skip individual nodes, never terminate.
//!
//! # Where the constants come from
//!
//! Every constant above — `A_max(v)`, `A_max`, `c'_u`, `c'_max`, `Ā_u` —
//! is a function of the transition matrix `A` and `c` alone, and
//! `BoundConstants::of` is the one place that function is written down.
//! It reads `A` straight off the graph's out-edges, entry by entry the
//! value [`kdash_sparse::transition_matrix`] stores. It has two callers:
//! the index constructor — a build, a load and an update each hand that a
//! graph, never constants, so no index can hold the constants of another
//! matrix than its own — and the audit, as its independent recompute.
//! (The query mass's column sums `1ᵀU⁻¹` are a table of the stored `U⁻¹`,
//! and live with it: [`kdash_sparse::ProximityStore::column_sums`].)

use crate::KdashIndex;
use kdash_graph::{CsrGraph, NodeId};
use kdash_sparse::DanglingPolicy;

/// The constants of the bounds (see the module docs), in permuted node
/// order.
#[derive(Debug, Clone)]
pub(crate) struct BoundConstants {
    /// `A_max(v)`: the largest entry of column `v` (Definition 1).
    pub a_col_max: Vec<f64>,
    /// `A_max`: the largest entry of `A`.
    pub a_max: f64,
    /// `c'_u = (1−c)/(1 − A_uu + c·A_uu)`: the RWR equation's factor with
    /// `u`'s self-loop solved out — the paper's `1−c` where there is none.
    pub c_prime: Vec<f64>,
    /// `max_u c'_u`: what a bound multiplies by when it speaks for nodes
    /// it never looks at.
    pub c_prime_max: f64,
    /// `Ā_u = max_v A_uv`: the largest share any in-neighbour hands `u`.
    pub a_row_max: Vec<f64>,
}

impl BoundConstants {
    /// Reads the constants off the transition matrix of `graph` under
    /// `dangling`, in one pass over its out-edges: `A_uv = w(v→u) /
    /// out_weight[v]`, and `A_vv = 1` for a dangling `v` under
    /// [`DanglingPolicy::SelfLoop`] — bit for bit the entries
    /// [`kdash_sparse::transition_matrix`] stores. `out_weight` is
    /// [`CsrGraph::out_weight_sum`] per node. (A maximum has to be taken
    /// over the whole matrix even after a one-edge edit: a row's can fall,
    /// and only a pass finds the runner-up.)
    pub(crate) fn of(
        graph: &CsrGraph,
        out_weight: &[f64],
        dangling: DanglingPolicy,
        c: f64,
    ) -> BoundConstants {
        let n = graph.num_nodes();
        let mut a_col_max = Vec::with_capacity(n);
        let mut c_prime = Vec::with_capacity(n);
        let mut a_row_max = vec![0.0f64; n];
        for v in 0..n as NodeId {
            let out_sum = out_weight[v as usize];
            let looped = [v];
            // Column `v` of `A` as (rows, weights, normaliser).
            let (rows, weights, norm): (&[NodeId], &[f64], f64) = if out_sum > 0.0 {
                (graph.out_neighbors(v), graph.out_weights(v), out_sum)
            } else if dangling == DanglingPolicy::SelfLoop {
                (&looped, &[1.0], 1.0)
            } else {
                (&[], &[], 1.0)
            };
            let (mut col_max, mut a_vv) = (0.0f64, 0.0);
            for (&u, &w) in rows.iter().zip(weights) {
                let a_uv = w / norm;
                col_max = col_max.max(a_uv);
                let slot = &mut a_row_max[u as usize];
                *slot = slot.max(a_uv);
                if u == v {
                    a_vv = a_uv;
                }
            }
            a_col_max.push(col_max);
            c_prime.push((1.0 - c) / (1.0 - a_vv + c * a_vv));
        }
        let max_of = |xs: &[f64]| xs.iter().copied().fold(0.0f64, f64::max);
        BoundConstants {
            a_max: max_of(&a_col_max),
            c_prime_max: max_of(&c_prime),
            a_col_max,
            c_prime,
            a_row_max,
        }
    }
}

/// Relative amount the computed query mass `M_q` is rounded up by before
/// it bounds anything. The dot product that yields it and the gathers that
/// yield the proximities it is compared with sum the same non-negative
/// products in different orders, so they agree to a few `n·ε` (`≈ 10⁻¹²`
/// at a million nodes); three decades above that keeps the remaining mass
/// `R` an over-estimate, at the price of never stopping a search on a θ
/// below `≈ 10⁻⁹ · A_max`.
pub(crate) const MASS_SLACK: f64 = 1e-9;

/// One node's state in [`InflowBound`]: everything a push reads and
/// writes, in one 16-byte slot.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// `S_u` while `stamp` is the current generation, `−∞` once `u` itself
    /// is computed; stale otherwise.
    inflow: f64,
    /// The generation `inflow` was last written in.
    stamp: u32,
    /// Whether `u` is on the hot stack.
    stacked: bool,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

/// The stop rule of the search (see the module docs): exact in-neighbour
/// sums of the computed proximities plus the query's remaining mass bound
/// every uncomputed node at once.
///
/// Lives in the [`Searcher`](crate::Searcher) workspace: `O(n)` once,
/// nothing per query. Each node owns one [`Slot`]; a slot whose stamp is
/// not the current generation reads as `S_u = 0`, so a query starts by
/// bumping the generation (and, once every `u32::MAX` queries, when the
/// counter wraps, resetting every slot). A computed node's sum is `−∞`, so
/// neither a later push nor the hot test can resurrect it.
///
/// The hot stack holds nodes whose bound reached θ at the push that last
/// raised it. θ never falls and `R` never rises, so a node can only
/// *become* hot at a push: the stack holds every hot node, and the stop
/// test pops dead tops until a live one — or nothing — is left.
///
/// The push loop stacks without a data-dependent branch: every pushed
/// node is written speculatively at the stack's depth, which then moves up
/// by `go = !stacked ∧ c'_max·(S_u + Ā_u·R) ≥ θ`. Its first-touch read is
/// a branch: `S_u` is the slot's sum if stamped now, else `0`, written as a
/// select, but the release build compiles it to a compare of the stamp and
/// a jump around the load of the sum (in `Searcher::ranked`, where the push
/// is inlined; `std::hint::select_unpredictable` and a bit-mask select
/// compile to the same branch). The stacked flags keep a
/// node from being stacked twice, so the depth never exceeds `n` and the
/// `n + 1`-entry buffer always has room for the speculative write.
#[derive(Debug)]
pub(crate) struct InflowBound {
    slots: Vec<Slot>,
    /// The current generation: slots stamped with it hold this query's
    /// sums. `0` until the first query, so a fresh workspace and one just
    /// past the wrap both run their next query in generation 1.
    epoch: u32,
    /// The hot stack's buffer, `n + 1` entries; `stack[..depth]` is live.
    stack: Vec<NodeId>,
    depth: usize,
    /// `M_q`, rounded up and clamped.
    mass: f64,
    /// `R = M_q − Σ_{computed} p_v` (may dip a rounding error below zero;
    /// read through [`remaining`](Self::remaining)).
    remaining: f64,
}

impl InflowBound {
    pub(crate) fn new(n: usize) -> Self {
        InflowBound {
            slots: vec![Slot::default(); n],
            epoch: 0,
            stack: vec![0; n + 1],
            depth: 0,
            mass: 1.0,
            remaining: 1.0,
        }
    }

    /// Starts a query whose proximities were computed to sum to `mass`:
    /// `M_q` is that, rounded up and clamped.
    pub(crate) fn begin(&mut self, mass: f64) {
        for &u in &self.stack[..self.depth] {
            self.slots[u as usize].stacked = false;
        }
        self.depth = 0;
        if self.epoch == u32::MAX {
            self.slots.fill(Slot::default());
            self.epoch = 0;
        }
        self.epoch += 1;
        self.mass = (mass * (1.0 + MASS_SLACK)).min(1.0);
        self.remaining = self.mass;
    }

    /// The mass bound `M_q` of the current query.
    pub(crate) fn mass(&self) -> f64 {
        self.mass
    }

    #[inline]
    fn remaining(&self) -> f64 {
        self.remaining.max(0.0)
    }

    /// Accounts the exact proximity `p` just computed for `v`: takes it
    /// out of the remaining mass, retires `v`, and pushes `p · A_uv` to
    /// every out-neighbour `u`, stacking those the push leaves hot against
    /// `theta` (the goal's cutoff, `0` while anything would still matter).
    #[inline]
    pub(crate) fn record(&mut self, index: &KdashIndex, v: NodeId, p: f64, theta: f64) {
        self.remaining -= p;
        let epoch = self.epoch;
        let retired = &mut self.slots[v as usize];
        retired.inflow = f64::NEG_INFINITY;
        retired.stamp = epoch;
        let out_sum = index.out_weight()[v as usize];
        if out_sum <= 0.0 {
            return;
        }
        let scale = p / out_sum;
        let r = self.remaining();
        let bounds = index.bounds();
        let (c_prime_max, a_row_max) = (bounds.c_prime_max, &bounds.a_row_max[..]);
        let graph = index.permuted_graph();
        let mut depth = self.depth;
        for (&u, &w) in graph.out_neighbors(v).iter().zip(graph.out_weights(v)) {
            let slot = &mut self.slots[u as usize];
            let base = if slot.stamp == epoch { slot.inflow } else { 0.0 };
            let inflow = base + scale * w;
            slot.inflow = inflow;
            slot.stamp = epoch;
            let go = !slot.stacked & (c_prime_max * (inflow + a_row_max[u as usize] * r) >= theta);
            slot.stacked |= go;
            self.stack[depth] = u;
            depth += go as usize;
        }
        self.depth = depth;
    }

    /// Whether no uncomputed non-source node can have a proximity of
    /// `theta` or more — the search may stop. `O(1)` amortised: each pop
    /// undoes one push of [`record`](Self::record).
    #[inline]
    pub(crate) fn none_reaches(&mut self, index: &KdashIndex, theta: f64) -> bool {
        // Nodes no push has reached: S_u = 0, Ā_u ≤ A_max.
        let bounds = index.bounds();
        let r = self.remaining();
        if bounds.c_prime_max * bounds.a_max * r >= theta {
            return false;
        }
        // Every stacked node was pushed this query, so its slot is current.
        while self.depth > 0 {
            let u = self.stack[self.depth - 1] as usize;
            let slot = &mut self.slots[u];
            if bounds.c_prime_max * (slot.inflow + bounds.a_row_max[u] * r) >= theta {
                return false;
            }
            slot.stacked = false;
            self.depth -= 1;
        }
        true
    }

    /// The live hot stack, bottom first.
    #[cfg(test)]
    fn hot(&self) -> &[NodeId] {
        &self.stack[..self.depth]
    }

    /// Test hook: forces the generation, to reach the wrap without four
    /// billion queries.
    #[cfg(test)]
    fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

/// Incremental Definition 1 / Definition 2 estimator.
///
/// The implementation generalises the paper's `u′ = q` special case into
/// the uniform rule "fold the previous node into term 2, rotate terms on a
/// layer change": starting from `(0, 0, A_max)` with the root recorded as
/// an ordinary layer-0 selection reproduces Definition 2 exactly for a
/// single root *and* stays correct when several nodes occupy layer 0 —
/// which is what the multi-source (restart-set) extension needs.
#[derive(Debug, Clone)]
pub struct LayerEstimator {
    /// Global maximum of the transition matrix (`A_max`).
    a_max: f64,
    /// Three terms of the *previous* visited node's estimate.
    term1: f64,
    term2: f64,
    term3: f64,
    /// Previous node's layer, exact proximity and column maximum.
    prev: Option<Prev>,
}

#[derive(Debug, Clone, Copy)]
struct Prev {
    layer: u32,
    proximity: f64,
    col_max: f64,
}

impl LayerEstimator {
    /// A fresh estimator for one query; `a_max` is the global maximum
    /// element of the transition matrix. Initial terms are
    /// `(0, 0, A_max)` — no mass selected yet.
    pub fn new(a_max: f64) -> Self {
        LayerEstimator { a_max, term1: 0.0, term2: 0.0, term3: a_max, prev: None }
    }

    /// Advances to the node about to be visited at `layer` and returns the
    /// raw term sum `term1 + term2 + term3`. The caller multiplies by the
    /// node-specific `c'_u = (1−c)/(1 − A_uu + c·A_uu)` to get `p̄_u`.
    ///
    /// Panics in debug builds if the visit order violates BFS layering.
    pub fn advance(&mut self, layer: u32) -> f64 {
        let prev = self.prev.expect("advance called before recording a first node");
        debug_assert!(
            layer == prev.layer || layer == prev.layer + 1,
            "BFS order violated: layer {layer} after {}",
            prev.layer
        );
        if layer == prev.layer {
            self.term2 += prev.proximity * prev.col_max;
            self.term3 -= prev.proximity * self.a_max;
        } else {
            self.term1 = self.term2 + prev.proximity * prev.col_max;
            self.term2 = 0.0;
            self.term3 -= prev.proximity * self.a_max;
        }
        // Floating-point cancellation may push term3 a hair negative once
        // almost all probability mass is accounted for; the mathematical
        // value is >= 0 and clamping keeps the bound sound.
        if self.term3 < 0.0 {
            self.term3 = 0.0;
        }
        self.term1 + self.term2 + self.term3
    }

    /// Records the node just visited (after its exact proximity was
    /// computed) so the next [`advance`](LayerEstimator::advance) can build
    /// on it.
    pub fn record_selected(&mut self, layer: u32, proximity: f64, col_max: f64) {
        self.prev = Some(Prev { layer, proximity, col_max });
    }
}

/// Order-agnostic upper bound:
/// `p_u ≤ c'_u · ( Σ_{v ∈ V_s} p_v·A_max(v) + (1 − Σ_{v ∈ V_s} p_v)·A_max )`
/// for every non-query `u`. Every in-neighbour of `u` is either selected
/// (covered by the first sum) or not (covered by the remainder term), so no
/// layer structure is needed — at the price of a much looser bound and no
/// termination guarantee.
#[derive(Debug, Clone)]
pub struct ArbitraryOrderBound {
    a_max: f64,
    /// `Σ_{v ∈ V_s} p_v · A_max(v)`.
    selected_sum: f64,
    /// `1 − Σ_{v ∈ V_s} p_v`.
    remainder: f64,
}

impl ArbitraryOrderBound {
    /// Fresh bound state (no nodes selected yet).
    pub fn new(a_max: f64) -> Self {
        ArbitraryOrderBound { a_max, selected_sum: 0.0, remainder: 1.0 }
    }

    /// The raw bound term; multiply by the node's `c'_u`.
    /// Only valid for non-query nodes.
    pub fn bound_term(&self) -> f64 {
        self.selected_sum + self.remainder.max(0.0) * self.a_max
    }

    /// Accounts a newly selected node.
    pub fn record(&mut self, proximity: f64, col_max: f64) {
        self.selected_sum += proximity * col_max;
        self.remainder -= proximity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precompute::out_weight_sums;
    use crate::{IndexOptions, NodeOrdering};
    use kdash_graph::GraphBuilder;
    use kdash_sparse::{transition_matrix, CscMatrix};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// 0 → {1, 2} → 3 → 4 under the natural order, so ids are positions.
    fn diamond() -> KdashIndex {
        let mut b = GraphBuilder::new(5);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)] {
            b.add_edge(u, v, 1.0);
        }
        let options = IndexOptions { ordering: NodeOrdering::Natural, ..Default::default() };
        KdashIndex::build(&b.build().unwrap(), options).unwrap()
    }

    /// The constants read off the entries [`transition_matrix`] stores:
    /// the reference `BoundConstants::of` must match bit for bit.
    fn read_off_transition(a: &CscMatrix, c: f64) -> BoundConstants {
        let mut a_col_max = Vec::new();
        let mut c_prime = Vec::new();
        let mut a_row_max = vec![0.0f64; a.nrows()];
        for v in 0..a.ncols() as NodeId {
            let (rows, vals) = a.col(v);
            let (mut col_max, mut a_vv) = (0.0f64, 0.0);
            for (&u, &w) in rows.iter().zip(vals) {
                col_max = col_max.max(w);
                a_row_max[u as usize] = a_row_max[u as usize].max(w);
                if u == v {
                    a_vv = w;
                }
            }
            a_col_max.push(col_max);
            c_prime.push((1.0 - c) / (1.0 - a_vv + c * a_vv));
        }
        let max_of = |xs: &[f64]| xs.iter().copied().fold(0.0f64, f64::max);
        BoundConstants {
            a_max: max_of(&a_col_max),
            c_prime_max: max_of(&c_prime),
            a_col_max,
            c_prime,
            a_row_max,
        }
    }

    /// Graphs with dangling nodes, self-loops (some the node's only
    /// out-edge) and non-uniform weights.
    fn awkward_graphs() -> Vec<CsrGraph> {
        let mut graphs = Vec::new();
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 60;
            let mut b = GraphBuilder::new(n);
            for v in 0..n as NodeId {
                let kind = rng.gen_range(0..6);
                if kind == 0 {
                    continue; // dangling
                }
                if kind <= 2 {
                    b.add_edge(v, v, rng.gen_range(0.1..3.0));
                }
                if kind == 1 {
                    continue; // the self-loop is its only out-edge
                }
                for _ in 0..rng.gen_range(1..5) {
                    let u = rng.gen_range(0..n as NodeId);
                    if u != v {
                        b.add_edge(v, u, rng.gen_range(0.01..7.0));
                    }
                }
            }
            graphs.push(b.build().unwrap());
        }
        graphs
    }

    #[test]
    fn constants_equal_those_read_off_the_transition_matrix() {
        let bits = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|x| x.to_bits()).collect() };
        for (g, graph) in awkward_graphs().iter().enumerate() {
            assert!(graph.num_dangling() > 0, "graph {g} has a dangling node");
            for dangling in [DanglingPolicy::Keep, DanglingPolicy::SelfLoop] {
                for c in [0.95, 0.5, 0.15] {
                    let expect = read_off_transition(&transition_matrix(graph, dangling), c);
                    let got = BoundConstants::of(graph, &out_weight_sums(graph), dangling, c);
                    let case = format!("graph {g} {dangling:?} c {c}");
                    assert_eq!(got.a_max.to_bits(), expect.a_max.to_bits(), "{case}");
                    assert_eq!(got.c_prime_max.to_bits(), expect.c_prime_max.to_bits(), "{case}");
                    assert_eq!(bits(&got.a_col_max), bits(&expect.a_col_max), "{case}");
                    assert_eq!(bits(&got.c_prime), bits(&expect.c_prime), "{case}");
                    assert_eq!(bits(&got.a_row_max), bits(&expect.a_row_max), "{case}");
                }
            }
        }
    }

    /// Each node's `S_u` (`None` where no push of this query reached it)
    /// and stacked flag, the live stack, `M_q` and `R`, bit for bit.
    type Observable = (Vec<(Option<u64>, bool)>, Vec<NodeId>, u64, u64);

    /// What a query can observe of `bound`.
    fn observable(bound: &InflowBound) -> Observable {
        let slots = bound
            .slots
            .iter()
            .map(|s| ((s.stamp == bound.epoch).then_some(s.inflow.to_bits()), s.stacked))
            .collect();
        (slots, bound.hot().to_vec(), bound.mass.to_bits(), bound.remaining.to_bits())
    }

    /// A started query on `index` with node 0 computed.
    fn after_the_source(index: &KdashIndex, bound: &mut InflowBound) -> f64 {
        let truth = index.full_proximities(0).unwrap();
        bound.begin(truth.iter().sum());
        let p0 = truth[0];
        bound.record(index, 0, p0, 0.0);
        p0
    }

    #[test]
    fn inflow_bound_stops_strictly_below_theta_only() {
        let index = diamond();
        let mut bound = InflowBound::new(5);
        let p0 = after_the_source(&index, &mut bound);
        // Nodes 1 and 2 hold S = p0/2 with Ā = 1/2; nodes 3 and 4 are
        // untouched and fall under c'_max · A_max · R with A_max = 1.
        let r = bound.mass() - p0;
        let c_prime_max = index.bounds().c_prime_max;
        let touched = c_prime_max * (p0 / 2.0 + 0.5 * r);
        let untouched = c_prime_max * 1.0 * r;
        let largest = touched.max(untouched);
        assert!(!bound.none_reaches(&index, largest), "a bound equal to θ keeps the search going");
        assert!(bound.none_reaches(&index, f64::from_bits(largest.to_bits() + 1)));
        // Sound against the truth it bounds.
        let truth = index.full_proximities(0).unwrap();
        assert!(truth[1..].iter().all(|&p| p <= largest));
    }

    #[test]
    fn inflow_bound_restarts_clean() {
        let index = diamond();
        let mut bound = InflowBound::new(5);
        after_the_source(&index, &mut bound);
        assert_eq!(bound.hot(), [1, 2], "θ = 0: every pushed node is stacked, once");
        // A second query on the same workspace: nothing of the first —
        // stack, flags, sums, mass — survives the restart.
        let first_mass = bound.mass();
        bound.begin(0.0);
        assert!(bound.hot().is_empty() && bound.slots.iter().all(|s| !s.stacked));
        assert_eq!((bound.mass(), bound.remaining()), (0.0, 0.0));
        assert!(bound.none_reaches(&index, f64::MIN_POSITIVE));
        after_the_source(&index, &mut bound);
        assert_eq!(bound.mass().to_bits(), first_mass.to_bits());
        assert_eq!(bound.hot(), [1, 2]);
    }

    #[test]
    fn generation_wrap_leaves_nothing_of_the_last_query() {
        let index = diamond();
        let truth = index.full_proximities(0).unwrap();
        // A first query leaves sums on every node, 3 computed while
        // stacked and 1…4 on the stack, all stamped with generation 1.
        let mut wrapped = InflowBound::new(5);
        after_the_source(&index, &mut wrapped);
        for v in [1, 2, 3] {
            wrapped.record(&index, v, truth[v as usize], 0.0);
        }
        assert_eq!(wrapped.hot(), [1, 2, 3, 4]);
        // Four billion queries later the counter wraps back to generation 1
        // for the second query: the first one's stamps must not read as its.
        wrapped.force_epoch(u32::MAX);
        after_the_source(&index, &mut wrapped);
        let mut fresh = InflowBound::new(5);
        after_the_source(&index, &mut fresh);
        let (slots, hot, _, _) = observable(&wrapped);
        assert!(slots[3..].iter().all(|&(sum, stacked)| sum.is_none() && !stacked));
        assert_eq!(hot, [1, 2]);
        assert_eq!(observable(&wrapped), observable(&fresh));
    }

    #[test]
    fn a_push_that_stacks_nothing_leaves_the_stack_empty() {
        let index = diamond();
        let truth = index.full_proximities(0).unwrap();
        let mut bound = InflowBound::new(5);
        bound.begin(truth.iter().sum());
        // θ above every bound: both pushed nodes are written at depth 0,
        // and neither moves it.
        bound.record(&index, 0, truth[0], f64::INFINITY);
        assert!(bound.hot().is_empty());
        assert!(bound.slots.iter().all(|s| !s.stacked));
        // At θ = 0 each pushed node is stacked once: 3, pushed from both 1
        // and 2. Nodes 1 and 2 went hot at no push of theirs, so they are
        // not.
        bound.record(&index, 1, truth[1], 0.0);
        bound.record(&index, 2, truth[2], 0.0);
        assert_eq!(bound.hot(), [3]);
        let stacked: Vec<usize> = (0..5).filter(|&u| bound.slots[u].stacked).collect();
        assert_eq!(stacked, [3]);
    }

    #[test]
    fn computed_nodes_never_go_hot_again() {
        let index = diamond();
        let mut bound = InflowBound::new(5);
        after_the_source(&index, &mut bound);
        let truth = index.full_proximities(0).unwrap();
        // Computing 1 and 2 pushes to 3 (stacked once for both pushes);
        // computing 3 retires it while it sits on the stack.
        for v in [1, 2, 3] {
            bound.record(&index, v, truth[v as usize], 0.0);
        }
        assert_eq!(bound.hot(), [1, 2, 3, 4]);
        // Only node 4 is left: everything above it on the stack is dead.
        let left = index.bounds().c_prime_max * (truth[3] + bound.remaining());
        assert!(!bound.none_reaches(&index, left));
        assert_eq!(bound.hot(), [1, 2, 3, 4], "a live top is left where it is");
        // All computed: what remains is the slack the mass was rounded up by.
        bound.record(&index, 4, truth[4], 0.0);
        assert!(bound.remaining() > 0.0 && bound.remaining() < 2.0 * MASS_SLACK);
        assert!(bound.none_reaches(&index, 1e-8));
        assert!(bound.hot().is_empty());
        assert!(bound.slots.iter().all(|s| !s.stacked));
    }

    /// Re-computes Definition 1 from scratch for a visit trace and checks
    /// the incremental estimator agrees at every step.
    #[test]
    fn incremental_matches_definition_one() {
        let a_max = 0.9;
        // Synthetic visit trace: (layer, exact proximity, col_max).
        let trace: &[(u32, f64, f64)] = &[
            (0, 0.5, 0.7),  // root
            (1, 0.2, 0.6),
            (1, 0.1, 0.9),
            (2, 0.05, 0.5),
            (2, 0.04, 0.4),
            (2, 0.03, 0.3),
            (3, 0.02, 0.8),
        ];
        let mut est = LayerEstimator::new(a_max);
        est.record_selected(0, trace[0].1, trace[0].2);
        for i in 1..trace.len() {
            let (layer, p, cm) = trace[i];
            let got = est.advance(layer);
            // Definition 1 from scratch over the prefix [0, i).
            let selected = &trace[..i];
            let t1: f64 = selected
                .iter()
                .filter(|(l, _, _)| *l + 1 == layer)
                .map(|(_, p, cm)| p * cm)
                .sum();
            let t2: f64 = selected
                .iter()
                .filter(|(l, _, _)| *l == layer)
                .map(|(_, p, cm)| p * cm)
                .sum();
            let total_p: f64 = selected.iter().map(|(_, p, _)| p).sum();
            let t3 = (1.0 - total_p) * a_max;
            let expect = t1 + t2 + t3;
            assert!((got - expect).abs() < 1e-12, "step {i}: {got} vs {expect}");
            est.record_selected(layer, p, cm);
        }
    }

    #[test]
    fn bounds_are_monotone_non_increasing() {
        // Lemma 2 at the raw-term level (equal c' across nodes).
        let mut est = LayerEstimator::new(0.8);
        est.record_selected(0, 0.6, 0.8);
        let trace: &[(u32, f64, f64)] =
            &[(1, 0.15, 0.5), (1, 0.1, 0.7), (2, 0.05, 0.6), (2, 0.02, 0.8), (3, 0.01, 0.4)];
        let mut last = f64::INFINITY;
        for &(layer, p, cm) in trace {
            let term = est.advance(layer);
            assert!(term <= last + 1e-12, "bound increased: {term} > {last}");
            last = term;
            est.record_selected(layer, p, cm);
        }
    }

    #[test]
    fn term3_clamps_at_zero() {
        let mut est = LayerEstimator::new(1.0);
        est.record_selected(0, 0.9, 1.0);
        let _ = est.advance(1);
        est.record_selected(1, 0.2, 1.0); // total p now > 1 (adversarial input)
        let term = est.advance(1);
        assert!(term >= 0.0);
    }

    #[test]
    #[should_panic(expected = "advance called before recording")]
    fn advance_requires_root() {
        let mut est = LayerEstimator::new(0.5);
        let _ = est.advance(1);
    }

    /// The generalised chain handles several layer-0 nodes (multi-source
    /// search): after recording all sources, the first layer-1 bound must
    /// cover every source in its first term, exactly as Definition 1.
    #[test]
    fn multi_source_layer_zero_accumulates() {
        let a_max = 0.9;
        let sources = [(0.30, 0.8), (0.20, 0.5), (0.10, 0.9)];
        let mut est = LayerEstimator::new(a_max);
        est.record_selected(0, sources[0].0, sources[0].1);
        for &(p, cm) in &sources[1..] {
            let _ = est.advance(0); // bound unused for sources
            est.record_selected(0, p, cm);
        }
        let got = est.advance(1);
        let t1: f64 = sources.iter().map(|(p, cm)| p * cm).sum();
        let total_p: f64 = sources.iter().map(|(p, _)| p).sum();
        let expect = t1 + (1.0 - total_p) * a_max;
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
    }

    #[test]
    fn arbitrary_bound_shrinks_as_mass_accumulates() {
        let mut b = ArbitraryOrderBound::new(0.9);
        let before = b.bound_term();
        assert!((before - 0.9).abs() < 1e-15);
        b.record(0.5, 0.3);
        let after = b.bound_term();
        // 0.5·0.3 + 0.5·0.9 = 0.6 < 0.9
        assert!((after - 0.6).abs() < 1e-12);
        assert!(after < before);
    }

    #[test]
    fn arbitrary_bound_never_negative() {
        let mut b = ArbitraryOrderBound::new(0.9);
        b.record(0.8, 0.1);
        b.record(0.3, 0.1); // over-accounted mass
        assert!(b.bound_term() >= 0.0);
    }
}
