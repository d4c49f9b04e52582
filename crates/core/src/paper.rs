//! The paper's yardsticks: what the reproduction measures K-dash against,
//! kept apart from what serves queries.
//!
//! The paper argues its search with references — the same search without
//! its termination test, a visit tree rooted away from the query, and the
//! estimator it terminates with. Each lives here under one spelling, as
//! an oracle the equivalence suites and the figure harness call; nothing
//! in the serving path reaches for them:
//!
//! * [`top_k_unpruned`] — Figure 7's "without pruning" series: Algorithm
//!   4 with the termination test removed, so every reachable node's exact
//!   proximity is computed.
//! * [`top_k_from_root`] — Appendix D.1 / Figure 9: the visit tree rooted
//!   at a node other than the query. That breaks the layer structure
//!   Definition 1 needs, so the order-agnostic [`ArbitraryOrderBound`]
//!   stands in: still exact, able to skip a node, never to terminate —
//!   the visit runs on past the tree into the nodes it missed.
//! * [`top_k_merge_join`] — Algorithm 4 as the paper states it: the whole
//!   BFS tree built *eagerly* before the search starts, a two-pointer
//!   merge join per candidate, buffers allocated per query, and the
//!   paper's own stop rule — [`LayerEstimator`], Definition 1 with the
//!   `O(1)` update of Definition 2 (Lemma 1 makes it an upper bound,
//!   Lemma 2 monotone along the visit). The equivalence suites hold the
//!   driver to it bit for bit under [`ResolvedKernel::reference`]
//!   (`kdash_sparse`'s one-accumulator order). It shares nothing with the
//!   driver but the heap (own [`BfsTree`], own `row_dot_sparse`): which
//!   of two *equal* minima the heap evicts is a property of its sift
//!   order, so an oracle with a different heap would disagree on ties.
//!   Its counters are the paper's and an upper bound on the driver's; its
//!   `reachable`/`frontier_expanded` are always the full reachable count,
//!   where the lazy driver stops discovering at early termination.
//!
//! The first two are the one search driver ([`crate::searcher`]) under
//! another bound policy, so on a tie-free graph they return
//! [`Searcher::top_k`]'s items bit for bit. On a sparsified index all
//! three answer through the certified tier, which solves every reachable
//! node whatever the visit order or bound.
//!
//! [`ResolvedKernel::reference`]: crate::ResolvedKernel::reference

use crate::searcher::{ranked_node, Bound, TopKHeap};
use crate::{KdashIndex, RankedNode, Result, SearchStats, Searcher, TopKResult};
use kdash_graph::{bfs::UNREACHABLE, BfsTree, NodeId};

pub use crate::estimator::{ArbitraryOrderBound, LayerEstimator};

/// Algorithm 4 with the termination test removed (Figure 7, "without
/// pruning"): computes the exact proximity of every reachable node, so
/// the traversal runs to exhaustion and `reachable` is the full reachable
/// count. Returns `min(k, n)` nodes like [`Searcher::top_k`].
pub fn top_k_unpruned(searcher: &mut Searcher<'_>, q: NodeId, k: usize) -> Result<TopKResult> {
    let mut out = TopKResult::default();
    searcher.seed_node(q)?;
    searcher.ranked(Unbounded, k, &mut out)?;
    Ok(out)
}

/// The Appendix D.1 ablation (Figure 9): the search tree is rooted at
/// `root` instead of the query. The query is no longer visited first, so
/// the order-agnostic [`ArbitraryOrderBound`] is used — exact answers,
/// per-node skipping only, and every node must still be visited. A
/// random-root run draws `root` itself. On a sparsified index the root is
/// irrelevant and the answer is [`Searcher::top_k`]'s.
pub fn top_k_from_root(
    searcher: &mut Searcher<'_>,
    q: NodeId,
    k: usize,
    root: NodeId,
) -> Result<TopKResult> {
    let index = searcher.index();
    let query = searcher.seed_node(q)?;
    index.check_node(root)?;
    let bound = AnyOrder {
        state: ArbitraryOrderBound::new(index.bounds().a_max),
        query,
        root: index.permutation().new_of(root),
    };
    let mut out = TopKResult::default();
    searcher.ranked(bound, k, &mut out)?;
    Ok(out)
}

/// The eager-BFS, merge-join reference implementation of Algorithm 4 over
/// a restart set (see the module docs; one query node is `&[q]`): the
/// multi-root tree ([`BfsTree::new_multi`]) is built in full before the
/// search starts and every proximity is a two-pointer merge join
/// (`O(nnz(row) + nnz(col))` per node). [`Searcher::top_k_from_set`]
/// under the reference kernel must match it bit for bit on items and
/// never exceed its `visited`/`proximity_computations`/`nnz_gathered`
/// (stored entries of the rows it joined — Definition 2's share of the
/// gather work). A sparsified index answers through the certified
/// searcher instead: its raw rows would make the "reference" approximate.
pub fn top_k_merge_join(index: &KdashIndex, sources: &[NodeId], k: usize) -> Result<TopKResult> {
    let (col_idx, col_val) = index.merged_query_column(sources)?;
    // Mirror the Searcher's k = 0 short-circuit so the two paths stay
    // comparable down to their work counters.
    if k == 0 {
        return Ok(TopKResult::default());
    }
    if index.needs_refinement() {
        // The equivalence contract on sparsified tiers is set-and-order,
        // not bitwise.
        return index.searcher().top_k_from_set(sources, k);
    }
    let roots: Vec<NodeId> = sources.iter().map(|&s| index.permutation().new_of(s)).collect();
    let bfs = BfsTree::new_multi(index.permuted_graph(), &roots);
    let c = index.restart_probability();
    let bounds = index.bounds();

    let mut heap = TopKHeap::new(k);
    let mut estimator = LayerEstimator::new(bounds.a_max);
    let mut stats = SearchStats {
        reachable: bfs.num_reachable(),
        frontier_expanded: bfs.num_reachable(),
        ..Default::default()
    };

    for (pos, &u) in bfs.order.iter().enumerate() {
        stats.visited += 1;
        let layer = bfs.layer[u as usize];
        // Every node after the first folds its predecessor into the
        // estimator chain; only below layer 0 (the sources, always
        // computed) may the bound end the search.
        if pos > 0 {
            let bound = bounds.c_prime_max * estimator.advance(layer);
            if layer > 0 && heap.is_full() && bound < heap.threshold() {
                stats.terminated_early = true;
                break;
            }
        }
        let p = c * index.uinv().row_dot_sparse(u, &col_idx, &col_val);
        stats.proximity_computations += 1;
        stats.nnz_gathered += index.uinv().row_stat(u).nnz as usize;
        estimator.record_selected(layer, p, bounds.a_col_max[u as usize]);
        heap.offer(p, u);
    }

    // Same epilogue as the Searcher: rank order, original ids, padded
    // with unreachable nodes (never heap entries — those are reachable).
    let mut items: Vec<RankedNode> =
        heap.sorted_entries().iter().map(|e| ranked_node(index, e)).collect();
    let unreached =
        (0..index.num_nodes() as NodeId).filter(|&v| bfs.layer[v as usize] == UNREACHABLE);
    items.extend(unreached.take(k - items.len()).map(|v| ranked_node(index, &(0.0, v))));
    Ok(TopKResult { items, stats })
}

/// The Appendix D.1 bound policy: the visit tree is rooted at `root`,
/// away from the query, so the sources are no longer visited first. The
/// order-agnostic bound in place of the stop rule holds for any visit
/// order but speaks for one node at a time, so every node must still be
/// visited, reached by the tree or not.
struct AnyOrder {
    state: ArbitraryOrderBound,
    /// The (permuted) query: the one node the bound does not cover.
    query: NodeId,
    root: NodeId,
}

impl Bound for AnyOrder {
    const STOPS: bool = false;

    fn tree_root(&self) -> Option<NodeId> {
        Some(self.root)
    }

    #[inline]
    fn prunable(&mut self, s: &mut Searcher<'_>, u: NodeId, _: u32, cutoff: f64) -> bool {
        u != self.query && s.index().bounds().c_prime[u as usize] * self.state.bound_term() < cutoff
    }

    #[inline]
    fn record(&mut self, s: &mut Searcher<'_>, u: NodeId, proximity: f64, _: Option<f64>) {
        self.state.record(proximity, s.index().bounds().a_col_max[u as usize]);
    }
}

/// No bound: every reachable node is computed (Figure 7, "without
/// pruning").
struct Unbounded;

impl Bound for Unbounded {
    const STOPS: bool = false;

    #[inline]
    fn prunable(&mut self, _: &mut Searcher<'_>, _: NodeId, _: u32, _: f64) -> bool {
        false
    }
}
