//! Breadth-first search layers — the tree structure behind K-dash's
//! proximity estimation (§4.3 of the paper).
//!
//! The random walk moves along *out*-edges, so the search tree follows
//! out-edges from the query node: layer 0 is the root, layer `i` contains
//! the nodes exactly `i` hops downstream. Nodes that are not reachable have
//! RWR proximity exactly 0 and are reported with layer [`UNREACHABLE`].
//!
//! Two drivers share the same order-as-queue idiom:
//!
//! * [`BfsTree`] runs an *eager* traversal to exhaustion and owns its
//!   buffers — the convenient one-off form, and the oracle the lazy driver
//!   is tested against.
//! * [`BfsScratch`] is the reusable, *lazy* form: [`begin`](BfsScratch::begin)
//!   seeds layer 0 and [`expand_next_layer`](BfsScratch::expand_next_layer)
//!   discovers exactly one further layer per call. A search that terminates
//!   early (K-dash's Lemma 2) simply stops calling it, and every layer it
//!   never asked for is never expanded — the traversal cost tracks the
//!   pruned visit count instead of the whole reachable set. Because layers
//!   are expanded whole and in order, the visit order and layers are
//!   *identical* to the eager tree's at every prefix.

use crate::{CsrGraph, EpochStamps, NodeId};

/// Layer marker for nodes the BFS never reached.
pub const UNREACHABLE: u32 = u32::MAX;

/// Reusable *lazy* BFS state: epoch-stamped `layer`/`order` buffers that
/// amortise the `O(n)` allocations (and `O(n)` re-fills)
/// a fresh [`BfsTree`] pays on every traversal, plus the frontier cursors
/// that let layers be discovered one at a time, on demand.
///
/// A node is *discovered by the current run* iff its visit stamp carries
/// the current generation ([`EpochStamps`]); `layer` is only meaningful
/// on stamped nodes, so starting a new run is `O(1)` — bump the
/// generation — instead of `O(n)` — refill the vectors. The `order`
/// vector doubles as the FIFO frontier (a cursor walks it while new nodes
/// are appended), the same idiom [`BfsTree::new_multi`] uses.
///
/// # Lazy protocol
///
/// [`begin`](Self::begin) / [`begin_multi`](Self::begin_multi) seed layer 0
/// (the roots) and discover nothing else. Each
/// [`expand_next_layer`](Self::expand_next_layer) call scans the out-edges
/// of the deepest discovered layer, appending the next layer to
/// [`order`](Self::order); once a call discovers nothing the run is
/// exhausted. Consumers walk `order` with their own
/// cursor and ask for the next layer exactly when the cursor hits
/// [`num_discovered`](Self::num_discovered) — so a consumer that stops
/// early (K-dash's Lemma 2 termination) never pays for the layers it never
/// visited. [`run`](Self::run) drains the protocol to exhaustion and
/// matches [`BfsTree`] exactly.
///
/// The query engine holds one of these per `Searcher`; for one-off
/// traversals [`BfsTree`] remains the convenient owner of its buffers.
#[derive(Debug, Clone)]
pub struct BfsScratch {
    /// Discovery marks for the current run.
    visited: EpochStamps,
    /// Hop distance, valid only where stamped.
    layer: Vec<u32>,
    /// Discovery order of the current run; also serves as the BFS queue.
    order: Vec<NodeId>,
    /// Nodes in `order[..expand_head]` have had their out-edges scanned.
    expand_head: usize,
    /// Hop distance of the deepest fully-discovered layer.
    frontier_depth: u32,
    /// Set once an expansion discovers nothing: the run is complete.
    exhausted: bool,
}

impl BfsScratch {
    /// Scratch buffers for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        BfsScratch {
            visited: EpochStamps::new(n),
            layer: vec![UNREACHABLE; n],
            order: Vec::new(),
            expand_head: 0,
            frontier_depth: 0,
            exhausted: false,
        }
    }

    /// Number of nodes the buffers are sized for.
    #[inline]
    pub fn dim(&self) -> usize {
        self.visited.dim()
    }

    /// Runs BFS over out-edges from `root` to exhaustion, replacing the
    /// previous run.
    pub fn run(&mut self, graph: &CsrGraph, root: NodeId) {
        self.run_multi(graph, &[root]);
    }

    /// Multi-root BFS to exhaustion, mirroring [`BfsTree::new_multi`]: all
    /// roots form layer 0 (in the given order).
    /// `roots` must be non-empty, in bounds, and duplicate-free.
    fn run_multi(&mut self, graph: &CsrGraph, roots: &[NodeId]) {
        self.begin_multi(graph, roots);
        while self.expand_next_layer(graph) > 0 {}
    }

    /// Starts a new lazy run from `root`: layer 0 is seeded, nothing else
    /// is discovered yet.
    pub fn begin(&mut self, graph: &CsrGraph, root: NodeId) {
        self.begin_multi(graph, &[root]);
    }

    /// Starts a new lazy multi-root run: all `roots` form layer 0 (in the
    /// given order); no out-edge has been scanned yet. `roots` must be
    /// non-empty, in bounds, and duplicate-free.
    pub fn begin_multi(&mut self, graph: &CsrGraph, roots: &[NodeId]) {
        let n = self.dim();
        assert_eq!(graph.num_nodes(), n, "graph does not match scratch dimension");
        assert!(!roots.is_empty(), "BFS needs at least one root");
        self.visited.advance();
        self.order.clear();
        self.expand_head = 0;
        self.frontier_depth = 0;
        self.exhausted = false;
        for &root in roots {
            assert!((root as usize) < n, "BFS root {root} out of bounds for {n} nodes");
            assert!(!self.visited.is_marked(root as usize), "duplicate BFS root {root}");
            self.visited.mark(root as usize);
            self.layer[root as usize] = 0;
            self.order.push(root);
        }
    }

    /// Scans the out-edges of the deepest discovered layer, appending every
    /// newly discovered node (the next layer) to [`order`](Self::order) in
    /// first-discovery order. Returns the number of nodes discovered; `0`
    /// means the run is exhausted (and further calls are free no-ops).
    ///
    /// Expanding whole layers in order reproduces the eager node-at-a-time
    /// queue exactly: the nodes scanned here are precisely the queue window
    /// the eager driver would pop next, in the same sequence, so `order`
    /// and `layer` agree with [`BfsTree`] at every prefix.
    ///
    /// `graph` must be the graph the run [`begin`](Self::begin)-ed on.
    pub fn expand_next_layer(&mut self, graph: &CsrGraph) -> usize {
        debug_assert_eq!(graph.num_nodes(), self.dim(), "graph changed mid-run");
        if self.exhausted {
            return 0;
        }
        let layer_end = self.order.len();
        let next_layer = self.frontier_depth + 1;
        while self.expand_head < layer_end {
            let v = self.order[self.expand_head];
            self.expand_head += 1;
            for &t in graph.out_neighbors(v) {
                if !self.visited.is_marked(t as usize) {
                    self.visited.mark(t as usize);
                    self.layer[t as usize] = next_layer;
                    self.order.push(t);
                }
            }
        }
        let discovered = self.order.len() - layer_end;
        if discovered == 0 {
            self.exhausted = true;
        } else {
            self.frontier_depth = next_layer;
        }
        discovered
    }

    /// Nodes of the current run in discovery order (roots first). During a
    /// lazy run this holds every *fully discovered* layer so far.
    #[inline]
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Number of nodes discovered so far. Once the run is
    /// exhausted this is the exact reachable count;
    /// before that it is a lower bound (layers not yet expanded are
    /// missing).
    #[inline]
    pub fn num_discovered(&self) -> usize {
        self.order.len()
    }

    /// Number of nodes whose out-edges have been scanned so far — the work
    /// a lazy consumer actually paid for. At exhaustion this equals
    /// [`num_discovered`](Self::num_discovered); a run abandoned early has
    /// scanned strictly fewer nodes than it discovered.
    #[inline]
    pub fn num_expanded(&self) -> usize {
        self.expand_head
    }

    /// Hop distance of the deepest fully-discovered layer so far.
    #[inline]
    pub fn frontier_depth(&self) -> u32 {
        self.frontier_depth
    }

    /// Number of nodes the current run reached. Meaningful once the run is
    /// exhausted (always true after [`run`](Self::run)); mid-protocol it
    /// reports the discovered-so-far count, same as
    /// [`num_discovered`](Self::num_discovered).
    #[inline]
    pub fn num_reachable(&self) -> usize {
        self.order.len()
    }

    /// Whether the current run reached `v`. `false` for every node before
    /// the first run.
    #[inline]
    pub fn is_reached(&self, v: NodeId) -> bool {
        self.visited.is_marked(v as usize)
    }

    /// Hop distance of `v` in the current run, or [`UNREACHABLE`].
    #[inline]
    pub fn layer(&self, v: NodeId) -> u32 {
        if self.is_reached(v) {
            self.layer[v as usize]
        } else {
            UNREACHABLE
        }
    }

    /// Test hook: forces the internal epoch counter, to exercise the
    /// rollover path without four billion runs.
    #[doc(hidden)]
    pub fn force_epoch(&mut self, epoch: u32) {
        self.visited.force_epoch(epoch);
    }
}

/// The result of a breadth-first traversal from a root node.
#[derive(Debug, Clone)]
pub struct BfsTree {
    /// Root the traversal started from.
    pub root: NodeId,
    /// Nodes in visit order (root first). Length = number of reachable nodes.
    pub order: Vec<NodeId>,
    /// `layer[v]` = hop distance from the root, or [`UNREACHABLE`].
    pub layer: Vec<u32>,
    /// `parent[v]` = BFS tree parent, `parent[root] = root`,
    /// [`NodeId::MAX`] for unreachable nodes.
    pub parent: Vec<NodeId>,
}

impl BfsTree {
    /// Runs BFS over out-edges from `root`.
    pub fn new(graph: &CsrGraph, root: NodeId) -> Self {
        Self::new_multi(graph, &[root])
    }

    /// Runs BFS over out-edges from several roots simultaneously; all
    /// roots form layer 0 (in the given order) and are their own parents.
    /// The multi-source K-dash search (restart sets, Personalized PageRank
    /// style) builds its layer structure this way. `roots` must be
    /// non-empty and duplicate-free.
    pub fn new_multi(graph: &CsrGraph, roots: &[NodeId]) -> Self {
        // Order-as-queue: `order` itself is the FIFO frontier — a head
        // cursor walks it while newly discovered nodes are appended. Same
        // idiom as `BfsScratch`, so the two drivers stay line-for-line
        // comparable (the eager tree is the lazy driver's test oracle).
        let n = graph.num_nodes();
        assert!(!roots.is_empty(), "BFS needs at least one root");
        let mut layer = vec![UNREACHABLE; n];
        let mut parent = vec![NodeId::MAX; n];
        let mut order = Vec::with_capacity(n.min(1024));
        for &root in roots {
            assert!((root as usize) < n, "BFS root {root} out of bounds for {n} nodes");
            assert!(layer[root as usize] == UNREACHABLE, "duplicate BFS root {root}");
            layer[root as usize] = 0;
            parent[root as usize] = root;
            order.push(root);
        }
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            let next_layer = layer[v as usize] + 1;
            for &t in graph.out_neighbors(v) {
                if layer[t as usize] == UNREACHABLE {
                    layer[t as usize] = next_layer;
                    parent[t as usize] = v;
                    order.push(t);
                }
            }
        }
        BfsTree { root: roots[0], order, layer, parent }
    }

    /// Number of nodes reachable from the root (including the root).
    #[inline]
    pub fn num_reachable(&self) -> usize {
        self.order.len()
    }

    /// Hop distance of `v` from the root, if reachable.
    #[inline]
    pub fn distance(&self, v: NodeId) -> Option<u32> {
        let l = self.layer[v as usize];
        (l != UNREACHABLE).then_some(l)
    }

    /// The deepest populated layer index (0 for a lone root).
    pub fn depth(&self) -> u32 {
        self.order.iter().map(|&v| self.layer[v as usize]).max().unwrap_or(0)
    }

    /// Verifies the two invariants the K-dash estimator relies on:
    /// visit order is non-decreasing in layer, and every non-root reachable
    /// node has a parent exactly one layer above it (roots are their own
    /// parents at layer 0).
    #[cfg(test)]
    fn check_invariants(&self, graph: &CsrGraph) -> bool {
        let mut prev = 0u32;
        for &v in &self.order {
            let l = self.layer[v as usize];
            if l < prev {
                return false;
            }
            prev = l;
            let p = self.parent[v as usize];
            if p == v {
                if l != 0 {
                    return false;
                }
            } else if p == NodeId::MAX
                || self.layer[p as usize] + 1 != l
                || !graph.has_edge(p, v)
            {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path_graph(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n - 1 {
            b.add_edge(v as NodeId, v as NodeId + 1, 1.0);
        }
        b.build().unwrap()
    }

    #[test]
    fn path_layers() {
        let g = path_graph(5);
        let t = BfsTree::new(&g, 0);
        assert_eq!(t.order, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.layer, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.depth(), 4);
        assert!(t.check_invariants(&g));
    }

    #[test]
    fn unreachable_nodes_marked() {
        let g = path_graph(5);
        let t = BfsTree::new(&g, 2); // 0 and 1 are upstream, unreachable
        assert_eq!(t.num_reachable(), 3);
        assert_eq!(t.layer[0], UNREACHABLE);
        assert_eq!(t.layer[1], UNREACHABLE);
        assert_eq!(t.distance(0), None);
        assert_eq!(t.distance(4), Some(2));
        assert!(t.check_invariants(&g));
    }

    #[test]
    fn directed_edges_only() {
        // 0 -> 1, 2 -> 1 : from 0 we cannot reach 2
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(2, 1, 1.0);
        let g = b.build().unwrap();
        let t = BfsTree::new(&g, 0);
        assert_eq!(t.num_reachable(), 2);
        assert_eq!(t.layer[2], UNREACHABLE);
    }

    #[test]
    fn reachable_set_directed() {
        // The reachable set, in visit order, follows edge direction only.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(3, 0, 1.0);
        let g = b.build().unwrap();
        let reachable_set = |root| BfsTree::new(&g, root).order;
        assert_eq!(reachable_set(0), vec![0, 1, 2]);
        assert_eq!(reachable_set(3), vec![3, 0, 1, 2]);
        assert_eq!(reachable_set(2), vec![2]);
    }

    #[test]
    fn diamond_parents() {
        // 0 -> {1, 2}, 1 -> 3, 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(1, 3, 1.0);
        b.add_edge(2, 3, 1.0);
        let g = b.build().unwrap();
        let t = BfsTree::new(&g, 0);
        assert_eq!(t.layer, vec![0, 1, 1, 2]);
        assert_eq!(t.parent[0], 0);
        assert!(t.parent[3] == 1 || t.parent[3] == 2);
        assert!(t.check_invariants(&g));
    }

    #[test]
    fn lone_root() {
        let g = GraphBuilder::new(3).build().unwrap();
        let t = BfsTree::new(&g, 1);
        assert_eq!(t.order, vec![1]);
        assert_eq!(t.depth(), 0);
        assert!(t.check_invariants(&g));
    }

    #[test]
    fn multi_source_layers() {
        // path 0 -> 1 -> 2 -> 3 -> 4; roots {0, 3}.
        let g = path_graph(5);
        let t = BfsTree::new_multi(&g, &[0, 3]);
        assert_eq!(t.layer, vec![0, 1, 2, 0, 1]);
        assert_eq!(t.order, vec![0, 3, 1, 4, 2]);
        assert_eq!(t.parent[0], 0);
        assert_eq!(t.parent[3], 3);
        assert!(t.check_invariants(&g));
    }

    #[test]
    #[should_panic(expected = "duplicate BFS root")]
    fn duplicate_roots_rejected() {
        let g = path_graph(3);
        BfsTree::new_multi(&g, &[0, 0]);
    }

    #[test]
    fn scratch_matches_tree_across_reuse() {
        // One scratch, many runs (single- and multi-root, different
        // graphs of the same size): every run must agree with a fresh
        // BfsTree in order, layers and reachability.
        let diamond = {
            let mut b = GraphBuilder::new(6);
            for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)] {
                b.add_edge(u, v, 1.0);
            }
            b.build().unwrap()
        };
        let path = path_graph(6);
        let mut scratch = BfsScratch::new(6);
        for (graph, roots) in [
            (&diamond, vec![0u32]),
            (&path, vec![2]),
            (&diamond, vec![5]),
            (&path, vec![0, 4]),
            (&diamond, vec![1, 2]),
        ] {
            scratch.run_multi(graph, &roots);
            let tree = BfsTree::new_multi(graph, &roots);
            assert_eq!(scratch.order(), &tree.order[..], "roots {roots:?}");
            assert_eq!(scratch.num_reachable(), tree.num_reachable());
            for v in 0..6u32 {
                assert_eq!(scratch.layer(v), tree.layer[v as usize], "layer of {v}");
                assert_eq!(scratch.is_reached(v), tree.layer[v as usize] != UNREACHABLE);
            }
        }
    }

    #[test]
    fn fresh_scratch_reports_nothing_reached() {
        let scratch = BfsScratch::new(4);
        assert_eq!(scratch.num_reachable(), 0);
        for v in 0..4u32 {
            assert!(!scratch.is_reached(v), "node {v} reached before any run");
            assert_eq!(scratch.layer(v), UNREACHABLE);
        }
    }

    #[test]
    fn scratch_epoch_rollover_is_clean() {
        // Run right before the wrap so stale stamps equal u32::MAX, the
        // worst case for the post-rollover comparison.
        let path = path_graph(5);
        let mut scratch = BfsScratch::new(5);
        scratch.force_epoch(u32::MAX - 1);
        scratch.run(&path, 0); // epoch becomes u32::MAX; everything reached
        assert_eq!(scratch.num_reachable(), 5);
        scratch.run(&path, 3); // wraps: stamps cleared, epoch restarts at 1
        assert_eq!(scratch.order(), &[3, 4]);
        for v in 0..3u32 {
            assert!(!scratch.is_reached(v), "stale stamp on {v} survived rollover");
            assert_eq!(scratch.layer(v), UNREACHABLE);
        }
        assert_eq!(scratch.layer(3), 0);
        assert_eq!(scratch.layer(4), 1);
    }

    #[test]
    fn lazy_layers_match_eager_tree_at_every_prefix() {
        // Drive the lazy protocol layer by layer; after each expansion the
        // discovered prefix must equal the eager tree's order restricted to
        // the same layers, with identical layers.
        let diamond = {
            let mut b = GraphBuilder::new(8);
            for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (2, 6)] {
                b.add_edge(u, v, 1.0);
            }
            b.build().unwrap()
        };
        for roots in [vec![0u32], vec![2], vec![0, 4]] {
            let tree = BfsTree::new_multi(&diamond, &roots);
            let mut scratch = BfsScratch::new(8);
            scratch.begin_multi(&diamond, &roots);
            assert_eq!(scratch.num_discovered(), roots.len());
            assert_eq!(scratch.num_expanded(), 0, "begin must not scan any edges");
            loop {
                let seen = scratch.num_discovered();
                assert_eq!(scratch.order(), &tree.order[..seen], "roots {roots:?}");
                for &v in scratch.order() {
                    assert_eq!(scratch.layer(v), tree.layer[v as usize]);
                }
                if scratch.expand_next_layer(&diamond) == 0 {
                    break;
                }
            }
            assert!(scratch.exhausted);
            assert_eq!(scratch.num_discovered(), tree.num_reachable());
            assert_eq!(
                scratch.num_expanded(),
                tree.num_reachable(),
                "a drained run scans every reachable node"
            );
            assert_eq!(scratch.frontier_depth(), tree.depth());
            // Exhausted runs answer further expansion requests for free.
            assert_eq!(scratch.expand_next_layer(&diamond), 0);
        }
    }

    #[test]
    fn abandoned_lazy_run_scans_strictly_less() {
        // Stop after discovering layer 1 of a 5-layer path: layers 2..4
        // must never be expanded, and the next begin() resets cleanly.
        let path = path_graph(6);
        let mut scratch = BfsScratch::new(6);
        scratch.begin(&path, 0);
        assert_eq!(scratch.expand_next_layer(&path), 1); // discovers node 1
        assert_eq!(scratch.num_discovered(), 2);
        assert_eq!(scratch.num_expanded(), 1, "only the root was scanned");
        assert!(!scratch.exhausted);
        assert!(!scratch.is_reached(2), "layer 2 must not be discovered yet");
        // Abandon and start over from the other end.
        scratch.begin(&path, 4);
        assert_eq!(scratch.order(), &[4]);
        scratch.run(&path, 4); // also exercise restart-into-drain
        assert_eq!(scratch.order(), &[4, 5]);
        assert!(scratch.exhausted);
    }

    #[test]
    fn run_multi_equals_lazy_drain() {
        let g = {
            let mut b = GraphBuilder::new(7);
            for (u, v) in [(0, 1), (1, 2), (0, 3), (3, 4), (4, 1), (2, 5)] {
                b.add_edge(u, v, 1.0);
            }
            b.build().unwrap()
        };
        let mut eager = BfsScratch::new(7);
        eager.run_multi(&g, &[0, 4]);
        let mut lazy = BfsScratch::new(7);
        lazy.begin_multi(&g, &[0, 4]);
        while lazy.expand_next_layer(&g) > 0 {}
        assert_eq!(eager.order(), lazy.order());
        for v in 0..7u32 {
            assert_eq!(eager.layer(v), lazy.layer(v));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate BFS root")]
    fn scratch_rejects_duplicate_roots() {
        let g = path_graph(3);
        BfsScratch::new(3).run_multi(&g, &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "does not match scratch dimension")]
    fn scratch_rejects_mismatched_graph() {
        let g = path_graph(3);
        BfsScratch::new(5).run(&g, 0);
    }

    #[test]
    #[should_panic(expected = "at least one root")]
    fn empty_roots_rejected() {
        let g = path_graph(3);
        BfsTree::new_multi(&g, &[]);
    }
}
