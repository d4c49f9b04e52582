//! Incremental graph construction.

use crate::{CsrGraph, GraphError, NodeId, Result};

/// What to do when the same directed edge is added more than once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergePolicy {
    /// Sum the weights (natural for multigraph inputs such as co-authorship
    /// or email counts). This is the default.
    #[default]
    Sum,
    /// Keep the maximum weight.
    Max,
    /// Keep the weight seen last.
    Last,
    /// Treat duplicates as an error.
    Error,
}

/// Builder accumulating edges before freezing them into a [`CsrGraph`].
///
/// Construction is `O(n + m log d_max)`: edges are bucketed per source with a
/// counting pass, sorted within each row and merged according to the
/// [`MergePolicy`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId, f64)>,
    merge: MergePolicy,
    allow_self_loops: bool,
}

impl GraphBuilder {
    /// A builder for a graph with `num_nodes` nodes and no edges yet.
    pub fn new(num_nodes: usize) -> Self {
        Self::with_capacity(num_nodes, 0)
    }

    /// Like [`GraphBuilder::new`] but pre-allocates space for `edge_capacity`
    /// edges.
    pub fn with_capacity(num_nodes: usize, edge_capacity: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::with_capacity(edge_capacity),
            merge: MergePolicy::Sum,
            allow_self_loops: true,
        }
    }

    /// Sets the duplicate-edge policy (default [`MergePolicy::Sum`]).
    pub fn set_merge_policy(&mut self, policy: MergePolicy) -> &mut Self {
        self.merge = policy;
        self
    }

    /// If set to `false`, self-loops are silently dropped. Default `true`
    /// (the RWR formulation handles self-loops; the estimator's `c'` term
    /// depends on them).
    pub fn set_allow_self_loops(&mut self, allow: bool) -> &mut Self {
        self.allow_self_loops = allow;
        self
    }

    /// Number of nodes this builder was created with.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Queues the directed edge `src -> dst`. Endpoint and weight validation
    /// happens in [`GraphBuilder::build`] so insertion stays branch-light.
    #[inline]
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: f64) -> &mut Self {
        self.edges.push((src, dst, weight));
        self
    }

    /// Queues both `u -> v` and `v -> u` with the same weight.
    #[inline]
    pub fn add_undirected_edge(&mut self, u: NodeId, v: NodeId, weight: f64) -> &mut Self {
        self.edges.push((u, v, weight));
        if u != v {
            self.edges.push((v, u, weight));
        }
        self
    }

    /// Builds a builder pre-populated from an edge iterator.
    pub fn from_edges<I>(num_nodes: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId, f64)>,
    {
        let mut b = GraphBuilder::new(num_nodes);
        b.edges.extend(edges);
        b
    }

    /// Freezes the builder into an immutable [`CsrGraph`].
    pub fn build(&self) -> Result<CsrGraph> {
        let n = self.num_nodes;
        // Validate endpoints and weights first so error positions are stable.
        for &(s, d, w) in &self.edges {
            if (s as usize) >= n {
                return Err(GraphError::NodeOutOfBounds { node: s, num_nodes: n });
            }
            if (d as usize) >= n {
                return Err(GraphError::NodeOutOfBounds { node: d, num_nodes: n });
            }
            if !(w.is_finite() && w > 0.0) {
                return Err(GraphError::InvalidWeight { src: s, dst: d, weight: w });
            }
        }

        // Counting sort by source.
        let mut counts = vec![0usize; n + 1];
        for &(s, d, _) in &self.edges {
            if self.allow_self_loops || s != d {
                counts[s as usize + 1] += 1;
            }
        }
        for v in 0..n {
            counts[v + 1] += counts[v];
        }
        let kept = counts[n];
        let mut bucketed: Vec<(NodeId, f64)> = vec![(0, 0.0); kept];
        let mut cursor = counts.clone();
        for &(s, d, w) in &self.edges {
            if self.allow_self_loops || s != d {
                bucketed[cursor[s as usize]] = (d, w);
                cursor[s as usize] += 1;
            }
        }

        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        let mut col_idx: Vec<NodeId> = Vec::with_capacity(kept);
        let mut weights: Vec<f64> = Vec::with_capacity(kept);
        for v in 0..n {
            let row = &mut bucketed[counts[v]..counts[v + 1]];
            // Stable sort: duplicates of the same target must merge in
            // insertion order, so that Sum accumulates both directions of an
            // undirected edge in the same order (bit-identical weights).
            row.sort_by_key(|&(t, _)| t);
            let mut i = 0;
            while i < row.len() {
                let target = row[i].0;
                let mut weight = row[i].1;
                let mut j = i + 1;
                while j < row.len() && row[j].0 == target {
                    match self.merge {
                        MergePolicy::Sum => weight += row[j].1,
                        MergePolicy::Max => weight = weight.max(row[j].1),
                        MergePolicy::Last => weight = row[j].1,
                        MergePolicy::Error => {
                            return Err(GraphError::DuplicateEdge { src: v as NodeId, dst: target })
                        }
                    }
                    j += 1;
                }
                col_idx.push(target);
                weights.push(weight);
                i = j;
            }
            row_ptr.push(col_idx.len());
        }

        CsrGraph::from_raw_parts(row_ptr, col_idx, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sum_is_default() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).add_edge(0, 1, 2.0).add_edge(0, 2, 1.0);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
    }

    #[test]
    fn merge_policies() {
        for (policy, expect) in
            [(MergePolicy::Sum, 3.0), (MergePolicy::Max, 2.0), (MergePolicy::Last, 2.0)]
        {
            let mut b = GraphBuilder::new(2);
            b.set_merge_policy(policy);
            b.add_edge(0, 1, 1.0).add_edge(0, 1, 2.0);
            assert_eq!(b.build().unwrap().edge_weight(0, 1), Some(expect), "{policy:?}");
        }
        let mut b = GraphBuilder::new(2);
        b.set_merge_policy(MergePolicy::Error);
        b.add_edge(0, 1, 1.0).add_edge(0, 1, 2.0);
        assert!(matches!(b.build(), Err(GraphError::DuplicateEdge { src: 0, dst: 1 })));
    }

    #[test]
    fn rejects_bad_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 7, 1.0);
        assert!(matches!(b.build(), Err(GraphError::NodeOutOfBounds { node: 7, .. })));

        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, f64::NAN);
        assert!(matches!(b.build(), Err(GraphError::InvalidWeight { .. })));

        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.0);
        assert!(matches!(b.build(), Err(GraphError::InvalidWeight { .. })));
    }

    #[test]
    fn self_loop_filtering() {
        let mut b = GraphBuilder::new(2);
        b.set_allow_self_loops(false);
        b.add_edge(0, 0, 1.0).add_edge(0, 1, 1.0);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(0, 0));

        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 1.0).add_edge(0, 1, 1.0);
        assert_eq!(b.build().unwrap().num_edges(), 2);
    }

    #[test]
    fn undirected_insertion() {
        let mut b = GraphBuilder::new(3);
        b.add_undirected_edge(0, 1, 2.0);
        b.add_undirected_edge(2, 2, 1.0); // self-loop added once
        let g = b.build().unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
        assert_eq!(g.edge_weight(1, 0), Some(2.0));
        assert_eq!(g.edge_weight(2, 2), Some(1.0));
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn from_edges_roundtrip() {
        let edges = vec![(0, 1, 1.0), (1, 2, 1.5), (2, 0, 2.0)];
        let g = GraphBuilder::from_edges(3, edges.iter().copied()).build().unwrap();
        let collected: Vec<_> = g.edges().collect();
        assert_eq!(collected, edges);
    }

    #[test]
    fn rows_are_sorted_and_deduped() {
        let mut b = GraphBuilder::new(4);
        for t in [3, 1, 2, 1, 3] {
            b.add_edge(0, t, 1.0);
        }
        let g = b.build().unwrap();
        assert_eq!(g.out_neighbors(0), &[1, 2, 3]);
        assert_eq!(g.out_weights(0), &[2.0, 1.0, 2.0]);
    }
}
