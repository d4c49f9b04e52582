//! Immutable compressed-sparse-row directed graph.

use crate::{GraphError, NodeId, Permutation, Result};

/// A directed, weighted graph in compressed-sparse-row form.
///
/// Row `v` stores the *out*-edges of `v` with strictly positive, finite
/// weights, sorted by target id and free of duplicates. The structure is
/// immutable after construction; use [`crate::GraphBuilder`] to build one.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    /// `row_ptr[v]..row_ptr[v+1]` indexes the out-edges of `v`. Length `n+1`.
    row_ptr: Vec<usize>,
    /// Edge targets, sorted within each row. Length `m`.
    col_idx: Vec<NodeId>,
    /// Edge weights, parallel to `col_idx`.
    weights: Vec<f64>,
}

impl CsrGraph {
    /// Builds a graph directly from CSR arrays, validating every invariant
    /// (monotone `row_ptr`, in-bounds sorted targets, positive finite
    /// weights, no duplicates within a row).
    pub fn from_raw_parts(
        row_ptr: Vec<usize>,
        col_idx: Vec<NodeId>,
        weights: Vec<f64>,
    ) -> Result<Self> {
        validate(&row_ptr, &col_idx, &weights)?;
        Ok(CsrGraph { row_ptr, col_idx, weights })
    }

    /// Runs the checks of [`from_raw_parts`](Self::from_raw_parts) on this
    /// graph's own arrays: the structural audit of a built or loaded index
    /// re-proves its graph with the constructor's own statement.
    pub fn check(&self) -> Result<()> {
        validate(&self.row_ptr, &self.col_idx, &self.weights)
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of directed edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col_idx.len()
    }

    /// Out-degree of `v` (number of distinct out-edges).
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.row_ptr[v + 1] - self.row_ptr[v]
    }

    /// Targets of the out-edges of `v`.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.col_idx[self.row_ptr[v]..self.row_ptr[v + 1]]
    }

    /// Weights of the out-edges of `v`, parallel to [`Self::out_neighbors`].
    #[inline]
    pub fn out_weights(&self, v: NodeId) -> &[f64] {
        let v = v as usize;
        &self.weights[self.row_ptr[v]..self.row_ptr[v + 1]]
    }

    /// Iterator over `(target, weight)` out-edges of `v`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.out_neighbors(v).iter().copied().zip(self.out_weights(v).iter().copied())
    }

    /// Iterator over all `(src, dst, weight)` edges in row order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.num_nodes() as NodeId)
            .flat_map(move |v| self.out_edges(v).map(move |(t, w)| (v, t, w)))
    }

    /// Sum of the out-edge weights of `v` (the normaliser for the transition
    /// matrix column of `v`). Zero for dangling nodes.
    #[inline]
    pub fn out_weight_sum(&self, v: NodeId) -> f64 {
        self.out_weights(v).iter().sum()
    }

    /// Weight of edge `u -> v` if present (binary search within the row).
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let row = self.out_neighbors(u);
        row.binary_search(&v).ok().map(|i| self.out_weights(u)[i])
    }

    /// True if the directed edge `u -> v` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// In-degrees of every node (one `O(m)` pass).
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.num_nodes()];
        for &t in &self.col_idx {
            d[t as usize] += 1;
        }
        d
    }

    /// Total degree (in + out) of every node; the "degree" used by the
    /// paper's degree reordering (number of edges incident to a node).
    pub fn total_degrees(&self) -> Vec<usize> {
        let mut d = self.in_degrees();
        for (dv, w) in d.iter_mut().zip(self.row_ptr.windows(2)) {
            *dv += w[1] - w[0];
        }
        d
    }

    /// Number of nodes with no out-edges ("dangling" nodes that make the
    /// transition matrix sub-stochastic).
    pub fn num_dangling(&self) -> usize {
        (0..self.num_nodes() as NodeId).filter(|&v| self.out_degree(v) == 0).count()
    }

    /// The transposed graph (every edge reversed). `O(n + m)`.
    pub fn transpose(&self) -> CsrGraph {
        let n = self.num_nodes();
        let mut row_ptr = vec![0usize; n + 1];
        for &t in &self.col_idx {
            row_ptr[t as usize + 1] += 1;
        }
        for v in 0..n {
            row_ptr[v + 1] += row_ptr[v];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0 as NodeId; self.num_edges()];
        let mut weights = vec![0.0f64; self.num_edges()];
        for v in 0..n as NodeId {
            for (t, w) in self.out_edges(v) {
                let slot = cursor[t as usize];
                col_idx[slot] = v;
                weights[slot] = w;
                cursor[t as usize] += 1;
            }
        }
        // Rows of the transpose are filled in increasing source order, hence
        // already sorted by target.
        CsrGraph { row_ptr, col_idx, weights }
    }

    /// Undirected view: for every pair `{u, v}` the weight is the sum of the
    /// weights of `u -> v` and `v -> u`; self-loops keep their weight. Used
    /// by Louvain clustering, which is defined on undirected graphs.
    pub fn symmetrize(&self) -> CsrGraph {
        let n = self.num_nodes();
        let mut builder = crate::GraphBuilder::with_capacity(n, self.num_edges() * 2);
        builder.set_merge_policy(crate::MergePolicy::Sum);
        for (u, v, w) in self.edges() {
            builder.add_edge(u, v, w);
            if u != v {
                builder.add_edge(v, u, w);
            }
        }
        builder.build().expect("symmetrize preserves validity")
    }

    /// Relabels nodes by `perm` (old id `v` becomes `perm.new_of(v)`).
    /// Both endpoints are remapped and rows re-sorted. `O(n + m log d_max)`.
    pub fn permute(&self, perm: &Permutation) -> Result<CsrGraph> {
        let n = self.num_nodes();
        if perm.len() != n {
            return Err(GraphError::InvalidPermutation(format!(
                "permutation has length {} but graph has {} nodes",
                perm.len(),
                n
            )));
        }
        let mut row_ptr = vec![0usize; n + 1];
        for new_v in 0..n {
            let old_v = perm.old_of(new_v as NodeId);
            row_ptr[new_v + 1] = row_ptr[new_v] + self.out_degree(old_v);
        }
        let m = self.num_edges();
        let mut col_idx = Vec::with_capacity(m);
        let mut weights = Vec::with_capacity(m);
        let mut scratch: Vec<(NodeId, f64)> = Vec::new();
        for new_v in 0..n as NodeId {
            let old_v = perm.old_of(new_v);
            scratch.clear();
            scratch.extend(self.out_edges(old_v).map(|(t, w)| (perm.new_of(t), w)));
            scratch.sort_unstable_by_key(|&(t, _)| t);
            for &(t, w) in &scratch {
                col_idx.push(t);
                weights.push(w);
            }
        }
        Ok(CsrGraph { row_ptr, col_idx, weights })
    }

    /// Raw CSR views, for zero-copy interop with the sparse-matrix crate.
    pub fn raw(&self) -> (&[usize], &[NodeId], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.weights)
    }
}

/// Why [`check_pointers`] refuses an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointerFault {
    /// It does not hold `n + 1` entries.
    Length,
    /// It does not start at 0 and end at the payload's length.
    Ends,
    /// It decreases after entry `v`: `ptr[v] > ptr[v + 1]`.
    Decreasing(usize),
}

/// The one rule of a CSR / CSC pointer array over `n` rows and `len`
/// payload entries: `n + 1` entries, the first 0, the last `len`, never
/// decreasing — so every span `ptr[v]..ptr[v + 1]` of an array that
/// passes lies inside the payload. Validators slice spans only after it.
pub fn check_pointers(
    ptr: &[usize],
    n: usize,
    len: usize,
) -> std::result::Result<(), PointerFault> {
    if ptr.len() != n + 1 {
        return Err(PointerFault::Length);
    }
    if ptr[0] != 0 || ptr[n] != len {
        return Err(PointerFault::Ends);
    }
    match ptr.windows(2).position(|w| w[0] > w[1]) {
        Some(v) => Err(PointerFault::Decreasing(v)),
        None => Ok(()),
    }
}

/// Every invariant of a graph's CSR arrays (see [`CsrGraph`]).
fn validate(row_ptr: &[usize], col_idx: &[NodeId], weights: &[f64]) -> Result<()> {
    let malformed = |msg: String| Err(GraphError::MalformedCsr(msg));
    let n = row_ptr.len().saturating_sub(1);
    let m = col_idx.len();
    if weights.len() != m {
        return malformed(format!("col_idx has {} entries but weights has {}", m, weights.len()));
    }
    if let Err(fault) = check_pointers(row_ptr, n, m) {
        return malformed(match fault {
            PointerFault::Length => "row_ptr must have length n+1 >= 1".into(),
            PointerFault::Ends => "row_ptr must start at 0 and end at num_edges".into(),
            PointerFault::Decreasing(v) => format!("row_ptr not monotone at row {v}"),
        });
    }
    for v in 0..n {
        let row = &col_idx[row_ptr[v]..row_ptr[v + 1]];
        let w = &weights[row_ptr[v]..row_ptr[v + 1]];
        for (i, (&t, &wt)) in row.iter().zip(w).enumerate() {
            if (t as usize) >= n {
                return Err(GraphError::NodeOutOfBounds { node: t, num_nodes: n });
            }
            if !(wt.is_finite() && wt > 0.0) {
                return Err(GraphError::InvalidWeight { src: v as NodeId, dst: t, weight: wt });
            }
            if i > 0 && row[i - 1] >= t {
                return Err(GraphError::MalformedCsr(format!(
                    "row {v} targets not strictly increasing"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 2.0);
        b.add_edge(1, 3, 1.0);
        b.add_edge(2, 3, 1.0);
        b.add_edge(3, 0, 4.0);
        b.build().unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_weights(0), &[1.0, 2.0]);
        assert_eq!(g.out_weight_sum(0), 3.0);
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.edge_weight(0, 2), Some(2.0));
        assert_eq!(g.edge_weight(2, 0), None);
        assert_eq!(g.num_dangling(), 0);
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.in_degrees(), vec![1, 1, 1, 2]);
        assert_eq!(g.total_degrees(), vec![3, 2, 2, 3]);
    }

    #[test]
    fn transpose_involution() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.num_edges(), g.num_edges());
        assert!(t.has_edge(1, 0));
        assert!(t.has_edge(0, 3));
        assert_eq!(t.edge_weight(0, 3), Some(4.0));
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn symmetrize_sums_antiparallel() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 0, 2.5);
        let g = b.build().unwrap();
        let s = g.symmetrize();
        assert_eq!(s.edge_weight(0, 1), Some(3.5));
        assert_eq!(s.edge_weight(1, 0), Some(3.5));
    }

    #[test]
    fn permute_preserves_structure() {
        let g = diamond();
        // new order: old [3, 2, 1, 0]
        let perm = Permutation::from_new_order(vec![3, 2, 1, 0]).unwrap();
        let p = g.permute(&perm).unwrap();
        assert_eq!(p.num_edges(), g.num_edges());
        // old edge 3 -> 0 becomes new 0 -> 3
        assert_eq!(p.edge_weight(0, 3), Some(4.0));
        // old edge 0 -> 2 becomes new 3 -> 1
        assert_eq!(p.edge_weight(3, 1), Some(2.0));
        // round trip through the inverse permutation restores the graph
        let back = p.permute(&perm.inverse()).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn from_raw_parts_validates() {
        assert!(CsrGraph::from_raw_parts(vec![0, 1], vec![0], vec![1.0]).is_ok());
        // out of bounds target
        assert!(matches!(
            CsrGraph::from_raw_parts(vec![0, 1], vec![5], vec![1.0]),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        // negative weight
        assert!(matches!(
            CsrGraph::from_raw_parts(vec![0, 1], vec![0], vec![-1.0]),
            Err(GraphError::InvalidWeight { .. })
        ));
        // unsorted row
        assert!(CsrGraph::from_raw_parts(vec![0, 2], vec![1, 0], vec![1.0, 1.0]).is_err());
        // non-monotone row_ptr
        assert!(CsrGraph::from_raw_parts(vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn empty_and_single_node() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert_eq!(g.num_nodes(), 0);
        let g1 = GraphBuilder::new(1).build().unwrap();
        assert_eq!(g1.num_nodes(), 1);
        assert_eq!(g1.num_dangling(), 1);
        assert_eq!(g1.out_degree(0), 0);
    }
}
