//! Edge-level mutations of a frozen [`CsrGraph`].
//!
//! A [`CsrGraph`] is immutable by design — the query engine depends on the
//! sorted, duplicate-free row invariants. Serving a *changing* graph
//! therefore goes through [`CsrGraph::apply_edits`]: a validated batch of
//! [`EdgeEdit`]s produces a *new* graph in which only the touched rows were
//! rebuilt, with exactly the arrays a from-scratch [`crate::GraphBuilder`]
//! construction of the edited edge set would produce. That bit-for-bit
//! reproducibility is what lets the dynamic index engine (`kdash-dynamic`)
//! prove its incrementally patched inverses equal a full rebuild.
//!
//! Edits apply **sequentially**: within one batch an `Insert` may create
//! the edge a later `Delete` removes. Each edit is validated against the
//! graph state it observes — inserting an edge that already exists,
//! deleting or reweighting one that does not, referencing an unknown node,
//! or supplying a non-positive/non-finite weight all fail with a typed
//! [`GraphError`] instead of panicking or silently merging.
//! It is the one edit validator: the dynamic engine checks nothing itself,
//! it maps its queue to permuted ids, applies it in one call and maps the
//! ids in any error back, so errors still name user ids.

use crate::{CsrGraph, GraphError, NodeId, Result};

/// One edge mutation. Weights obey the same rules as construction:
/// strictly positive and finite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeEdit {
    /// Add the directed edge `src -> dst`. Fails with
    /// [`GraphError::DuplicateEdge`] if the edge already exists (use
    /// [`EdgeEdit::Reweight`] to change an existing weight).
    Insert { src: NodeId, dst: NodeId, weight: f64 },
    /// Remove the directed edge `src -> dst`. Fails with
    /// [`GraphError::EdgeNotFound`] if absent.
    Delete { src: NodeId, dst: NodeId },
    /// Replace the weight of the existing edge `src -> dst`. Fails with
    /// [`GraphError::EdgeNotFound`] if absent.
    Reweight { src: NodeId, dst: NodeId, weight: f64 },
}

impl EdgeEdit {
    /// Source endpoint of the edited edge.
    #[inline]
    pub fn src(&self) -> NodeId {
        match *self {
            EdgeEdit::Insert { src, .. }
            | EdgeEdit::Delete { src, .. }
            | EdgeEdit::Reweight { src, .. } => src,
        }
    }

    /// Target endpoint of the edited edge.
    #[inline]
    pub fn dst(&self) -> NodeId {
        match *self {
            EdgeEdit::Insert { dst, .. }
            | EdgeEdit::Delete { dst, .. }
            | EdgeEdit::Reweight { dst, .. } => dst,
        }
    }

    /// The new weight, for the variants that carry one.
    #[inline]
    pub fn weight(&self) -> Option<f64> {
        match *self {
            EdgeEdit::Insert { weight, .. } | EdgeEdit::Reweight { weight, .. } => Some(weight),
            EdgeEdit::Delete { .. } => None,
        }
    }

    /// The same edit with both endpoints relabelled through `f` — how the
    /// dynamic engine maps user-space edits into the index's permuted id
    /// space.
    pub fn map_endpoints(&self, mut f: impl FnMut(NodeId) -> NodeId) -> EdgeEdit {
        match *self {
            EdgeEdit::Insert { src, dst, weight } => {
                EdgeEdit::Insert { src: f(src), dst: f(dst), weight }
            }
            EdgeEdit::Delete { src, dst } => EdgeEdit::Delete { src: f(src), dst: f(dst) },
            EdgeEdit::Reweight { src, dst, weight } => {
                EdgeEdit::Reweight { src: f(src), dst: f(dst), weight }
            }
        }
    }
}

impl CsrGraph {
    /// Applies a batch of edits, returning a new graph with only the
    /// touched rows rebuilt. Rows keep the canonical CSR invariants
    /// (sorted, duplicate-free), so the result equals what rebuilding the
    /// edited edge list from scratch produces — arrays included.
    ///
    /// Validation is all-or-nothing: the first invalid edit (unknown node,
    /// bad weight, duplicate insert, missing delete/reweight target —
    /// judged against the *sequentially edited* state) aborts the whole
    /// batch and the original graph is untouched.
    pub fn apply_edits(&self, edits: &[EdgeEdit]) -> Result<CsrGraph> {
        let n = self.num_nodes();
        // Working copies of only the rows the batch touches, keyed by
        // source node, materialised lazily on first touch.
        let mut touched: std::collections::BTreeMap<NodeId, Vec<(NodeId, f64)>> =
            std::collections::BTreeMap::new();
        for edit in edits {
            let (src, dst) = (edit.src(), edit.dst());
            for node in [src, dst] {
                if (node as usize) >= n {
                    return Err(GraphError::NodeOutOfBounds { node, num_nodes: n });
                }
            }
            if let Some(w) = edit.weight() {
                if !(w.is_finite() && w > 0.0) {
                    return Err(GraphError::InvalidWeight { src, dst, weight: w });
                }
            }
            let row = touched
                .entry(src)
                .or_insert_with(|| self.out_edges(src).collect());
            let slot = row.binary_search_by_key(&dst, |&(t, _)| t);
            match (edit, slot) {
                (EdgeEdit::Insert { .. }, Ok(_)) => {
                    return Err(GraphError::DuplicateEdge { src, dst });
                }
                (EdgeEdit::Insert { weight, .. }, Err(pos)) => {
                    row.insert(pos, (dst, *weight));
                }
                (EdgeEdit::Delete { .. }, Ok(pos)) => {
                    row.remove(pos);
                }
                (EdgeEdit::Reweight { weight, .. }, Ok(pos)) => {
                    row[pos].1 = *weight;
                }
                (EdgeEdit::Delete { .. } | EdgeEdit::Reweight { .. }, Err(_)) => {
                    return Err(GraphError::EdgeNotFound { src, dst });
                }
            }
        }

        // Rebuild the CSR arrays: untouched rows copy over verbatim,
        // touched rows take their edited (already sorted) content.
        let delta: isize = touched
            .iter()
            .map(|(&v, row)| row.len() as isize - self.out_degree(v) as isize)
            .sum();
        let new_m = (self.num_edges() as isize + delta) as usize;
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        let mut col_idx: Vec<NodeId> = Vec::with_capacity(new_m);
        let mut weights: Vec<f64> = Vec::with_capacity(new_m);
        for v in 0..n as NodeId {
            match touched.get(&v) {
                Some(row) => {
                    for &(t, w) in row {
                        col_idx.push(t);
                        weights.push(w);
                    }
                }
                None => {
                    col_idx.extend_from_slice(self.out_neighbors(v));
                    weights.extend_from_slice(self.out_weights(v));
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrGraph::from_raw_parts(row_ptr, col_idx, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> CsrGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 2.0);
        b.add_edge(1, 3, 1.0);
        b.add_edge(2, 3, 1.0);
        b.add_edge(3, 0, 4.0);
        b.build().unwrap()
    }

    #[test]
    fn insert_delete_reweight_roundtrip() {
        let g = diamond();
        let edited = g
            .apply_edits(&[
                EdgeEdit::Insert { src: 1, dst: 2, weight: 0.5 },
                EdgeEdit::Delete { src: 0, dst: 2 },
                EdgeEdit::Reweight { src: 3, dst: 0, weight: 9.0 },
            ])
            .unwrap();
        assert_eq!(edited.edge_weight(1, 2), Some(0.5));
        assert!(!edited.has_edge(0, 2));
        assert_eq!(edited.edge_weight(3, 0), Some(9.0));
        assert_eq!(edited.num_edges(), 5);
        // Untouched rows are preserved exactly.
        assert_eq!(edited.out_neighbors(2), g.out_neighbors(2));
        assert_eq!(edited.out_weights(2), g.out_weights(2));
    }

    #[test]
    fn matches_from_scratch_rebuild() {
        let g = diamond();
        let edits = [
            EdgeEdit::Insert { src: 2, dst: 0, weight: 0.25 },
            EdgeEdit::Delete { src: 1, dst: 3 },
            EdgeEdit::Reweight { src: 0, dst: 1, weight: 7.5 },
        ];
        let incremental = g.apply_edits(&edits).unwrap();
        let mut b = GraphBuilder::new(4);
        for (s, d, w) in g.edges() {
            match (s, d) {
                (1, 3) => {}
                (0, 1) => {
                    b.add_edge(0, 1, 7.5);
                }
                _ => {
                    b.add_edge(s, d, w);
                }
            }
        }
        b.add_edge(2, 0, 0.25);
        let scratch = b.build().unwrap();
        assert_eq!(incremental, scratch, "edited graph must equal a rebuild");
    }

    #[test]
    fn edits_apply_sequentially() {
        let g = diamond();
        // Insert then delete the same edge: legal, net no-op.
        let same = g
            .apply_edits(&[
                EdgeEdit::Insert { src: 1, dst: 0, weight: 1.0 },
                EdgeEdit::Delete { src: 1, dst: 0 },
            ])
            .unwrap();
        assert_eq!(same, g);
        // Delete then re-insert with a new weight: a reweight in two steps.
        let rw = g
            .apply_edits(&[
                EdgeEdit::Delete { src: 0, dst: 1 },
                EdgeEdit::Insert { src: 0, dst: 1, weight: 3.0 },
            ])
            .unwrap();
        assert_eq!(rw.edge_weight(0, 1), Some(3.0));
    }

    #[test]
    fn invalid_edits_rejected_with_typed_errors() {
        let g = diamond();
        assert!(matches!(
            g.apply_edits(&[EdgeEdit::Insert { src: 9, dst: 0, weight: 1.0 }]),
            Err(GraphError::NodeOutOfBounds { node: 9, .. })
        ));
        assert!(matches!(
            g.apply_edits(&[EdgeEdit::Delete { src: 0, dst: 9 }]),
            Err(GraphError::NodeOutOfBounds { node: 9, .. })
        ));
        assert!(matches!(
            g.apply_edits(&[EdgeEdit::Delete { src: 1, dst: 0 }]),
            Err(GraphError::EdgeNotFound { src: 1, dst: 0 })
        ));
        assert!(matches!(
            g.apply_edits(&[EdgeEdit::Reweight { src: 1, dst: 0, weight: 2.0 }]),
            Err(GraphError::EdgeNotFound { src: 1, dst: 0 })
        ));
        assert!(matches!(
            g.apply_edits(&[EdgeEdit::Insert { src: 0, dst: 1, weight: 1.0 }]),
            Err(GraphError::DuplicateEdge { src: 0, dst: 1 })
        ));
        assert!(matches!(
            g.apply_edits(&[EdgeEdit::Insert { src: 1, dst: 0, weight: -1.0 }]),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            g.apply_edits(&[EdgeEdit::Reweight { src: 0, dst: 1, weight: f64::NAN }]),
            Err(GraphError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn failed_batch_leaves_graph_untouched() {
        let g = diamond();
        let before = g.clone();
        let err = g.apply_edits(&[
            EdgeEdit::Insert { src: 1, dst: 2, weight: 1.0 }, // valid
            EdgeEdit::Delete { src: 2, dst: 0 },              // absent -> abort
        ]);
        assert!(matches!(err, Err(GraphError::EdgeNotFound { src: 2, dst: 0 })));
        assert_eq!(g, before);
    }

    #[test]
    fn empty_batch_is_identity() {
        let g = diamond();
        assert_eq!(g.apply_edits(&[]).unwrap(), g);
    }

    #[test]
    fn map_endpoints_relabels() {
        let e = EdgeEdit::Insert { src: 1, dst: 2, weight: 0.5 };
        let mapped = e.map_endpoints(|v| v + 10);
        assert_eq!(mapped, EdgeEdit::Insert { src: 11, dst: 12, weight: 0.5 });
        assert_eq!(mapped.src(), 11);
        assert_eq!(mapped.dst(), 12);
        assert_eq!(mapped.weight(), Some(0.5));
        assert_eq!(EdgeEdit::Delete { src: 0, dst: 1 }.weight(), None);
    }

    #[test]
    fn self_loop_edits_are_legal() {
        let g = diamond();
        let looped = g.apply_edits(&[EdgeEdit::Insert { src: 2, dst: 2, weight: 1.5 }]).unwrap();
        assert_eq!(looped.edge_weight(2, 2), Some(1.5));
        let back = looped.apply_edits(&[EdgeEdit::Delete { src: 2, dst: 2 }]).unwrap();
        assert_eq!(back, g);
    }
}
