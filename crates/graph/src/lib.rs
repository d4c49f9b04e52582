//! # kdash-graph
//!
//! Directed, weighted graph substrate for the K-dash reproduction of
//! *Fujiwara et al., "Fast and Exact Top-k Search for Random Walk with
//! Restart", PVLDB 2012*.
//!
//! The central type is [`CsrGraph`], an immutable compressed-sparse-row
//! adjacency structure storing out-edges. Everything the paper needs from a
//! graph lives here:
//!
//! * [`GraphBuilder`] — incremental construction with duplicate-edge merging,
//! * [`EdgeEdit`] / [`CsrGraph::apply_edits`] — validated edge-level
//!   mutations of a frozen graph (the dynamic-update entry point),
//! * [`bfs::BfsTree`] — the breadth-first layer structure used by the K-dash
//!   tree estimator (§4.3 of the paper),
//! * [`Permutation`] — node reorderings used by the sparse-inverse
//!   precomputation (§4.2.2),
//! * [`io`] — plain-text edge-list parsing and serialisation.
//!
//! The transition matrix `A` itself (column-normalised adjacency) is built in
//! the `kdash-sparse` crate on top of this one.
//!
//! ## Example
//!
//! ```
//! use kdash_graph::{CsrGraph, GraphBuilder};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 1.0);
//! b.add_edge(1, 2, 2.0);
//! b.add_edge(2, 3, 1.0);
//! b.add_edge(3, 0, 1.0);
//! let g: CsrGraph = b.build().unwrap();
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.num_edges(), 4);
//! assert_eq!(g.out_degree(1), 1);
//! ```

#![forbid(unsafe_code)]

pub mod bfs;
pub mod builder;
pub mod csr;
pub mod edits;
pub mod epoch;
pub mod io;
pub mod permute;

pub use bfs::{BfsScratch, BfsTree};
pub use edits::EdgeEdit;
pub use epoch::EpochStamps;
pub use builder::{GraphBuilder, MergePolicy};
pub use csr::CsrGraph;
pub use permute::Permutation;

/// Node identifier. Graphs in the paper's evaluation have at most ~265 k
/// nodes; `u32` halves index memory versus `usize` on 64-bit targets, which
/// matters because the sparse triangular inverses dominate the footprint.
pub type NodeId = u32;

/// Errors produced by graph construction and manipulation.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge endpoint was `>= num_nodes`.
    NodeOutOfBounds { node: NodeId, num_nodes: usize },
    /// A duplicate edge was found under [`MergePolicy::Error`], or an
    /// [`EdgeEdit::Insert`] targeted an edge that already exists.
    DuplicateEdge { src: NodeId, dst: NodeId },
    /// An [`EdgeEdit::Delete`] or [`EdgeEdit::Reweight`] referenced an
    /// edge the graph does not contain.
    EdgeNotFound { src: NodeId, dst: NodeId },
    /// An edge weight was non-finite or not strictly positive.
    InvalidWeight { src: NodeId, dst: NodeId, weight: f64 },
    /// A permutation vector was not a bijection on `0..n`.
    InvalidPermutation(String),
    /// Text parse failure in [`io`].
    Parse { line: usize, message: String },
    /// Raw CSR arrays handed to [`CsrGraph::from_raw_parts`] were inconsistent.
    MalformedCsr(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfBounds { node, num_nodes } => {
                write!(f, "node {node} out of bounds for graph with {num_nodes} nodes")
            }
            GraphError::DuplicateEdge { src, dst } => {
                write!(f, "duplicate edge {src} -> {dst}")
            }
            GraphError::EdgeNotFound { src, dst } => {
                write!(f, "edge {src} -> {dst} does not exist")
            }
            GraphError::InvalidWeight { src, dst, weight } => {
                write!(f, "edge {src} -> {dst} has invalid weight {weight}")
            }
            GraphError::InvalidPermutation(msg) => write!(f, "invalid permutation: {msg}"),
            GraphError::Parse { line, message } => {
                write!(f, "edge list parse error at line {line}: {message}")
            }
            GraphError::MalformedCsr(msg) => write!(f, "malformed CSR arrays: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
