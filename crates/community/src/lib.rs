//! # kdash-community
//!
//! Louvain community detection (Blondel et al., 2008) — the partitioner the
//! paper's *cluster* and *hybrid* reorderings use (§4.2.2) and that this
//! reproduction also plugs into the B_LIN and partition-local-RWR baselines
//! (substituting for METIS; see DESIGN.md).
//!
//! The entry point is [`louvain`], which takes any directed graph,
//! symmetrises it (modularity is defined on undirected graphs), and returns
//! a dense [`Partition`]. The number of communities is chosen by the
//! algorithm itself — exactly the "automatically determined" behaviour the
//! paper relies on for its parameter-free claim.

#![forbid(unsafe_code)]

pub mod louvain;
pub mod modularity;
pub mod partition;

pub use louvain::{louvain, louvain_undirected, LouvainOptions};
pub use modularity::modularity;
pub use partition::Partition;
