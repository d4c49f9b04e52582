//! # kdash-baselines
//!
//! The comparison systems of the paper's evaluation (§6), implemented from
//! their original descriptions:
//!
//! * [`IterativeRwr`] — the textbook power iteration of Equation (1); the
//!   ground truth every precision number is measured against,
//! * [`NbLin`] — NB_LIN (Tong, Faloutsos & Pan, ICDM 2006): low-rank SVD of
//!   the transition matrix plus the Sherman–Morrison–Woodbury identity,
//! * [`BLin`] — B_LIN (same paper): partition the graph, invert the
//!   within-partition blocks exactly, low-rank-approximate only the
//!   cross-partition edges,
//! * [`Bpa`] — the Basic Push Algorithm (Gupta, Pathak & Chakrabarti,
//!   WWW 2008): forward push with precomputed hub vectors and a
//!   recall-guaranteeing stopping rule.
//!
//! All engines expose the common [`TopKEngine`] interface so the benchmark
//! harness can sweep them uniformly.

#![forbid(unsafe_code)]

pub mod blin;
pub mod bpa;
pub mod iterative;
pub mod nblin;
pub mod operator;

pub use blin::{BLin, BLinOptions};
pub use bpa::{Bpa, BpaOptions};
pub use iterative::IterativeRwr;
pub use nblin::{NbLin, NbLinOptions};
pub use operator::CscOperator;

use kdash_graph::NodeId;

/// A scored answer entry.
pub type Scored = (NodeId, f64);

/// Common interface over every engine (exact or approximate).
pub trait TopKEngine {
    /// Human-readable engine name for experiment tables.
    fn name(&self) -> String;

    /// Returns at least `min(k, n)` scored nodes in descending score order.
    /// Approximate engines may return scores that deviate from the true
    /// proximities; [`Bpa`] may return more than `k` nodes (its guarantee
    /// is recall, not precision).
    fn top_k(&self, q: NodeId, k: usize) -> Vec<Scored>;
}

/// Selects the `k` largest entries of a dense score vector, descending,
/// ties broken by ascending node id. Shared by the vector-producing
/// engines.
pub(crate) fn top_k_of_dense(scores: &[f64], k: usize) -> Vec<Scored> {
    let mut pairs: Vec<Scored> =
        scores.iter().enumerate().map(|(i, &s)| (i as NodeId, s)).collect();
    pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores").then(a.0.cmp(&b.0)));
    pairs.truncate(k);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_of_dense_orders_and_breaks_ties() {
        let scores = [0.1, 0.5, 0.5, 0.9, 0.0];
        let top = top_k_of_dense(&scores, 3);
        assert_eq!(top, vec![(3, 0.9), (1, 0.5), (2, 0.5)]);
    }

    #[test]
    fn top_k_of_dense_truncates() {
        assert_eq!(top_k_of_dense(&[1.0], 5).len(), 1);
        assert!(top_k_of_dense(&[], 3).is_empty());
    }
}
