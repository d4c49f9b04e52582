//! # kdash-bench
//!
//! Shared plumbing for the experiment harness (`experiments` binary) and
//! the Criterion micro-benchmarks: dataset instantiation at a common
//! scale, engine construction, and parameter scaling rules.
//!
//! ## Scaling rule
//!
//! The paper's datasets range from 13 k to 265 k nodes; the harness
//! regenerates every figure on synthetic stand-ins scaled to
//! `KDASH_NODES` nodes (default 1500) so the full suite runs in minutes.
//! NB_LIN's target rank and BPA's hub count are scaled by the *same
//! fraction of n* the paper used (rank 100 and 1000 on the 13 356-node
//! Dictionary are 0.75% and 7.5% of n), keeping the trade-off curves
//! comparable in shape.

#![forbid(unsafe_code)]

use kdash_datagen::DatasetProfile;
use kdash_graph::{CsrGraph, NodeId};

/// Harness-wide configuration pulled from the environment.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Approximate node count per dataset (`KDASH_NODES`, default 1500).
    pub target_nodes: usize,
    /// Queries per measurement (`KDASH_QUERIES`, default 20).
    pub queries: usize,
    /// Base RNG seed (`KDASH_SEED`, default 42).
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig { target_nodes: 1500, queries: 20, seed: 42 }
    }
}

impl HarnessConfig {
    /// Reads `KDASH_NODES`, `KDASH_QUERIES` and `KDASH_SEED` from the
    /// environment, falling back to the defaults.
    pub fn from_env() -> Self {
        let read = |key: &str, default: usize| {
            std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
        };
        HarnessConfig {
            target_nodes: read("KDASH_NODES", 1500),
            queries: read("KDASH_QUERIES", 20),
            seed: read("KDASH_SEED", 42) as u64,
        }
    }

    /// NB_LIN target rank corresponding to the paper's rank `paper_rank`
    /// on the 13 356-node Dictionary, rescaled to `n` nodes.
    pub fn scaled_rank(&self, paper_rank: usize, n: usize) -> usize {
        let fraction = paper_rank as f64 / 13_356.0;
        ((fraction * n as f64).round() as usize).clamp(4, n.saturating_sub(1).max(4))
    }

    /// BPA hub count under the same rescaling.
    pub fn scaled_hubs(&self, paper_hubs: usize, n: usize) -> usize {
        self.scaled_rank(paper_hubs, n)
    }
}

/// Instantiates one dataset profile at the harness scale.
pub fn dataset(profile: DatasetProfile, config: &HarnessConfig) -> CsrGraph {
    profile.generate(profile.scale_for_nodes(config.target_nodes), config.seed)
}

/// All five paper datasets, in presentation order.
pub fn all_datasets(config: &HarnessConfig) -> Vec<(DatasetProfile, CsrGraph)> {
    DatasetProfile::ALL.iter().map(|&p| (p, dataset(p, config))).collect()
}

/// Deterministically spreads `count` query nodes (with out-edges) over the
/// id space.
pub fn queries_for(graph: &CsrGraph, count: usize) -> Vec<NodeId> {
    let n = graph.num_nodes();
    let mut queries = Vec::with_capacity(count);
    let stride = (n / count.max(1)).max(1);
    let mut v = 0usize;
    while queries.len() < count && v < 2 * n {
        let candidate = (v % n) as NodeId;
        if graph.out_degree(candidate) > 0 && !queries.contains(&candidate) {
            queries.push(candidate);
        }
        v += stride;
    }
    if queries.is_empty() {
        queries.push(0);
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults() {
        let c = HarnessConfig::default();
        assert_eq!(c.target_nodes, 1500);
        assert_eq!(c.queries, 20);
    }

    #[test]
    fn rank_scaling_matches_paper_fractions() {
        let c = HarnessConfig::default();
        // rank 100 on 13356 nodes ≈ 0.75% -> on 1500 nodes ≈ 11.
        let r = c.scaled_rank(100, 1500);
        assert!((10..=13).contains(&r), "{r}");
        // rank 1000 ≈ 7.5% -> ≈ 112.
        let r = c.scaled_rank(1000, 1500);
        assert!((105..=120).contains(&r), "{r}");
        // Clamped to sane bounds.
        assert!(c.scaled_rank(1, 10_000) >= 4);
        assert!(c.scaled_rank(100_000, 50) < 50);
    }

    #[test]
    fn datasets_generate_at_scale() {
        let config = HarnessConfig { target_nodes: 400, queries: 5, seed: 1 };
        for (profile, graph) in all_datasets(&config) {
            assert!(graph.num_nodes() >= 300, "{profile}: {}", graph.num_nodes());
            assert!(graph.num_edges() > 0, "{profile}");
        }
    }

    #[test]
    fn queries_are_usable() {
        let config = HarnessConfig { target_nodes: 400, queries: 8, seed: 2 };
        let g = dataset(DatasetProfile::Email, &config);
        for q in queries_for(&g, config.queries) {
            assert!(g.out_degree(q) > 0);
        }
    }
}
