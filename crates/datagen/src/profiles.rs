//! The five paper datasets as generator profiles.
//!
//! Each profile records the original node/edge counts (Appendix C of the
//! paper) and generates a structurally matching synthetic graph at a
//! configurable scale. `scale = 1.0` reproduces the paper's sizes; the
//! experiment harness defaults to a few thousand nodes per dataset so the
//! whole suite runs in minutes (see DESIGN.md, Substitutions).

use crate::{barabasi_albert, collaboration, rmat, RmatParams};
use kdash_graph::CsrGraph;

/// One of the paper's evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetProfile {
    /// FOLDOC word web: ~13.4 k nodes, ~120 k directed edges, strong
    /// community structure with skewed in-degrees. Modelled as a directed
    /// planted partition.
    Dictionary,
    /// Oregon AS topology: ~23 k nodes, ~48 k undirected edges, extreme
    /// power law. Modelled as Barabási–Albert.
    Internet,
    /// cond-mat co-authorship: ~31 k nodes, ~120 k weighted edges, cliquey.
    /// Modelled by the Newman-weighted collaboration generator.
    Citation,
    /// Epinions trust network: ~132 k nodes, ~841 k directed edges.
    /// Modelled as R-MAT with the canonical social parameters.
    Social,
    /// EU research email: ~265 k nodes, ~420 k directed edges, very sparse
    /// with giant hubs. Modelled as a skewier R-MAT.
    Email,
}

impl DatasetProfile {
    /// All five datasets in the paper's presentation order.
    pub const ALL: [DatasetProfile; 5] = [
        DatasetProfile::Dictionary,
        DatasetProfile::Internet,
        DatasetProfile::Citation,
        DatasetProfile::Social,
        DatasetProfile::Email,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetProfile::Dictionary => "Dictionary",
            DatasetProfile::Internet => "Internet",
            DatasetProfile::Citation => "Citation",
            DatasetProfile::Social => "Social",
            DatasetProfile::Email => "Email",
        }
    }

    /// Node count of the original public dataset.
    pub fn paper_nodes(&self) -> usize {
        match self {
            DatasetProfile::Dictionary => 13_356,
            DatasetProfile::Internet => 22_963,
            DatasetProfile::Citation => 31_163,
            DatasetProfile::Social => 131_828,
            DatasetProfile::Email => 265_214,
        }
    }

    /// The scale that yields approximately `target_nodes` nodes.
    pub fn scale_for_nodes(&self, target_nodes: usize) -> f64 {
        (target_nodes as f64 / self.paper_nodes() as f64).min(1.0)
    }

    /// Generates the synthetic stand-in at the given scale (fraction of the
    /// original node count, floored at 300 nodes).
    pub fn generate(&self, scale: f64, seed: u64) -> CsrGraph {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let n = ((self.paper_nodes() as f64 * scale) as usize).max(300);
        match self {
            DatasetProfile::Dictionary => {
                // ~9 edges per node, 85% intra-community; cross-topic links
                // run through gateway terms (~10% of each topic), matching
                // the doubly-bordered structure the paper's reorderings
                // exploit (Figure 1).
                let communities = (n / 90).max(8);
                let block = (n / communities).max(2);
                let p_in = (0.85 * 9.0) / (block.saturating_sub(1)).max(1) as f64;
                crate::sbm::gateway_partition(
                    n,
                    communities,
                    p_in.min(0.9),
                    0.15 * 9.0,
                    0.1,
                    seed,
                )
            }
            DatasetProfile::Internet => barabasi_albert(n, 2, seed),
            DatasetProfile::Citation => collaboration(n, (n * 3) / 2, seed),
            DatasetProfile::Social => {
                let scale_log = (n as f64).log2().ceil() as u32;
                let m = (6.4 * n as f64) as usize;
                rmat(scale_log, m, RmatParams::default(), seed)
            }
            DatasetProfile::Email => {
                let scale_log = (n as f64).log2().ceil() as u32;
                let m = (1.6 * n as f64) as usize;
                rmat(scale_log, m, RmatParams { a: 0.65, b: 0.2, c: 0.1, d: 0.05 }, seed)
            }
        }
    }
}

impl std::fmt::Display for DatasetProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_generate() {
        for p in DatasetProfile::ALL {
            let g = p.generate(0.02, 7);
            assert!(g.num_nodes() >= 300, "{p}: {} nodes", g.num_nodes());
            assert!(g.num_edges() > 0, "{p}: no edges");
        }
    }

    #[test]
    fn edge_density_tracks_paper_ratio() {
        // Density need not match exactly, but should be within 3x of the
        // paper's m/n for the directed profiles (edge counts of the
        // original public datasets).
        for (p, paper_edges) in [
            (DatasetProfile::Dictionary, 120_238),
            (DatasetProfile::Social, 841_372),
            (DatasetProfile::Email, 420_045),
        ] {
            let g = p.generate(0.05, 3);
            let got = g.num_edges() as f64 / g.num_nodes() as f64;
            let want = paper_edges as f64 / p.paper_nodes() as f64;
            assert!(
                got > want / 3.0 && got < want * 3.0,
                "{p}: m/n = {got:.2}, paper {want:.2}"
            );
        }
    }

    #[test]
    fn scale_for_nodes_roundtrip() {
        let p = DatasetProfile::Citation;
        let s = p.scale_for_nodes(2000);
        let g = p.generate(s, 1);
        let n = g.num_nodes();
        assert!((1000..4000).contains(&n), "{n}");
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<_> = DatasetProfile::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["Dictionary", "Internet", "Citation", "Social", "Email"]);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = DatasetProfile::Internet.generate(0.02, 5);
        let b = DatasetProfile::Internet.generate(0.02, 5);
        assert_eq!(a, b);
    }
}
