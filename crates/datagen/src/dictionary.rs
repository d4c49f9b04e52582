//! A labelled word web with planted term clusters.
//!
//! The paper's Table 2 queries the FOLDOC dictionary graph for terms such
//! as "Microsoft" and checks that K-dash surfaces the semantically related
//! terms while the low-rank approximation scatters. FOLDOC itself is not
//! redistributable here, so this generator plants five topic clusters with
//! FOLDOC-flavoured labels inside a background word web: the case study
//! then measures how many planted cluster members each engine's top-k
//! recovers (a quantitative stand-in for the paper's qualitative table).
//!
//! Edge semantics follow the paper: an edge `u -> v` exists when term `v`
//! is used to describe term `u`.

use kdash_graph::{CsrGraph, GraphBuilder, NodeId};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The planted topics and their member terms.
const TOPICS: &[(&str, &[&str])] = &[
    (
        "microsoft",
        &[
            "ms-dos",
            "windows-3.0",
            "windows-95",
            "windows-nt",
            "internet-explorer",
            "visual-basic",
            "excel",
            "activex",
        ],
    ),
    (
        "apple",
        &[
            "apple-ii",
            "macintosh",
            "quickdraw",
            "hypercard",
            "applescript",
            "powerbook",
            "firewire",
            "newton",
        ],
    ),
    (
        "linux",
        &[
            "kernel",
            "gnu",
            "bash",
            "debian",
            "red-hat",
            "x-window-system",
            "posix",
            "shell-script",
        ],
    ),
    (
        "database",
        &[
            "sql",
            "relational-model",
            "transaction",
            "b-tree",
            "query-optimizer",
            "acid",
            "secondary-index",
            "normalization",
        ],
    ),
    (
        "network",
        &["tcp-ip", "ethernet", "router", "packet", "bgp", "dns", "http", "socket"],
    ),
];

/// A generated dictionary graph with human-readable labels.
#[derive(Debug, Clone)]
pub struct DictionaryDataset {
    /// The word web.
    pub graph: CsrGraph,
    /// Node labels (planted terms first, then `word-<i>` background words).
    pub labels: Vec<String>,
    /// For every planted topic: the head node followed by its members.
    pub clusters: Vec<Vec<NodeId>>,
    /// Head terms, parallel to `clusters`.
    pub topics: Vec<String>,
}

/// Generates the dictionary graph with `n_background` extra background
/// words around the planted clusters.
pub fn dictionary(n_background: usize, seed: u64) -> DictionaryDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut labels: Vec<String> = Vec::new();
    let mut clusters: Vec<Vec<NodeId>> = Vec::new();
    let mut topics: Vec<String> = Vec::new();

    for (head, members) in TOPICS {
        let head_id = labels.len() as NodeId;
        labels.push((*head).to_string());
        let mut cluster = vec![head_id];
        for m in *members {
            cluster.push(labels.len() as NodeId);
            labels.push((*m).to_string());
        }
        clusters.push(cluster);
        topics.push((*head).to_string());
    }
    let background_start = labels.len();
    for i in 0..n_background {
        labels.push(format!("word-{i:04}"));
    }
    let n = labels.len();
    let mut b = GraphBuilder::new(n);

    // Dense intra-cluster structure: the head's definition cites every
    // member and vice versa (strong weights), members form a sparse ring.
    for cluster in &clusters {
        let head = cluster[0];
        for &m in &cluster[1..] {
            b.add_edge(head, m, 3.0);
            b.add_edge(m, head, 3.0);
        }
        for w in cluster[1..].windows(2) {
            b.add_edge(w[0], w[1], 1.0);
            b.add_edge(w[1], w[0], 1.0);
        }
    }
    // Background word web: each word's definition cites a few random other
    // words, with preference for earlier (more "basic") vocabulary — this
    // yields the skewed in-degrees of real dictionaries.
    for v in background_start..n {
        let refs = rng.gen_range(2..=6);
        for _ in 0..refs {
            let upper = v.max(background_start + 1);
            let t = if rng.gen_bool(0.7) {
                rng.gen_range(background_start..upper)
            } else {
                rng.gen_range(0..n)
            };
            if t != v {
                b.add_edge(v as NodeId, t as NodeId, 1.0);
            }
        }
    }
    // Sparse cross links: cluster terms occasionally cite background words
    // and (rarely) other clusters, so everything is one weak component.
    for cluster in &clusters {
        for &t in cluster {
            if n_background > 0 {
                let w = background_start + rng.gen_range(0..n_background);
                b.add_edge(t, w as NodeId, 0.5);
                b.add_edge(w as NodeId, t, 0.5);
            }
        }
    }

    DictionaryDataset { graph: b.build().expect("valid edges"), labels, clusters, topics }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_resolvable() {
        let d = dictionary(100, 1);
        let mut sorted = d.labels.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), d.labels.len(), "duplicate labels");
        for term in ["microsoft", "tcp-ip"] {
            assert!(d.labels.iter().any(|l| l == term), "{term} missing");
        }
    }

    #[test]
    fn clusters_are_densely_linked() {
        let d = dictionary(50, 2);
        for cluster in &d.clusters {
            let head = cluster[0];
            for &m in &cluster[1..] {
                assert!(d.graph.has_edge(head, m));
                assert!(d.graph.has_edge(m, head));
            }
        }
    }

    #[test]
    fn planted_members_lookup() {
        let d = dictionary(10, 3);
        let topic = d.topics.iter().position(|t| t == "microsoft").unwrap();
        let (head, members) = d.clusters[topic].split_first().unwrap();
        assert_eq!(d.labels[*head as usize], "microsoft");
        assert_eq!(members.len(), 8);
        let word = d.labels.iter().position(|l| l == "word-0001").unwrap() as NodeId;
        assert!(d.clusters.iter().all(|c| c[0] != word), "background words head no topic");
    }

    #[test]
    fn background_words_have_out_edges() {
        let d = dictionary(80, 4);
        let start = d.labels.iter().position(|l| l.starts_with("word-")).unwrap();
        for v in start..d.labels.len() {
            assert!(d.graph.out_degree(v as NodeId) >= 1, "word {v} is dangling");
        }
    }

    #[test]
    fn deterministic() {
        let a = dictionary(60, 9);
        let b = dictionary(60, 9);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.labels, b.labels);
    }
}
