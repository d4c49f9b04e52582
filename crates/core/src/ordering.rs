//! Node reordering heuristics (§4.2.2, Algorithms 1–3 of the paper).
//!
//! Finding the ordering that minimises nonzeros in `L⁻¹` / `U⁻¹` is
//! NP-complete (Theorem 1, by reduction from minimum fill-in), so the paper
//! proposes three heuristics — degree, cluster, hybrid — evaluated in
//! Figures 5 and 6. This module implements all three plus a random baseline
//! and two classic fill-reducing orderings (reverse Cuthill–McKee and
//! greedy minimum degree) as extensions for the ablation benches.

use kdash_community::{louvain, LouvainOptions};
use kdash_graph::{CsrGraph, NodeId, Permutation};
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
use std::collections::VecDeque;

/// The reordering strategy applied before LU factorisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeOrdering {
    /// Keep the input order (worst case in the paper's Figure 5 after
    /// Random; useful as a control).
    Natural,
    /// Uniformly random order — the paper's "Random" baseline.
    Random {
        /// Shuffle seed.
        seed: u64,
    },
    /// Ascending total degree (Algorithm 1).
    Degree,
    /// Louvain partitions with border nodes moved to an extra partition
    /// (Algorithm 2).
    Cluster,
    /// Cluster order, then ascending degree inside each partition
    /// (Algorithm 3). The paper's default — and ours.
    #[default]
    Hybrid,
    /// Reverse Cuthill–McKee on the symmetrised graph (bandwidth
    /// minimisation). Extension beyond the paper.
    ReverseCuthillMcKee,
    /// Greedy minimum-degree elimination ordering. Extension beyond the
    /// paper; `O(fill)` work, intended for moderate graph sizes.
    MinDegree,
}

impl NodeOrdering {
    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            NodeOrdering::Natural => "Natural",
            NodeOrdering::Random { .. } => "Random",
            NodeOrdering::Degree => "Degree",
            NodeOrdering::Cluster => "Cluster",
            NodeOrdering::Hybrid => "Hybrid",
            NodeOrdering::ReverseCuthillMcKee => "RCM",
            NodeOrdering::MinDegree => "MinDegree",
        }
    }
}

/// What the ordering stage observed — surfaced through the
/// [`IndexBuilder`](crate::IndexBuilder) pipeline's build report. The
/// community fields are populated only by the Louvain-backed orderings
/// (cluster / hybrid).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrderingStats {
    /// Louvain communities κ found by the partitioner.
    pub communities: Option<usize>,
    /// Nodes moved into the extra border partition κ+1.
    pub border_nodes: Option<usize>,
    /// Size of the largest community.
    pub largest_community: Option<usize>,
}

/// Computes the permutation realising `ordering` on `graph`
/// (old id `v` maps to position `perm.new_of(v)`).
pub fn compute_ordering(graph: &CsrGraph, ordering: NodeOrdering) -> Permutation {
    compute_ordering_with_stats(graph, ordering).0
}

/// [`compute_ordering`], also reporting what the ordering saw (community
/// structure for the Louvain-backed strategies).
pub fn compute_ordering_with_stats(
    graph: &CsrGraph,
    ordering: NodeOrdering,
) -> (Permutation, OrderingStats) {
    let n = graph.num_nodes();
    let mut stats = OrderingStats::default();
    let order: Vec<NodeId> = match ordering {
        NodeOrdering::Natural => (0..n as NodeId).collect(),
        NodeOrdering::Random { seed } => {
            let mut order: Vec<NodeId> = (0..n as NodeId).collect();
            order.shuffle(&mut StdRng::seed_from_u64(seed));
            order
        }
        NodeOrdering::Degree => degree_order(graph),
        NodeOrdering::Cluster => cluster_order(graph, false, &mut stats),
        NodeOrdering::Hybrid => cluster_order(graph, true, &mut stats),
        NodeOrdering::ReverseCuthillMcKee => rcm_order(graph),
        NodeOrdering::MinDegree => min_degree_order(graph),
    };
    let perm = Permutation::from_new_order(order).expect("orderings produce bijections");
    (perm, stats)
}

/// Algorithm 1: ascending total degree, ties by node id (deterministic).
fn degree_order(graph: &CsrGraph) -> Vec<NodeId> {
    let degrees = graph.total_degrees();
    let mut order: Vec<NodeId> = (0..graph.num_nodes() as NodeId).collect();
    order.sort_by_key(|&v| (degrees[v as usize], v));
    order
}

/// Algorithms 2 and 3. Partitions with Louvain, moves every node with a
/// cross-partition edge into the extra border partition `κ+1`, orders
/// partitions consecutively (border last); `sort_by_degree` switches
/// between cluster (false) and hybrid (true).
fn cluster_order(graph: &CsrGraph, sort_by_degree: bool, stats: &mut OrderingStats) -> Vec<NodeId> {
    let n = graph.num_nodes();
    let partition = louvain(graph, LouvainOptions::default());
    let kappa = partition.num_communities();
    // Border detection must see both directions; the paper's matrix view is
    // symmetric in its effect (an entry on either side of the diagonal
    // crossing two partitions creates fill).
    let transpose = graph.transpose();
    let mut bucket: Vec<u32> = vec![0; n]; // partition index, κ = border
    let mut border = 0usize;
    for v in 0..n as NodeId {
        let cv = partition.community_of(v);
        let crosses = graph
            .out_neighbors(v)
            .iter()
            .chain(transpose.out_neighbors(v))
            .any(|&t| partition.community_of(t) != cv);
        border += crosses as usize;
        bucket[v as usize] = if crosses { kappa as u32 } else { cv };
    }
    stats.communities = Some(kappa);
    stats.border_nodes = Some(border);
    stats.largest_community = partition.largest().map(|(_, size)| size);
    let degrees = graph.total_degrees();
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    if sort_by_degree {
        order.sort_by_key(|&v| (bucket[v as usize], degrees[v as usize], v));
    } else {
        order.sort_by_key(|&v| (bucket[v as usize], v));
    }
    order
}

/// Reverse Cuthill–McKee over the symmetrised adjacency: BFS from a
/// minimum-degree node of every component, neighbours visited in ascending
/// degree, final order reversed.
fn rcm_order(graph: &CsrGraph) -> Vec<NodeId> {
    let sym = graph.symmetrize();
    let n = sym.num_nodes();
    let degrees = sym.total_degrees();
    let mut visited = vec![false; n];
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    let mut starts: Vec<NodeId> = (0..n as NodeId).collect();
    starts.sort_by_key(|&v| (degrees[v as usize], v));
    let mut neigh: Vec<NodeId> = Vec::new();
    for &s in &starts {
        if visited[s as usize] {
            continue;
        }
        visited[s as usize] = true;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            neigh.clear();
            neigh.extend(sym.out_neighbors(v).iter().copied().filter(|&t| !visited[t as usize]));
            neigh.sort_by_key(|&t| (degrees[t as usize], t));
            for &t in &neigh {
                if !visited[t as usize] {
                    visited[t as usize] = true;
                    queue.push_back(t);
                }
            }
        }
    }
    order.reverse();
    order
}

/// Greedy minimum-degree elimination on the symmetrised graph: repeatedly
/// eliminate the lowest-degree node, connecting its remaining neighbours
/// into a clique (the fill its elimination would cause).
fn min_degree_order(graph: &CsrGraph) -> Vec<NodeId> {
    use std::collections::BTreeSet;
    let sym = graph.symmetrize();
    let n = sym.num_nodes();
    let mut adj: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); n];
    for (u, v, _) in sym.edges() {
        if u != v {
            adj[u as usize].insert(v);
        }
    }
    let mut eliminated = vec![false; n];
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    // Simple priority structure: degree buckets with lazy revalidation.
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(usize, NodeId)>> =
        (0..n as NodeId).map(|v| std::cmp::Reverse((adj[v as usize].len(), v))).collect();
    while let Some(std::cmp::Reverse((deg, v))) = heap.pop() {
        if eliminated[v as usize] || adj[v as usize].len() != deg {
            continue; // stale entry
        }
        eliminated[v as usize] = true;
        order.push(v);
        let neighbours: Vec<NodeId> = adj[v as usize].iter().copied().collect();
        for &u in &neighbours {
            adj[u as usize].remove(&v);
        }
        // Clique the neighbourhood (this simulates elimination fill).
        for i in 0..neighbours.len() {
            for j in i + 1..neighbours.len() {
                let (a, b) = (neighbours[i], neighbours[j]);
                if adj[a as usize].insert(b) {
                    adj[b as usize].insert(a);
                }
            }
        }
        for &u in &neighbours {
            if !eliminated[u as usize] {
                heap.push(std::cmp::Reverse((adj[u as usize].len(), u)));
            }
        }
        adj[v as usize].clear();
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdash_graph::GraphBuilder;

    fn star_plus_path() -> CsrGraph {
        // Node 0 is a hub to 1..=4; 5 -> 6 path.
        let mut b = GraphBuilder::new(7);
        for t in 1..=4 {
            b.add_undirected_edge(0, t, 1.0);
        }
        b.add_undirected_edge(5, 6, 1.0);
        b.build().unwrap()
    }

    fn assert_valid_permutation(graph: &CsrGraph, ordering: NodeOrdering) {
        let p = compute_ordering(graph, ordering);
        assert_eq!(p.len(), graph.num_nodes(), "{ordering:?}");
        // from_new_order validates bijectivity; also spot check inverses.
        for v in 0..graph.num_nodes() as NodeId {
            assert_eq!(p.old_of(p.new_of(v)), v);
        }
    }

    #[test]
    fn all_orderings_are_bijections() {
        let g = star_plus_path();
        for ord in [
            NodeOrdering::Natural,
            NodeOrdering::Random { seed: 3 },
            NodeOrdering::Degree,
            NodeOrdering::Cluster,
            NodeOrdering::Hybrid,
            NodeOrdering::ReverseCuthillMcKee,
            NodeOrdering::MinDegree,
        ] {
            assert_valid_permutation(&g, ord);
        }
    }

    #[test]
    fn degree_order_puts_hub_last() {
        let g = star_plus_path();
        let p = compute_ordering(&g, NodeOrdering::Degree);
        // hub 0 has total degree 8 (4 out + 4 in), the largest
        assert_eq!(p.new_of(0), 6);
    }

    #[test]
    fn degree_order_is_ascending() {
        let g = star_plus_path();
        let p = compute_ordering(&g, NodeOrdering::Degree);
        let deg = g.total_degrees();
        let seq: Vec<usize> = p.order().iter().map(|&v| deg[v as usize]).collect();
        assert!(seq.windows(2).all(|w| w[0] <= w[1]), "{seq:?}");
    }

    #[test]
    fn cluster_order_groups_partitions() {
        // Two cliques, one bridge: bridge endpoints go to the border
        // partition at the end.
        let mut b = GraphBuilder::new(8);
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in i + 1..4 {
                    b.add_undirected_edge(base + i, base + j, 1.0);
                }
            }
        }
        b.add_undirected_edge(3, 4, 1.0);
        let g = b.build().unwrap();
        let p = compute_ordering(&g, NodeOrdering::Cluster);
        // Bridge endpoints 3 and 4 must occupy the last two positions.
        let last_two: Vec<NodeId> = vec![p.old_of(6), p.old_of(7)];
        assert!(last_two.contains(&3) && last_two.contains(&4), "{last_two:?}");
        // Non-border members of each clique are contiguous.
        let pos: Vec<NodeId> = (0..8).map(|v| p.new_of(v)).collect();
        let c1: Vec<NodeId> = (0..3).map(|v| pos[v as usize]).collect();
        let c2: Vec<NodeId> = (5..8).map(|v| pos[v as usize]).collect();
        let spread = |v: &[NodeId]| v.iter().max().unwrap() - v.iter().min().unwrap();
        assert_eq!(spread(&c1), 2, "{c1:?}");
        assert_eq!(spread(&c2), 2, "{c2:?}");
    }

    #[test]
    fn hybrid_sorts_by_degree_within_partition() {
        // One community: a star of 4 leaves; hybrid must place the hub last.
        let mut b = GraphBuilder::new(5);
        for t in 1..=4 {
            b.add_undirected_edge(0, t, 1.0);
        }
        let g = b.build().unwrap();
        let p = compute_ordering(&g, NodeOrdering::Hybrid);
        assert_eq!(p.new_of(0), 4, "hub must come last within its partition");
    }

    #[test]
    fn random_orders_differ_by_seed() {
        let g = star_plus_path();
        let p1 = compute_ordering(&g, NodeOrdering::Random { seed: 1 });
        let p2 = compute_ordering(&g, NodeOrdering::Random { seed: 2 });
        assert_ne!(p1.order(), p2.order());
        let p1b = compute_ordering(&g, NodeOrdering::Random { seed: 1 });
        assert_eq!(p1.order(), p1b.order());
    }

    #[test]
    fn rcm_keeps_path_contiguous() {
        // A path graph reordered by RCM stays a path enumeration
        // (bandwidth 1).
        let mut b = GraphBuilder::new(6);
        for v in 0..5u32 {
            b.add_undirected_edge(v, v + 1, 1.0);
        }
        let g = b.build().unwrap();
        let p = compute_ordering(&g, NodeOrdering::ReverseCuthillMcKee);
        for (u, v, _) in g.edges() {
            let d = (p.new_of(u) as i64 - p.new_of(v) as i64).abs();
            assert!(d <= 1, "bandwidth violated: {u}->{v} maps to distance {d}");
        }
    }

    #[test]
    fn min_degree_starts_at_leaves() {
        let g = star_plus_path();
        let p = compute_ordering(&g, NodeOrdering::MinDegree);
        // The star hub (degree 4) cannot be eliminated first.
        assert_ne!(p.old_of(0), 0);
    }

    #[test]
    fn ordering_stats_report_communities() {
        // Two cliques joined by a bridge: Louvain finds two communities,
        // the two bridge endpoints land in the border partition.
        let mut b = GraphBuilder::new(8);
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in i + 1..4 {
                    b.add_undirected_edge(base + i, base + j, 1.0);
                }
            }
        }
        b.add_undirected_edge(3, 4, 1.0);
        let g = b.build().unwrap();
        for ord in [NodeOrdering::Cluster, NodeOrdering::Hybrid] {
            let (_, stats) = compute_ordering_with_stats(&g, ord);
            assert_eq!(stats.communities, Some(2), "{ord:?}");
            assert_eq!(stats.border_nodes, Some(2), "{ord:?}");
            assert_eq!(stats.largest_community, Some(4), "{ord:?}");
        }
        // Non-community orderings report nothing.
        let (_, stats) = compute_ordering_with_stats(&g, NodeOrdering::Degree);
        assert_eq!(stats, OrderingStats::default());
    }

    #[test]
    fn empty_graph_orderings() {
        let g = GraphBuilder::new(0).build().unwrap();
        for ord in [NodeOrdering::Degree, NodeOrdering::Hybrid, NodeOrdering::MinDegree] {
            assert_eq!(compute_ordering(&g, ord).len(), 0);
        }
    }
}
