//! Watts–Strogatz small-world graphs.

use kdash_graph::{CsrGraph, GraphBuilder, NodeId};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A ring lattice on `n` nodes where every node connects to its `k` nearest
/// neighbours on each side, with each edge rewired to a random target with
/// probability `beta`. Undirected (both directions stored).
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> CsrGraph {
    assert!(k >= 1 && 2 * k < n, "need 1 <= k and 2k < n");
    assert!((0.0..=1.0).contains(&beta), "beta must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, 2 * n * k);
    for v in 0..n {
        for offset in 1..=k {
            let mut t = (v + offset) % n;
            if rng.gen_bool(beta) {
                // Rewire to a uniform non-self target.
                loop {
                    t = rng.gen_range(0..n);
                    if t != v {
                        break;
                    }
                }
            }
            b.add_undirected_edge(v as NodeId, t as NodeId, 1.0);
        }
    }
    b.build().expect("generated edges are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdash_graph::BfsTree;

    #[test]
    fn zero_beta_is_ring_lattice() {
        let g = watts_strogatz(12, 2, 0.0, 1);
        assert_eq!(g.num_nodes(), 12);
        // node 0 connects to 1, 2, 10, 11
        for t in [1, 2, 10, 11] {
            assert!(g.has_edge(0, t), "missing 0->{t}");
        }
        assert_eq!(g.out_degree(0), 4);
    }

    #[test]
    fn stays_connected_for_small_beta() {
        let g = watts_strogatz(200, 3, 0.1, 2);
        // Every edge is stored both ways, so reaching every node from one
        // means the graph is connected.
        assert_eq!(BfsTree::new(&g, 0).num_reachable(), 200);
    }

    #[test]
    fn rewiring_changes_structure() {
        let lattice = watts_strogatz(100, 2, 0.0, 3);
        let rewired = watts_strogatz(100, 2, 0.5, 3);
        assert_ne!(lattice, rewired);
    }

    #[test]
    fn deterministic() {
        assert_eq!(watts_strogatz(60, 2, 0.2, 5), watts_strogatz(60, 2, 0.2, 5));
    }
}
