//! Seeded inputs: the workload graphs, query lists and edit streams.
//!
//! The *graph* of a workload is part of its definition (fixed generator
//! seed), so `index_bytes` and every exact count are comparable across
//! runs; `--seed` feeds the benchmark's own [`SplitMix64`] for the query
//! list and the edit stream only. The library never sees a seed — it
//! receives generated graphs, node ids and edit batches.

use kdash_datagen::{rmat, DatasetProfile, RmatParams};
use kdash_dynamic::UpdateBatch;
use kdash_graph::{CsrGraph, EdgeEdit, GraphBuilder, NodeId};
use std::collections::HashSet;

/// Generator seed of every workload graph.
const GRAPH_SEED: u64 = 42;

/// SplitMix64 (Steele, Lea & Flood 2014): the benchmark's only RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is below
    /// 2⁻⁴⁰ at the bounds used here.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform in `[1, 2)` with 53 random bits.
    pub fn weight(&mut self) -> f64 {
        1.0 + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(v: u64) -> u64 {
    let mut z = v;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a, fed little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Which generator a workload's graph comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphSpec {
    /// `DatasetProfile::Dictionary` scaled to about this many nodes.
    Dictionary { nodes: usize },
    /// RMAT with `2^scale` nodes, `4·2^scale` placements, default params.
    Rmat { scale: u32 },
}

impl GraphSpec {
    /// Generates the graph and reweights every edge with a hashed 53-bit
    /// weight in `[1, 2)`. The stock generators emit unit weights, under
    /// which structurally twinned nodes have exactly equal proximities —
    /// an order neither the oracle nor the certified tier can pin.
    /// (Same scheme as `crates/bench/benches/sparsified_tier.rs`.)
    pub fn generate(self) -> CsrGraph {
        let raw = match self {
            GraphSpec::Dictionary { nodes } => {
                let profile = DatasetProfile::Dictionary;
                profile.generate(profile.scale_for_nodes(nodes), GRAPH_SEED)
            }
            GraphSpec::Rmat { scale } => {
                rmat(scale, 4usize << scale, RmatParams::default(), GRAPH_SEED)
            }
        };
        let mut b = GraphBuilder::new(raw.num_nodes());
        for (s, t, _) in raw.edges() {
            let h = mix((((s as u64) << 32) | t as u64).wrapping_add(0x9e37_79b9_7f4a_7c15)) >> 11;
            b.add_edge(s, t, 1.0 + h as f64 / (1u64 << 53) as f64);
        }
        b.build().expect("reweighting keeps the edge set")
    }
}

/// FNV-1a over the edge list (source, target, weight bits) in CSR order.
pub fn graph_fingerprint(graph: &CsrGraph) -> u64 {
    let mut h = Fnv1a::default();
    h.write_u64(graph.num_nodes() as u64);
    for (s, t, w) in graph.edges() {
        h.write_u64(((s as u64) << 32) | t as u64);
        h.write_u64(w.to_bits());
    }
    h.finish()
}

/// FNV-1a over a node list.
pub fn nodes_fingerprint(nodes: &[NodeId]) -> u64 {
    let mut h = Fnv1a::default();
    for &v in nodes {
        h.write_u64(v as u64);
    }
    h.finish()
}

/// FNV-1a over an edit stream.
pub fn edits_fingerprint(batches: &[UpdateBatch]) -> u64 {
    let mut h = Fnv1a::default();
    for batch in batches {
        h.write_u64(batch.len() as u64);
        for e in batch.edits() {
            h.write_u64(((e.src() as u64) << 32) | e.dst() as u64);
            h.write_u64(e.weight().map_or(u64::MAX, f64::to_bits));
        }
    }
    h.finish()
}

/// `count` seeded draws (with replacement) from the nodes of `graph` that
/// have at least one out-edge, in original ids. A sink's walk never
/// leaves it, so its query is the trivial one-node answer: 55 % of RMAT
/// nodes are sinks, and sampling them uniformly reports the no-walk case
/// as the median.
pub fn query_list(graph: &CsrGraph, count: usize, rng: &mut SplitMix64) -> Vec<NodeId> {
    let sources: Vec<NodeId> =
        (0..graph.num_nodes() as NodeId).filter(|&v| graph.out_degree(v) > 0).collect();
    assert!(!sources.is_empty(), "workload graph has no node with an out-edge");
    (0..count).map(|_| sources[rng.below(sources.len())]).collect()
}

/// Generates valid single-edge batches against a graph, tracking the
/// edges it inserted so every edit is valid when applied in order.
pub struct EditStream<'g> {
    graph: &'g CsrGraph,
    /// Nodes nothing points at: an edge out of one dirties only its own
    /// factor column (the light, ~ms apply class).
    fresh_sources: Vec<NodeId>,
    /// Edges this stream inserted and has not deleted since.
    live: Vec<(NodeId, NodeId)>,
    live_set: HashSet<(NodeId, NodeId)>,
    rng: SplitMix64,
}

impl<'g> EditStream<'g> {
    pub fn new(graph: &'g CsrGraph, rng: SplitMix64) -> Self {
        let fresh_sources: Vec<NodeId> = graph
            .in_degrees()
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(v, _)| v as NodeId)
            .collect();
        assert!(!fresh_sources.is_empty(), "workload graph has no in-degree-0 node");
        EditStream { graph, fresh_sources, live: Vec::new(), live_set: HashSet::new(), rng }
    }

    fn insert(&mut self, fresh_source: bool) -> EdgeEdit {
        let n = self.graph.num_nodes();
        loop {
            let src = if fresh_source {
                self.fresh_sources[self.rng.below(self.fresh_sources.len())]
            } else {
                self.rng.below(n) as NodeId
            };
            let dst = self.rng.below(n) as NodeId;
            if src == dst || self.graph.has_edge(src, dst) || self.live_set.contains(&(src, dst)) {
                continue;
            }
            self.live.push((src, dst));
            self.live_set.insert((src, dst));
            return EdgeEdit::Insert { src, dst, weight: self.rng.weight() };
        }
    }

    /// A light write: an insert out of an in-degree-0 source, or the
    /// delete of an edge this stream inserted (keeps the graph's size
    /// stationary over a long run).
    pub fn light(&mut self) -> UpdateBatch {
        let delete = !self.live.is_empty() && (self.live.len() >= 32 || self.rng.below(2) == 0);
        let edit = if delete {
            let (src, dst) = self.live.swap_remove(self.rng.below(self.live.len()));
            self.live_set.remove(&(src, dst));
            EdgeEdit::Delete { src, dst }
        } else {
            self.insert(true)
        };
        single(edit)
    }

    /// A fresh-source insert (never a delete): the coalescing class.
    pub fn fresh_insert(&mut self) -> UpdateBatch {
        let edit = self.insert(true);
        single(edit)
    }

    /// A uniform-endpoint insert: usually inside the giant component's
    /// closure, so the re-solve reaches a large share of the inverse.
    pub fn heavy(&mut self) -> UpdateBatch {
        let edit = self.insert(false);
        single(edit)
    }
}

fn single(edit: EdgeEdit) -> UpdateBatch {
    UpdateBatch::new(vec![edit]).expect("generated edit is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 1234567 from the reference C code.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of the eight bytes "\x01\0\0\0\0\0\0\0".
        let mut h = Fnv1a::default();
        h.write_u64(1);
        let mut want = 0xcbf2_9ce4_8422_2325u64;
        for b in 1u64.to_le_bytes() {
            want = (want ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(h.finish(), want);
    }

    #[test]
    fn queries_have_out_edges_and_repeat_per_seed() {
        let g = GraphSpec::Rmat { scale: 8 }.generate();
        let a = query_list(&g, 200, &mut SplitMix64::new(7));
        let b = query_list(&g, 200, &mut SplitMix64::new(7));
        assert_eq!(a, b);
        assert!(a.iter().all(|&q| g.out_degree(q) > 0));
        assert_ne!(a, query_list(&g, 200, &mut SplitMix64::new(8)));
    }

    #[test]
    fn edit_stream_stays_valid_in_order() {
        let g = GraphSpec::Rmat { scale: 8 }.generate();
        let mut stream = EditStream::new(&g, SplitMix64::new(3));
        let mut current = g.clone();
        for i in 0..300 {
            let batch = if i % 10 == 0 { stream.heavy() } else { stream.light() };
            current = current.apply_edits(batch.edits()).expect("edit valid in sequence");
        }
    }
}
