//! # kdash-harness
//!
//! Hosts the workspace-level integration tests (`/tests`) and runnable
//! examples (`/examples`), plus a few helpers they share. The crate
//! re-exports nothing new; its value is wiring every other crate into one
//! dependency set for cross-crate targets.

#![forbid(unsafe_code)]

use kdash_baselines::{IterativeRwr, TopKEngine};
use kdash_core::{paper, KdashIndex, ResolvedKernel, Searcher, TopKResult};
use kdash_datagen::DatasetProfile;
use kdash_graph::{BfsTree, CsrGraph, GraphBuilder, NodeId};

/// Generates a dataset profile scaled to roughly `target_nodes` nodes.
pub fn profile_graph(profile: DatasetProfile, target_nodes: usize, seed: u64) -> CsrGraph {
    profile.generate(profile.scale_for_nodes(target_nodes), seed)
}

/// Exact ground-truth top-k via power iteration (node ids only).
pub fn exact_top_k(graph: &CsrGraph, c: f64, q: NodeId, k: usize) -> Vec<NodeId> {
    IterativeRwr::new(graph, c).top_k(q, k).into_iter().map(|(n, _)| n).collect()
}

/// Exact ground-truth top-k with proximities.
pub fn exact_top_k_scored(graph: &CsrGraph, c: f64, q: NodeId, k: usize) -> Vec<(NodeId, f64)> {
    IterativeRwr::new(graph, c).top_k(q, k)
}

/// The lazy-vs-eager query-engine contract, shared by the equivalence
/// suites: `lazy` from the production path (under the reference kernel),
/// whose stop rule bounds every uncomputed node at once; `eager` from the
/// whole-tree-first oracle (`paper::top_k_merge_join`), which stops where
/// the paper's Definition 2 does.
///
/// Checks: items bit-identical. The stop rule is never looser than
/// Definition 2, and both compute a prefix of the same visit order, so
/// `visited`, `proximity_computations`, `frontier_expanded`, `reachable`
/// and `nnz_gathered` never exceed the oracle's, and a query the oracle
/// ends early the production path ends early too. The eager oracle
/// expands everything it reaches; an early stop counts the node it
/// stopped at as visited, not computed, and leaves the layer it died in
/// unexpanded (`frontier_expanded` strictly below `reachable`); a
/// complete run agrees with the oracle on every one of those counters.
pub fn check_lazy_vs_eager(lazy: &TopKResult, eager: &TopKResult) -> Result<(), String> {
    if lazy.items.len() != eager.items.len() {
        return Err(format!("lengths differ: {} vs {}", lazy.items.len(), eager.items.len()));
    }
    for (x, y) in lazy.items.iter().zip(&eager.items) {
        if x.node != y.node || x.proximity.to_bits() != y.proximity.to_bits() {
            return Err(format!(
                "item mismatch: ({}, {:.17e}) vs ({}, {:.17e})",
                x.node, x.proximity, y.node, y.proximity
            ));
        }
    }
    let (a, b) = (&lazy.stats, &eager.stats);
    let work = |s: &kdash_core::SearchStats| {
        [s.visited, s.proximity_computations, s.frontier_expanded, s.reachable, s.nnz_gathered]
    };
    if work(a).iter().zip(work(b)).any(|(&ours, theirs)| ours > theirs)
        || (b.terminated_early && !a.terminated_early)
        || (a.skipped, b.skipped) != (0, 0)
    {
        return Err(format!("the stop rule did more work than Definition 2: {a:?} vs {b:?}"));
    }
    if b.frontier_expanded != b.reachable {
        return Err(format!("eager replay must expand its whole tree: {b:?}"));
    }
    if a.terminated_early {
        if a.visited != a.proximity_computations + 1 {
            return Err(format!("an early stop visits one node it does not compute: {a:?}"));
        }
        if a.frontier_expanded >= a.reachable {
            return Err(format!("death layer leaked into the expansion count: {a:?}"));
        }
    } else if work(a) != work(b) {
        return Err(format!("full runs must agree exactly: {a:?} vs {b:?}"));
    }
    Ok(())
}

/// What [`check_stop_rule`] has the search look for.
#[derive(Debug, Clone, Copy)]
pub enum StopGoal {
    /// The `k` best proximities (`top_k_from_set`; θ is the k-th best so far).
    TopK(usize),
    /// Every proximity of at least this θ (`nodes_above`; one source only).
    Above(f64),
}

/// The stop rule of the search held to its definition, step by step.
///
/// Runs the query under the scalar kernel — whose proximities are bit for
/// bit the entries of the `full_proximities` vector, the *truth* here —
/// then replays the visit with no stack, no stamps and no shortcuts:
/// before each position of the BFS order it recomputes, over **all**
/// nodes, the in-neighbour sums `S_u` of what is computed so far and the
/// remaining mass `R`, in the driver's own arithmetic, and checks that
///
/// * the bound the stop test consults — `c'_max·A_max·R` for nodes no
///   push has reached, `c'_max·(S_u + Ā_u·R)` for the others — is at least
///   the largest true proximity among the uncomputed non-source nodes
///   (**soundness**, at every step, stopped or not);
/// * the search stopped at exactly the first position past the sources
///   where that bound is strictly below θ, and nowhere if there is none;
/// * the answer is bit for bit what the truth vector selects — for a
///   single-source top-k also `paper::top_k_unpruned`'s, ids included.
pub fn check_stop_rule(
    index: &KdashIndex,
    sources: &[NodeId],
    goal: StopGoal,
) -> Result<(), String> {
    let fail = |e: kdash_core::KdashError| e.to_string();
    let mut searcher = Searcher::with_kernel(index, ResolvedKernel::reference());
    let got = match goal {
        StopGoal::TopK(k) => searcher.top_k_from_set(sources, k),
        StopGoal::Above(theta) => searcher.nodes_above(sources[0], theta),
    }
    .map_err(fail)?;
    let truth_by_id = index.full_proximities_from_set(sources).map_err(fail)?;

    // The answer against the truth vector (values; ids may differ on ties).
    let mut want = truth_by_id.clone();
    want.sort_unstable_by(|a, b| b.total_cmp(a));
    match goal {
        StopGoal::TopK(k) => want.truncate(k),
        StopGoal::Above(theta) => want.retain(|&p| p >= theta),
    }
    let answer: Vec<u64> = got.items.iter().map(|i| i.proximity.to_bits()).collect();
    if answer != want.iter().map(|p| p.to_bits()).collect::<Vec<u64>>() {
        return Err(format!("answer differs from the truth vector's: {:?}", got.items));
    }
    if let (StopGoal::TopK(k), [q]) = (goal, sources) {
        let unpruned = paper::top_k_unpruned(&mut searcher, *q, k).map_err(fail)?;
        if got.items != unpruned.items {
            return Err(format!("answer differs from paper::top_k_unpruned's: {:?}", got.items));
        }
    }

    let perm = index.permutation();
    let graph = index.permuted_graph();
    let n = index.num_nodes();
    let mut truth = vec![0.0; n];
    for (id, &p) in truth_by_id.iter().enumerate() {
        truth[perm.new_of(id as NodeId) as usize] = p;
    }
    let roots: Vec<NodeId> = sources.iter().map(|&s| perm.new_of(s)).collect();
    let order = BfsTree::new_multi(graph, &roots).order;
    let (_, a_max, c_prime, a_row_max) = index.bound_constants();
    let c_prime_max = c_prime.iter().copied().fold(0.0f64, f64::max);
    let stats = &got.stats;

    let mut inflow: Vec<Option<f64>> = vec![None; n];
    let mut remaining = stats.query_mass;
    let mut prefix: Vec<f64> = Vec::new();
    for pos in 0..=order.len() {
        let pending = &order[pos..];
        let r = remaining.max(0.0);
        let bound =
            pending.iter().fold(c_prime_max * a_max * r, |best, &u| match inflow[u as usize] {
                Some(s) => best.max(c_prime_max * (s + a_row_max[u as usize] * r)),
                None => best,
            });
        let largest = pending
            .iter()
            .filter(|u| !roots.contains(u))
            .map(|&u| truth[u as usize])
            .fold(0.0f64, f64::max);
        if bound < largest {
            return Err(format!(
                "unsound at position {pos}: bound {bound:e} below an uncomputed {largest:e}"
            ));
        }
        let theta = match goal {
            StopGoal::TopK(k) if prefix.len() >= k => {
                let mut best = prefix.clone();
                best.sort_unstable_by(|a, b| b.total_cmp(a));
                Some(best[k - 1])
            }
            StopGoal::TopK(_) => None,
            StopGoal::Above(theta) => Some(theta),
        };
        let exhausted = pos == order.len();
        let may_stop = !exhausted && pos >= roots.len() && theta.is_some_and(|t| bound < t);
        let stopped = stats.terminated_early && stats.proximity_computations == pos;
        if may_stop != stopped || (exhausted && stats.proximity_computations != pos) {
            return Err(format!(
                "at position {pos} of {} (bound {bound:e}, θ {theta:?}) the definition says \
                 stop = {may_stop}, the search: {stats:?}",
                order.len()
            ));
        }
        if stopped || exhausted {
            break;
        }

        // Compute order[pos]: the driver's arithmetic, operation for operation.
        let v = order[pos];
        let p = truth[v as usize];
        prefix.push(p);
        remaining -= p;
        let out_sum = graph.out_weight_sum(v);
        if out_sum > 0.0 {
            let scale = p / out_sum;
            for (u, w) in graph.out_edges(v) {
                *inflow[u as usize].get_or_insert(0.0) += scale * w;
            }
        }
    }
    Ok(())
}

/// The dynamic-update contract, shared by `tests/dynamic_equivalence.rs`
/// and the update benchmarks: two indexes are **bit-identical at the
/// array level** — same permutation, same permuted graph, same `L⁻¹`
/// arrays (pointer, index and value bits), same `U⁻¹` proximity store
/// (encoded arrays, per-row policy stats, column sums), same
/// bound constants, same nnz statistics and same update-relevant
/// metadata.
/// This is the strongest form of "incremental update ≡ from-scratch
/// rebuild": if it holds, every query answer and every `SearchStats`
/// field agrees automatically, on any machine.
pub fn check_index_bit_identity(
    a: &kdash_core::KdashIndex,
    b: &kdash_core::KdashIndex,
) -> Result<(), String> {
    if a.num_nodes() != b.num_nodes() {
        return Err(format!("node counts differ: {} vs {}", a.num_nodes(), b.num_nodes()));
    }
    if a.permutation().order() != b.permutation().order() {
        return Err("permutations differ".into());
    }
    if a.permuted_graph() != b.permuted_graph() {
        return Err("permuted graphs differ".into());
    }
    let (ap, ai, av) = a.linv_cols().raw();
    let (bp, bi, bv) = b.linv_cols().raw();
    if ap != bp || ai != bi {
        return Err("L⁻¹ structure differs".into());
    }
    for (i, (x, y)) in av.iter().zip(bv).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(format!("L⁻¹ value {i} differs: {x:e} vs {y:e}"));
        }
    }
    // ProximityStore equality covers the encoded index arrays, the
    // values and the store's derived values: the largest row and the
    // column sums — so this is where a splice that left a stale column
    // sum would show.
    if a.uinv_rows() != b.uinv_rows() {
        return Err("U⁻¹ proximity stores differ".into());
    }
    let (a_col_max_a, a_max_a, c_prime_a, a_row_max_a) = a.bound_constants();
    let (a_col_max_b, a_max_b, c_prime_b, a_row_max_b) = b.bound_constants();
    if a_max_a.to_bits() != a_max_b.to_bits() {
        return Err(format!("A_max differs: {a_max_a:e} vs {a_max_b:e}"));
    }
    for (name, xs, ys) in [
        ("A_max(v)", a_col_max_a, a_col_max_b),
        ("c'", c_prime_a, c_prime_b),
        ("row maximum of A", a_row_max_a, a_row_max_b),
    ] {
        for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
            if x.to_bits() != y.to_bits() {
                return Err(format!("{name}[{i}] differs: {x:e} vs {y:e}"));
            }
        }
    }
    let (sa, sb) = (a.stats(), b.stats());
    if (sa.nnz_l_inv, sa.nnz_u_inv, sa.uinv_index_bytes, sa.num_edges, sa.inverse_heap_bytes)
        != (sb.nnz_l_inv, sb.nnz_u_inv, sb.uinv_index_bytes, sb.num_edges, sb.inverse_heap_bytes)
    {
        return Err(format!("nnz/byte statistics differ: {sa:?} vs {sb:?}"));
    }
    if a.restart_probability() != b.restart_probability()
        || a.dangling_policy() != b.dangling_policy()
    {
        return Err("restart probability or dangling policy differs".into());
    }
    Ok(())
}

/// Rebuilds `graph` with deterministic per-edge weights derived from the
/// endpoint pair. The stock generators emit unit weights, under which
/// symmetric structures produce *exactly* equal proximities — ties the
/// refined path correctly refuses to certify (no positive gap separates
/// them) and under which "the" dense order is itself arbitrary. Hashed
/// weights make distinct-node proximity collisions measure-zero while
/// keeping the graph structure.
pub fn break_ties(graph: &CsrGraph) -> kdash_graph::Result<CsrGraph> {
    let n = graph.num_nodes();
    let mut b = GraphBuilder::new(n);
    // splitmix64 over the packed endpoint pair: 53 bits of weight
    // granularity makes two edges sharing a weight (and hence two nodes
    // sharing an exact proximity) practically impossible — a coarse
    // bucket hash here produced real collisions and real exact ties.
    let mix = |v: u64| {
        let mut z = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for v in 0..n as NodeId {
        for (t, _) in graph.out_edges(v) {
            let h = mix(((v as u64) << 32) | t as u64) >> 11;
            b.add_edge(v, t, 1.0 + h as f64 / (1u64 << 53) as f64);
        }
    }
    b.build()
}

/// Picks `count` query nodes with at least one out-edge, deterministically
/// spread over the id space (queries from dangling nodes are legal but
/// uninteresting — their only answer is themselves).
pub fn sample_queries(graph: &CsrGraph, count: usize) -> Vec<NodeId> {
    let n = graph.num_nodes();
    let mut queries = Vec::with_capacity(count);
    if n == 0 {
        return queries;
    }
    let stride = (n / count.max(1)).max(1);
    let mut v = 0usize;
    while queries.len() < count && v < n * 2 {
        let candidate = (v % n) as NodeId;
        if graph.out_degree(candidate) > 0 && !queries.contains(&candidate) {
            queries.push(candidate);
        }
        v += stride.max(1);
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
    fn profile_graph_scales() {
        let g = profile_graph(DatasetProfile::Internet, 500, 1);
        assert!(g.num_nodes() >= 300 && g.num_nodes() <= 1500, "{}", g.num_nodes());
    }

    #[test]
    fn sample_queries_have_out_edges() {
        let g = profile_graph(DatasetProfile::Email, 600, 2);
        let qs = sample_queries(&g, 10);
        assert!(!qs.is_empty());
        for q in qs {
            assert!(g.out_degree(q) > 0);
        }
    }

    #[test]
    fn exact_top_k_starts_at_query() {
        let g = profile_graph(DatasetProfile::Dictionary, 400, 3);
        let qs = sample_queries(&g, 3);
        for q in qs {
            let top = exact_top_k(&g, 0.95, q, 5);
            assert_eq!(top[0], q);
        }
    }
}
