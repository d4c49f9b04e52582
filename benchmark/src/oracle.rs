//! Correctness against the definition: `kdash_baselines::IterativeRwr`.

use crate::metrics::Report;
use kdash_baselines::IterativeRwr;
use kdash_core::{KdashError, KdashIndex, TopKResult};
use kdash_graph::{CsrGraph, NodeId};
use std::time::Instant;

/// Proximities (and near-ties in the ranking) are compared to this.
const TOLERANCE: f64 = 1e-9;

/// What the comparison cost, for the paper's yardsticks.
pub struct OracleTiming {
    /// Mean time of one iterative full-vector solve, ms.
    pub iterative_ms_per_query: f64,
    /// Mean time of the answers under test, ms.
    pub answer_ms_per_query: f64,
}

/// Compares `answer(q)` with the iterative definition on `graph` for every
/// `q`: the positive-proximity prefix must name the same nodes in the same
/// order (two nodes may swap only where the definition itself puts them
/// within [`TOLERANCE`]) with proximities within [`TOLERANCE`]. Each
/// comparison is one attempted op in `report`; a typed error from `answer`
/// is a failed one.
pub fn check_against_iterative(
    report: &mut Report,
    label: &str,
    graph: &CsrGraph,
    c: f64,
    k: usize,
    queries: &[NodeId],
    mut answer: impl FnMut(NodeId) -> Result<TopKResult, KdashError>,
) -> OracleTiming {
    let oracle = IterativeRwr::new(graph, c);
    let (mut iterative_s, mut answer_s) = (0.0, 0.0);
    for &q in queries {
        let t = Instant::now();
        let truth = oracle.full(q);
        iterative_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let got = answer(q);
        answer_s += t.elapsed().as_secs_f64();
        match got {
            Ok(got) => {
                let verdict = compare(&truth, k, &got);
                report.check(verdict.is_ok(), || {
                    format!(
                        "{label}: query {q} differs from the iterative definition: {}",
                        verdict.unwrap_err()
                    )
                });
            }
            Err(e) => report.check(false, || format!("{label}: query {q} failed: {e}")),
        }
    }
    let n = queries.len().max(1) as f64;
    OracleTiming {
        iterative_ms_per_query: 1e3 * iterative_s / n,
        answer_ms_per_query: 1e3 * answer_s / n,
    }
}

fn compare(truth: &[f64], k: usize, got: &TopKResult) -> Result<(), String> {
    let mut ranked: Vec<NodeId> = (0..truth.len() as NodeId).collect();
    ranked.sort_by(|&a, &b| truth[b as usize].total_cmp(&truth[a as usize]).then(a.cmp(&b)));
    let want = k.min(truth.len());
    if got.items.len() != want {
        return Err(format!("{} items, expected {want}", got.items.len()));
    }
    for (rank, item) in got.items.iter().enumerate() {
        let expected = truth[ranked[rank] as usize];
        if item.proximity <= 0.0 {
            // Past the positive prefix both sides pad with unreachable
            // nodes in arbitrary order; the definition must agree that
            // nothing reachable is left.
            if expected > TOLERANCE {
                return Err(format!("rank {rank} is padding but the definition has {expected:e}"));
            }
            continue;
        }
        if (item.proximity - expected).abs() > TOLERANCE {
            return Err(format!(
                "rank {rank}: proximity {:e}, expected {expected:e}",
                item.proximity
            ));
        }
        if item.node != ranked[rank] && (truth[item.node as usize] - expected).abs() > TOLERANCE {
            return Err(format!("rank {rank}: node {}, expected {}", item.node, ranked[rank]));
        }
    }
    Ok(())
}

/// [`check_against_iterative`] for the answers of `index` itself, through
/// one reused `Searcher`.
pub fn check_index_against_iterative(
    report: &mut Report,
    label: &str,
    graph: &CsrGraph,
    index: &KdashIndex,
    k: usize,
    queries: &[NodeId],
) -> OracleTiming {
    let mut searcher = index.searcher();
    check_against_iterative(report, label, graph, index.restart_probability(), k, queries, |q| {
        searcher.top_k(q, k)
    })
}

impl OracleTiming {
    /// The paper's yardsticks (Fig. 2/4): the iterative method's cost and
    /// K-dash's speed-up over it on the same queries.
    pub fn emit(&self, report: &mut Report) {
        report.put("baselines.iterative.ms_per_query", self.iterative_ms_per_query);
        report.put(
            "paper.speedup_vs_iterative",
            self.iterative_ms_per_query / self.answer_ms_per_query,
        );
    }
}

/// Two results must agree bit for bit (nodes and proximities).
pub fn bit_identical(a: &TopKResult, b: &TopKResult) -> bool {
    a.items.len() == b.items.len()
        && a.items
            .iter()
            .zip(&b.items)
            .all(|(x, y)| x.node == y.node && x.proximity.to_bits() == y.proximity.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdash_core::{IndexOptions, RankedNode};
    use kdash_graph::GraphBuilder;

    fn ring() -> CsrGraph {
        let mut b = GraphBuilder::new(12);
        for v in 0..12u32 {
            b.add_edge(v, (v + 1) % 12, 1.0 + v as f64 / 16.0);
            b.add_edge(v, (v + 5) % 12, 0.5);
        }
        b.build().unwrap()
    }

    #[test]
    fn exact_answers_pass_and_wrong_ones_are_counted() {
        let g = ring();
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let mut report = Report::new("t", 0, false);
        check_against_iterative(&mut report, "t", &g, 0.95, 4, &[0, 3, 7], |q| index.top_k(q, 4));
        assert_eq!((report.attempted, report.failed), (3, 0), "{:?}", report.failures);

        check_against_iterative(&mut report, "t", &g, 0.95, 4, &[0], |q| {
            let mut r = index.top_k(q, 4)?;
            r.items.swap(1, 2);
            Ok(r)
        });
        check_against_iterative(&mut report, "t", &g, 0.95, 4, &[0], |q| {
            let mut r = index.top_k(q, 4)?;
            r.items[3] =
                RankedNode { node: r.items[3].node, proximity: r.items[3].proximity * 1.001 };
            Ok(r)
        });
        check_against_iterative(&mut report, "t", &g, 0.95, 4, &[0], |_| {
            Err(KdashError::InvalidThreshold { theta: 0.0 })
        });
        assert_eq!((report.attempted, report.failed), (6, 3));
    }
}
