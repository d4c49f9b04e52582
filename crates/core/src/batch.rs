//! Panic-isolated query execution.
//!
//! A built [`KdashIndex`] is immutable, hence `Sync`: independent queries
//! can run on separate threads with zero coordination, one
//! [`IsolatedExecutor`] per thread.
//!
//! One poisoned query — invalid input, an exceeded budget, even a *panic*
//! inside the search — costs exactly that query: it comes back as
//! [`BatchOutcome::Failed`], and every other query is bit-identical to
//! running it alone. Each query runs wrapped in `catch_unwind`, and an
//! executor whose query panicked discards its [`Searcher`] (the panic may
//! have left its scratch buffers mid-update) and rebuilds a fresh one for
//! the next query.

use crate::{KdashError, KdashIndex, QueryBudget, Result, Searcher, TopKResult};
use kdash_graph::NodeId;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Executor options. The default is an unlimited budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {
    /// Per-query work budget, applied to every query the executor runs. A
    /// query that exceeds it fails with [`KdashError::BudgetExceeded`] —
    /// one failed outcome, not a lost executor.
    pub budget: QueryBudget,
}

/// How one isolated query ended.
#[derive(Debug, Clone)]
pub enum BatchOutcome {
    /// The query completed; the result is bit-identical to running it
    /// alone with the same budget.
    Ok(TopKResult),
    /// The query failed — invalid input, exceeded budget, or a panic
    /// inside the search ([`KdashError::QueryPanicked`]). Other queries
    /// on the same executor are unaffected.
    Failed(KdashError),
}

/// A reusable single-query executor: per-query `catch_unwind` isolation,
/// [`BatchOptions::budget`] enforcement, and a persistent [`Searcher`]
/// that survives across calls (so the `O(n)` scratch buffers are paid
/// once per executor, not once per query) but is discarded and rebuilt
/// after a panic.
///
/// This is the building block the serving tier (`kdash-serve`) drains
/// its request queue through: each worker thread pins an index epoch,
/// wraps it in one `IsolatedExecutor`, and folds queued queries through
/// [`run`](Self::run).
pub struct IsolatedExecutor<'a> {
    index: &'a KdashIndex,
    budget: QueryBudget,
    searcher: Option<Searcher<'a>>,
}

impl<'a> IsolatedExecutor<'a> {
    /// Creates an executor over `index`. Infallible today; the `Result` is
    /// part of the surface `benchmark/` matches on.
    pub fn new(index: &'a KdashIndex, options: BatchOptions) -> Result<Self> {
        Ok(IsolatedExecutor { index, budget: options.budget, searcher: None })
    }

    /// Runs one query. Never panics: invalid input, an exceeded budget,
    /// or a panic inside the search all come back as
    /// [`BatchOutcome::Failed`], and the result of a completed query is
    /// bit-identical to running it alone with the same budget.
    pub fn run(&mut self, query: NodeId, k: usize) -> BatchOutcome {
        self.run_hooked(query, k, || {})
    }

    /// [`run`](Self::run) with `hook` called inside the isolation boundary
    /// just before the search. Hidden: the seam that lets the failure
    /// suites make a chosen query panic without a corrupt index, not a
    /// serving knob.
    #[doc(hidden)]
    pub fn run_hooked(&mut self, query: NodeId, k: usize, hook: impl FnOnce()) -> BatchOutcome {
        let (index, budget) = (self.index, self.budget);
        let searcher = self.searcher.get_or_insert_with(|| {
            let mut s = Searcher::new(index);
            s.set_budget(budget);
            s
        });
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            hook();
            searcher.top_k(query, k)
        }));
        match attempt {
            Ok(Ok(result)) => BatchOutcome::Ok(result),
            Ok(Err(e)) => BatchOutcome::Failed(e),
            Err(payload) => {
                self.searcher = None;
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                BatchOutcome::Failed(KdashError::QueryPanicked { message })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexOptions;
    use kdash_graph::GraphBuilder;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn graph(n: usize, seed: u64) -> kdash_graph::CsrGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for v in 0..n {
            for _ in 0..3 {
                let t = rng.gen_range(0..n);
                if t != v {
                    b.add_edge(v as NodeId, t as NodeId, 1.0);
                }
            }
        }
        b.build().unwrap()
    }

    /// Items and the full [`SearchStats`](crate::SearchStats), bit for bit.
    fn assert_bit_identical(what: &str, a: &TopKResult, b: &TopKResult) {
        assert_eq!(a.nodes(), b.nodes(), "{what}");
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x.proximity.to_bits(), y.proximity.to_bits(), "{what}: node {}", x.node);
        }
        assert_eq!(a.stats, b.stats, "{what}");
    }

    #[test]
    fn outcomes_isolate_bad_queries() {
        let g = graph(30, 9);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let mut executor = IsolatedExecutor::new(&index, BatchOptions::default()).unwrap();
        let mut lone = Searcher::new(&index);
        for q in [0, 99, 5, 200, 11] {
            match (executor.run(q, 4), lone.top_k(q, 4)) {
                (BatchOutcome::Ok(got), Ok(want)) => {
                    assert_bit_identical(&format!("query {q}"), &got, &want);
                }
                (BatchOutcome::Failed(got), Err(want)) => {
                    assert!(matches!(got, KdashError::NodeOutOfBounds { node, .. } if node == q));
                    assert_eq!(got, want);
                }
                (got, want) => panic!("query {q}: executor {got:?}, lone searcher {want:?}"),
            }
        }
    }

    #[test]
    fn outcomes_apply_the_budget_per_query() {
        let g = graph(60, 12);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let budget = QueryBudget { max_frontier_nodes: Some(1), ..Default::default() };
        let mut executor = IsolatedExecutor::new(&index, BatchOptions { budget }).unwrap();
        let mut lone = Searcher::new(&index);
        lone.set_budget(budget);
        for q in [0, 1] {
            match executor.run(q, 5) {
                BatchOutcome::Failed(e @ KdashError::BudgetExceeded { .. }) => {
                    assert_eq!(Some(e), lone.top_k(q, 5).err(), "query {q}");
                }
                other => panic!("query {q} should exceed its budget, got {other:?}"),
            }
        }
    }

    /// One poisoned query costs exactly that query: it carries a typed
    /// [`KdashError::QueryPanicked`] with the payload text, the panic
    /// never reaches the caller, and every other query — including the
    /// next one, served by a rebuilt searcher — is bit-identical to a
    /// clean executor's run.
    #[test]
    fn panicking_query_costs_only_itself() {
        const BAD: NodeId = 5;
        let g = graph(40, 13);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let k = 8;
        let mut clean = IsolatedExecutor::new(&index, BatchOptions::default()).unwrap();
        let mut poisoned = IsolatedExecutor::new(&index, BatchOptions::default()).unwrap();
        for q in 0..12 {
            let want = clean.run(q, k);
            let got = poisoned.run_hooked(q, k, || {
                if q == BAD {
                    panic!("injected fault at query {q}");
                }
            });
            match (got, want) {
                (BatchOutcome::Failed(KdashError::QueryPanicked { message }), _) if q == BAD => {
                    assert!(message.contains("injected fault"), "payload lost: {message}");
                    assert!(poisoned.searcher.is_none(), "the unwound searcher is discarded");
                }
                (BatchOutcome::Ok(got), BatchOutcome::Ok(want)) if q != BAD => {
                    assert_bit_identical(&format!("query {q}"), &got, &want);
                    assert!(poisoned.searcher.is_some(), "query {q} leaves a searcher behind");
                }
                (got, want) => panic!("query {q}: poisoned {got:?}, clean {want:?}"),
            }
        }
    }
}
