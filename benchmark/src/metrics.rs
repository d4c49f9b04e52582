//! The metric names the benchmark emits — the same tables
//! `BENCHMARK.json` declares (the smoke test holds the two together) —
//! and the per-run report they are collected into.

use crate::json::Value;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees; `bound` is the share of the
/// parent's median by which it may worsen before a change is rejected.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload emits every end-to-end metric in an untraced run.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "queries_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "query_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "query_p90_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "index_bytes", unit: "B", better: Better::Lower, bound: 0.01 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
];

/// A metric of one layer, from the traced run. `exact` marks counts that
/// repeat exactly for a fixed seed; a layer a workload does not exercise
/// reports 0.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, exact: false }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, exact: true }
}

/// Every workload emits every per-layer metric in a traced run.
pub const PER_LAYER: &[PerLayer] = &[
    // kdash-graph::bfs
    timed("graph.bfs.ns_per_query", "ns"),
    count("graph.bfs.expanded_per_query", "count", Better::Lower),
    // kdash-sparse::scatter
    timed("sparse.scatter.ns_per_query", "ns"),
    count("sparse.scatter.nnz_per_query", "count", Better::Lower),
    // kdash-sparse::store + kernel
    timed("sparse.gather.ns_per_query", "ns"),
    timed("sparse.gather.ns_per_nnz", "ns"),
    count("sparse.gather.nnz_per_query", "count", Better::Lower),
    count("sparse.gather.index_bytes_per_query", "B", Better::Lower),
    count("sparse.gather.value_bytes_per_query", "B", Better::Lower),
    count("sparse.gather.wide_row_share", "ratio", Better::Higher),
    // kdash-core::searcher + estimator
    timed("core.search.residual_ns_per_query", "ns"),
    count("core.search.visited_per_query", "count", Better::Lower),
    count("core.search.computed_per_query", "count", Better::Lower),
    count("core.search.early_term_share", "ratio", Better::Higher),
    count("core.search.useful_ratio", "ratio", Better::Higher),
    // kdash-core refinement
    count("core.refine.iterations_per_query", "count", Better::Lower),
    count("core.refine.nnz_per_query", "count", Better::Lower),
    // kdash-core::batch
    timed("core.batch.isolated_overhead_ns", "ns"),
    // kdash-core::ordering (+ kdash-community)
    timed("core.ordering.s", "s"),
    count("core.ordering.communities", "count", Better::Lower),
    // kdash-sparse::rwr / lu
    timed("sparse.lu.factor_s", "s"),
    count("sparse.lu.factor_nnz", "count", Better::Lower),
    // kdash-sparse::inverse / sparsify
    timed("sparse.inverse.invert_s", "s"),
    count("sparse.inverse.nnz", "count", Better::Lower),
    count("sparse.inverse.nnz_per_edge", "ratio", Better::Lower),
    count("sparse.sparsify.dropped_l1_mass", "mass", Better::Lower),
    // kdash-sparse::store build, kdash-core::pipeline
    timed("sparse.store.encode_s", "s"),
    timed("core.pipeline.total_s", "s"),
    timed("core.pipeline.outside_gap_share", "ratio"),
    // kdash-core::persist
    timed("core.persist.save_s", "s"),
    timed("core.persist.load_s", "s"),
    count("core.persist.file_bytes", "B", Better::Lower),
    // kdash-dynamic::engine
    timed("dynamic.attach_s", "s"),
    timed("dynamic.apply.p50_ms", "ms"),
    timed("dynamic.graph_edit_ms", "ms"),
    timed("dynamic.refactor_ms", "ms"),
    timed("dynamic.reach_ms", "ms"),
    timed("dynamic.resolve_ms", "ms"),
    timed("dynamic.splice_ms", "ms"),
    timed("dynamic.estimator_ms", "ms"),
    count("dynamic.apply.dirty_linv_share", "ratio", Better::Lower),
    count("dynamic.apply.resolved_nnz", "count", Better::Lower),
    timed("dynamic.coalesced16.ms_per_edit", "ms"),
    timed("dynamic.heavy.max_s", "s"),
    // kdash-dynamic::journal
    timed("dynamic.journal.append_fsync_ms", "ms"),
    count("dynamic.journal.bytes_per_batch", "B", Better::Lower),
    timed("dynamic.recover.replay_s", "s"),
    // kdash-serve::queue / epoch
    timed("serve.queue.push_pop_ns", "ns"),
    timed("serve.epoch.pin_ns", "ns"),
    // kdash-serve::server / metrics
    timed("serve.overhead_us_p50", "us"),
    PerLayer { name: "serve.mean_batch", unit: "count", better: Better::Higher, exact: false },
    timed("serve.max_queue_depth", "count"),
    timed("serve.shed_share", "ratio"),
    timed("serve.freshness_lag_mean", "epochs"),
    timed("serve.freshness_lag_max", "epochs"),
    timed("serve.swap_install_ms_p50", "ms"),
    timed("serve.hist_p99_ms", "ms"),
    // The write path end to end (serve-churn only, so not in END_TO_END:
    // every workload must report every end-to-end metric, never 0).
    timed("serve.update_ack_p50_ms", "ms"),
    timed("serve.update_ack_p95_ms", "ms"),
    timed("serve.update_heavy_s", "s"),
    timed("serve.recover_s", "s"),
    // The query tail (too exposed to host interruptions to carry a bound).
    timed("query_p99_us", "us"),
    // kdash-baselines: the paper's yardsticks
    timed("baselines.iterative.ms_per_query", "ms"),
    PerLayer {
        name: "paper.speedup_vs_iterative",
        unit: "ratio",
        better: Better::Higher,
        exact: false,
    },
    count("paper.computed_share", "ratio", Better::Lower),
    // The benchmark itself
    timed("trace.overhead_share", "ratio"),
    timed("trace.interrupted_chunk_share", "ratio"),
];

/// One measured value, with the per-pass samples behind it when it is a
/// median over passes (what `compare` takes its spread from).
#[derive(Debug, Clone)]
pub struct Measured {
    pub value: f64,
    pub samples: Vec<f64>,
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Ops tried: timed queries, oracle comparisons, writes, recoveries.
    pub attempted: u64,
    /// Ops that returned a typed error or failed a correctness check.
    pub failed: u64,
    /// What failed, for the operator (stderr and `--out`).
    pub failures: Vec<String>,
    values: HashMap<&'static str, Measured>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        Report {
            workload,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            values: HashMap::new(),
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64) {
        self.put_samples(name, value, Vec::new());
    }

    pub fn put_samples(&mut self, name: &'static str, value: f64, samples: Vec<f64>) {
        let previous = self.values.insert(name, Measured { value, samples });
        assert!(previous.is_none(), "metric {name} emitted twice");
    }

    /// Counts one attempted op; `ok = false` records why it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failed op (the caller has counted the attempt).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 32 {
            self.failures.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The declared metrics of this run's mode as `(name, unit)`, in
    /// declaration order.
    pub fn declared(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// Every declared metric in declaration order — an error if one is
    /// missing or an undeclared one was emitted, so the output schema
    /// cannot drift from the tables above.
    pub fn ordered(&self) -> Result<Vec<(&'static str, &'static str, &Measured)>, String> {
        let declared = self.declared();
        for name in self.values.keys() {
            if !declared.iter().any(|(d, _)| d == name) {
                return Err(format!("{}: emitted undeclared metric {name}", self.workload));
            }
        }
        declared
            .into_iter()
            .map(|(name, unit)| {
                self.values
                    .get(name)
                    .map(|m| (name, unit, m))
                    .ok_or_else(|| format!("{}: metric {name} was not emitted", self.workload))
            })
            .collect()
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|m| m.value)
    }

    /// The driver's result line.
    pub fn result_line(&self) -> Result<String, String> {
        let metrics = self.ordered()?.into_iter().map(|(name, unit, m)| {
            (
                name,
                Value::object([
                    ("value", Value::Number(m.value)),
                    ("unit", Value::String(unit.into())),
                ]),
            )
        });
        Ok(Value::object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Number(self.attempted as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("metrics", Value::object(metrics)),
        ])
        .encode())
    }

    /// The fuller record `--out` writes: values with their pass samples.
    pub fn to_json(&self) -> Result<Value, String> {
        let metrics = self.ordered()?.into_iter().map(|(name, unit, m)| {
            (
                name,
                Value::object([
                    ("value", Value::Number(m.value)),
                    ("unit", Value::String(unit.into())),
                    (
                        "samples",
                        Value::Array(m.samples.iter().map(|&s| Value::Number(s)).collect()),
                    ),
                ]),
            )
        });
        Ok(Value::object([
            ("workload", Value::String(self.workload.into())),
            ("seed", Value::Number(self.seed as f64)),
            ("traced", Value::Bool(self.traced)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Number(self.attempted as f64)),
            ("failed", Value::Number(self.failed as f64)),
            (
                "failures",
                Value::Array(self.failures.iter().map(|f| Value::String(f.clone())).collect()),
            ),
            ("metrics", Value::object(metrics)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn report_rejects_missing_and_undeclared_metrics() {
        let mut r = Report::new("w", 1, false);
        for m in END_TO_END {
            r.put(m.name, 1.5);
        }
        let line = r.result_line().unwrap();
        assert!(line.starts_with(
            "{\"correct\":true,\"attempted\":0,\"failed\":0,\"metrics\":{\"setup_s\""
        ));
        let mut missing = Report::new("w", 1, false);
        missing.put("setup_s", 1.0);
        assert!(missing.result_line().is_err());
        r.put("graph.bfs.ns_per_query", 1.0);
        assert!(r.result_line().is_err());
    }
}
