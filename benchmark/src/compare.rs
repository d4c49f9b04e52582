//! `compare a.json b.json`: per-metric deltas of two result files against
//! the declared bounds.

use crate::json::Value;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::relative_iqr;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the bound, and the pass spread is inside the bound.
    Regressed,
    /// The pass spread of either side is wider than the bound, so the
    /// delta cannot be told from noise.
    Unresolved,
    /// A count that must repeat exactly differs.
    CountDrift,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::CountDrift => "COUNT-DRIFT",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    /// Relative change in the worse direction (negative = better).
    pub worse: f64,
    pub bound: f64,
    /// Larger of the two sides' pass IQR ÷ median.
    pub spread: f64,
    pub verdict: Verdict,
}

struct Side {
    value: f64,
    samples: Vec<f64>,
}

fn metric_of(run: &Value, name: &str) -> Option<Side> {
    let m = run.get("metrics")?.get(name)?;
    let samples =
        m.get("samples")?.as_array()?.iter().filter_map(Value::as_f64).collect::<Vec<f64>>();
    Some(Side { value: m.get("value")?.as_f64()?, samples })
}

fn runs(doc: &Value) -> Result<&[Value], String> {
    doc.get("runs").and_then(Value::as_array).ok_or_else(|| "result file has no \"runs\"".into())
}

fn find_run<'a>(runs: &'a [Value], workload: &str, traced: bool) -> Option<&'a Value> {
    runs.iter().find(|r| {
        r.get("workload").and_then(Value::as_str) == Some(workload)
            && r.get("traced") == Some(&Value::Bool(traced))
    })
}

/// `b` against `a` (the parent): one row per (workload, end-to-end
/// metric) both files hold, then one per exact count that differs.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let (runs_a, runs_b) = (runs(a)?, runs(b)?);
    let mut rows = Vec::new();
    for run_a in runs_a {
        let Some(workload) = run_a.get("workload").and_then(Value::as_str) else {
            continue;
        };
        let traced = run_a.get("traced") == Some(&Value::Bool(true));
        let Some(run_b) = find_run(runs_b, workload, traced) else {
            continue;
        };
        if traced {
            for m in PER_LAYER.iter().filter(|m| m.exact) {
                if let (Some(x), Some(y)) = (metric_of(run_a, m.name), metric_of(run_b, m.name)) {
                    if x.value != y.value {
                        rows.push(Row {
                            workload: workload.into(),
                            metric: m.name,
                            unit: m.unit,
                            a: x.value,
                            b: y.value,
                            worse: 0.0,
                            bound: 0.0,
                            spread: 0.0,
                            verdict: Verdict::CountDrift,
                        });
                    }
                }
            }
            continue;
        }
        for m in END_TO_END {
            let (Some(x), Some(y)) = (metric_of(run_a, m.name), metric_of(run_b, m.name)) else {
                continue;
            };
            let worse = match m.better {
                Better::Lower => (y.value - x.value) / x.value,
                Better::Higher => (x.value - y.value) / x.value,
            };
            let spread = relative_iqr(&x.samples).max(relative_iqr(&y.samples));
            let b_always_better = !x.samples.is_empty()
                && !y.samples.is_empty()
                && x.samples.iter().all(|&p| {
                    y.samples.iter().all(|&c| match m.better {
                        Better::Lower => c < p,
                        Better::Higher => c > p,
                    })
                });
            let verdict = if spread > m.bound && !b_always_better {
                Verdict::Unresolved
            } else if worse > m.bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.into(),
                metric: m.name,
                unit: m.unit,
                a: x.value,
                b: y.value,
                worse,
                bound: m.bound,
                spread,
                verdict,
            });
        }
    }
    if rows.is_empty() && !runs_a.is_empty() {
        return Err("the two files share no (workload, mode) pair".into());
    }
    Ok(rows)
}

/// The table `compare` prints, one row per line.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<15} {:<38} {:>14} {:>14} {:>8} {:>7} {:>8}  verdict\n",
        "workload", "metric", "a", "b", "worse%", "bound%", "spread%"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:<38} {:>14.4} {:>14.4} {:>8.2} {:>7.2} {:>8.2}  {}\n",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            r.a,
            r.b,
            100.0 * r.worse,
            100.0 * r.bound,
            100.0 * r.spread,
            r.verdict.name()
        ));
    }
    out
}

/// True when a row should fail the command.
pub fn fails(rows: &[Row]) -> bool {
    rows.iter().any(|r| matches!(r.verdict, Verdict::Regressed | Verdict::CountDrift))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn doc(p50: f64, samples: &str, expanded: f64) -> Value {
        parse(&format!(
            r#"{{"runs":[
              {{"workload":"w","traced":false,"metrics":{{
                 "query_p50_us":{{"value":{p50},"unit":"us","samples":{samples}}},
                 "queries_per_s":{{"value":100,"unit":"1/s","samples":[]}}}}}},
              {{"workload":"w","traced":true,"metrics":{{
                 "graph.bfs.expanded_per_query":{{"value":{expanded},"unit":"count","samples":[]}}}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = doc(100.0, "[99,100,101]", 7.0);
        let same = compare(&a, &doc(103.0, "[102,103,104]", 7.0)).unwrap();
        assert!(same.iter().all(|r| r.verdict == Verdict::Ok), "{same:?}");
        assert!(!fails(&same));

        let worse = compare(&a, &doc(130.0, "[129,130,131]", 7.0)).unwrap();
        let row = worse.iter().find(|r| r.metric == "query_p50_us").unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
        assert!((row.worse - 0.3).abs() < 1e-12);
        assert!(fails(&worse));

        let p50 = |rows: &[Row]| rows.iter().find(|r| r.metric == "query_p50_us").unwrap().verdict;
        let noisy = compare(&a, &doc(130.0, "[80,130,190]", 7.0)).unwrap();
        assert_eq!(p50(&noisy), Verdict::Unresolved);
        assert!(!fails(&noisy));

        // Wide spread, but every pass of b beats every pass of a.
        let better = compare(&a, &doc(50.0, "[30,50,80]", 7.0)).unwrap();
        assert_eq!(p50(&better), Verdict::Ok);

        let drift = compare(&a, &doc(100.0, "[99,100,101]", 8.0)).unwrap();
        assert!(drift.iter().any(|r| r.verdict == Verdict::CountDrift));
        assert!(fails(&drift) && render(&drift).contains("COUNT-DRIFT"));
    }
}
