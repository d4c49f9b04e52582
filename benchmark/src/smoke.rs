//! `smoke`: all four workloads at toy size, both modes, for schema checks.

use crate::json::{parse, Value};
use crate::metrics::{Report, END_TO_END, PER_LAYER};
use crate::workloads::toy_workloads;
use crate::{run_workload, RunOptions};
use std::path::Path;

/// Runs every toy workload untraced once and traced twice, and checks
/// that each run emits exactly its mode's declared metrics, that nothing
/// failed, and that counts marked exact repeat. With `declared` (the text
/// of `BENCHMARK.json`) it also holds the file to the tables in
/// `metrics.rs` and `workloads.rs`.
pub fn smoke(scratch_dir: &Path, declared: Option<&str>) -> Result<Vec<Report>, String> {
    if let Some(text) = declared {
        check_declaration(&parse(text)?)?;
    }
    let mut reports = Vec::new();
    for w in toy_workloads() {
        let options = |trace| RunOptions {
            seed: 42,
            seconds: 0.2,
            trace,
            scratch_dir: scratch_dir.to_path_buf(),
        };
        let (untraced, _) = run_workload(&w, &options(false))?;
        let (first, spans) = run_workload(&w, &options(true))?;
        let (second, _) = run_workload(&w, &options(true))?;
        if spans.map_or(0, |r| r.spans().len()) == 0 {
            return Err(format!("{}: traced run recorded no spans", w.name));
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            if first.value(m.name) != second.value(m.name) {
                return Err(format!(
                    "{}: exact count {} did not repeat: {:?} then {:?}",
                    w.name,
                    m.name,
                    first.value(m.name),
                    second.value(m.name)
                ));
            }
        }
        for report in [untraced, first, second] {
            report.ordered()?; // every declared metric once, nothing else
            if report.failed != 0 || report.attempted == 0 {
                return Err(format!(
                    "{}: {} of {} ops failed: {:?}",
                    w.name, report.failed, report.attempted, report.failures
                ));
            }
            reports.push(report);
        }
    }
    Ok(reports)
}

/// `BENCHMARK.json` must declare exactly the workloads and metrics the
/// program emits, with the same units, directions and bounds.
fn check_declaration(doc: &Value) -> Result<(), String> {
    let list = |key: &str| {
        doc.get(key).and_then(Value::as_array).ok_or_else(|| format!("BENCHMARK.json: no {key}"))
    };
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_string();

    let workloads: Vec<(String, String)> =
        list("workloads")?.iter().map(|w| (text(w, "name"), text(w, "why"))).collect();
    let expected: Vec<(String, String)> = crate::workloads::WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    if workloads != expected {
        return Err(format!("BENCHMARK.json workloads {workloads:?} != program's {expected:?}"));
    }

    let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")?
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(f64::NAN);
            (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
        })
        .collect();
    let expected: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.name().into(), m.bound))
        .collect();
    if end_to_end != expected {
        return Err(format!("BENCHMARK.json end_to_end {end_to_end:?} != program's {expected:?}"));
    }

    let per_layer: Vec<(String, String, String)> = list("per_layer")?
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let expected: Vec<(String, String, String)> =
        PER_LAYER.iter().map(|m| (m.name.into(), m.unit.into(), m.better.name().into())).collect();
    if per_layer != expected {
        return Err("BENCHMARK.json per_layer differs from the program's table".into());
    }
    Ok(())
}
