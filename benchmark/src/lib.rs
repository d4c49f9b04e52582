//! The repo's benchmark: four named workloads driving the library crates
//! directly (graph → sparse → core → dynamic → serve), end-to-end metrics
//! with regression bounds, and a per-layer replay trace. See `README.md`.

pub mod churn;
pub mod clock;
pub mod compare;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod query;
pub mod setup;
pub mod smoke;
pub mod stats;
pub mod trace;
pub mod workloads;

use json::Value;
use metrics::Report;
use std::path::PathBuf;
use trace::Recorder;
use workloads::{Kind, Workload};

/// How one workload is run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Feeds the query list and the edit stream; the graph is fixed.
    pub seed: u64,
    /// How long the timed phase measures (untraced runs).
    pub seconds: f64,
    /// Traced run: per-layer metrics, spans, fixed op counts.
    pub trace: bool,
    /// Where `serve-churn` keeps its snapshot and journal; created by the
    /// caller, inside the checkout.
    pub scratch_dir: PathBuf,
}

/// Runs one workload in this process.
pub fn run_workload(w: &Workload, opts: &RunOptions) -> Result<(Report, Option<Recorder>), String> {
    match w.kind {
        Kind::Query => query::run(w, opts),
        Kind::ServeChurn => churn::run(w, opts),
    }
}

/// Where and on what a result was measured — never a metric.
pub fn manifest(seed: u64) -> Value {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Value::object([
        ("seed", Value::Number(seed as f64)),
        (
            "available_parallelism",
            Value::Number(std::thread::available_parallelism().map_or(0, |p| p.get()) as f64),
        ),
        ("build_threads", Value::Number(setup::BUILD_THREADS as f64)),
        ("cpu_model", Value::String(cpu_model)),
        ("rustc", Value::String(command("rustc", &["--version"]))),
        ("git_commit", Value::String(command("git", &["rev-parse", "HEAD"]))),
    ])
}
