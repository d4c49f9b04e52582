//! `kdash-benchmark`: one command for the four workloads.
//!
//! ```text
//! kdash-benchmark run --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! kdash-benchmark all [--seed N] [--seconds S] [--out FILE]
//! kdash-benchmark compare A.json B.json
//! kdash-benchmark smoke
//! kdash-benchmark inputs
//! ```
//!
//! `run` prints every metric by name with its unit on stderr and, as the
//! last line of stdout, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones). It exits non-zero when an op failed.

use kdash_benchmark::json::{parse, Value};
use kdash_benchmark::metrics::Report;
use kdash_benchmark::trace::Recorder;
use kdash_benchmark::workloads::{find, Workload, PINNED_SEED, WORKLOADS};
use kdash_benchmark::{compare, manifest, run_workload, smoke, RunOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DEFAULT_SECONDS: f64 = 15.0;

/// A scratch directory under `./.bench_scratch`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Result<Scratch, String> {
        let dir = std::env::current_dir()
            .map_err(|e| format!("current dir: {e}"))?
            .join(".bench_scratch")
            .join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once the last run has left it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = Some(value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?)
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                parsed.seconds = Some(s);
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn print_table(report: &Report) -> Result<(), String> {
    eprintln!(
        "== {} (seed {}, {}) ==",
        report.workload,
        report.seed,
        if report.traced { "traced: per-layer metrics" } else { "untraced: end-to-end metrics" }
    );
    for (name, unit, m) in report.ordered()? {
        let passes = if m.samples.is_empty() {
            String::new()
        } else {
            format!("   ({} samples)", m.samples.len())
        };
        eprintln!("  {name:<40} {:>16.4} {unit}{passes}", m.value);
    }
    eprintln!("  attempted {} failed {}", report.attempted, report.failed);
    for f in &report.failures {
        eprintln!("  FAILED: {f}");
    }
    Ok(())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn result_document(seed: u64, runs: Vec<Value>) -> Value {
    Value::object([("manifest", manifest(seed)), ("runs", Value::Array(runs))])
}

fn trace_path(out: &Path) -> PathBuf {
    out.with_extension("trace.json")
}

fn run_one(w: &Workload, args: &Args) -> Result<bool, String> {
    let scratch = Scratch::new(w.name)?;
    let seed = args.seed.unwrap_or(PINNED_SEED);
    let options = RunOptions {
        seed,
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: args.trace,
        scratch_dir: scratch.0.clone(),
    };
    let (report, spans): (Report, Option<Recorder>) = run_workload(w, &options)?;
    print_table(&report)?;
    if let Some(out) = &args.out {
        write_file(out, &result_document(seed, vec![report.to_json()?]).encode())?;
        if let Some(spans) = spans {
            let doc = Value::object([
                ("manifest", manifest(seed)),
                ("workload", Value::String(w.name.into())),
                ("spans", spans.to_json()),
            ]);
            write_file(&trace_path(out), &doc.encode())?;
        }
    }
    println!("{}", report.result_line()?);
    Ok(report.correct())
}

/// Every workload in declaration order, untraced then traced, each in a
/// fresh process (so `peak_rss_mb` is that workload's own).
fn run_all(args: &Args) -> Result<bool, String> {
    let scratch = Scratch::new("all")?;
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let seed = args.seed.unwrap_or(PINNED_SEED);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let (mut runs, mut ok) = (Vec::new(), true);
    for w in &WORKLOADS {
        for trace in ["0", "1"] {
            let out = scratch.0.join(format!("{}-{trace}.json", w.name));
            let status = std::process::Command::new(&exe)
                .args(["run", "--workload", w.name, "--trace", trace])
                .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
                .arg("--out")
                .arg(&out)
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            ok &= status.success();
            let text = std::fs::read_to_string(&out)
                .map_err(|e| format!("{} (trace {trace}) left no result: {e}", w.name))?;
            let doc = parse(&text)?;
            runs.extend(
                doc.get("runs").and_then(Value::as_array).unwrap_or_default().iter().cloned(),
            );
            if let (Some(dest), true) = (&args.out, trace == "1") {
                let dest = dest.with_extension(format!("{}.trace.json", w.name));
                std::fs::rename(trace_path(&out), &dest)
                    .map_err(|e| format!("move trace to {}: {e}", dest.display()))?;
            }
        }
    }
    if let Some(out) = &args.out {
        write_file(out, &result_document(seed, runs).encode())?;
    }
    Ok(ok)
}

fn run_compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs two result files".into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|text| parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::render(&rows));
    Ok(!compare::fails(&rows))
}

fn run_smoke() -> Result<bool, String> {
    let scratch = Scratch::new("smoke")?;
    let declared = std::fs::read_to_string("BENCHMARK.json").ok();
    let reports = smoke::smoke(&scratch.0, declared.as_deref())?;
    for report in &reports {
        print_table(report)?;
    }
    println!("smoke ok: {} runs, every declared metric emitted once, no op failed", reports.len());
    Ok(true)
}

/// Prints what every workload's inputs hash to at the pinned seed — the
/// values to put in `workloads.rs` after an intended generator change.
fn print_inputs() -> Result<bool, String> {
    for w in WORKLOADS {
        let unpinned = Workload { pins: None, ..w };
        let graph = w.graph.generate();
        let pins = unpinned.fingerprints(&graph, &unpinned.inputs(&graph, PINNED_SEED)?);
        println!(
            "{}: {} nodes, {} edges, Pins {{ graph: {:#x}, queries: {:#x}, edits: {:#x} }}",
            w.name,
            graph.num_nodes(),
            graph.num_edges(),
            pins.graph,
            pins.queries,
            pins.edits
        );
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        None => {
            Err("usage: kdash-benchmark run|all|compare|smoke|inputs (see README.md)".to_string())
        }
        Some((command, rest)) => parse_args(rest).and_then(|parsed| match command.as_str() {
            "run" => {
                let name = parsed.workload.as_deref().ok_or("run needs --workload <name>")?;
                let w = find(name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; one of {names:?}")
                })?;
                run_one(&w, &parsed)
            }
            "all" => run_all(&parsed),
            "compare" => run_compare(&parsed),
            "smoke" => run_smoke(),
            "inputs" => print_inputs(),
            other => Err(format!("unknown command {other}")),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("kdash-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
