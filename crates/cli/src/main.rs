//! `kdash` — command-line top-k RWR search.
//!
//! ```text
//! kdash build  <edges.txt> <index.kdash> [--c 0.95] [--ordering hybrid] [--threads 1]
//!              [--drop-tol 0]
//! kdash query  <index.kdash> <node> [--k 5] [--set n1,n2,...] [--theta T]
//!              [--pruning on]
//! kdash update --index <index.kdash> --edits <edits.txt> [--out FILE] [--threads 1]
//!              [--coalesce] [--dry-run] [--journal]
//! kdash recover <index.kdash> [--journal PATH] [--out FILE]
//! kdash serve  <index.kdash> --bench [--duration 5] [--workers 0] [--mix 100:1]
//!              [--clients 2] [--k 10] [--queue 1024] [--batch 32] [--seed 42]
//!              [--journal]
//! kdash verify <index.kdash> [--journal]
//! kdash info   <index.kdash>
//! kdash gen    <profile> <edges.txt> [--nodes 2000] [--seed 42]
//! ```
//!
//! `build` runs the staged `IndexBuilder` pipeline and prints one timing
//! line per stage; `--threads 0` parallelises the inversion stage over
//! all available cores (output is bit-identical at any thread count).
//! `--drop-tol EPS` builds the *sparsified* tier: inverse entries whose
//! magnitude falls below `EPS` are dropped during the inversion solves
//! (the per-column dropped ℓ₁ masses are recorded in the index), shrinking
//! the stored `L⁻¹`/`U⁻¹` at the cost of routing every query through the
//! certified residual-refinement loop. Returned top-k sets and their
//! order are still **exact** — refinement iterates until the residual
//! norm proves the ranking — and an uncertifiable query (exact
//! proximity tie, or a gap below the floating-point floor) fails loudly
//! rather than returning a silently approximate answer. `--drop-tol 0`
//! (the default) is bit-identical to the dense-exact build.
//!
//! `query` prints the per-query work counters — the gather kernel the
//! host resolved to (AVX2 or its bit-identical portable twin; there is
//! nothing to select), the lazy-BFS `frontier_expanded`/`discovered`
//! pair — on early-terminated queries `discovered` is the
//! discovered-so-far count, not full reachability (see
//! `kdash_core::SearchStats`) — the query's proximity mass `M_q` the stop
//! rule measured against, and where in the visit order the search
//! stopped. `--pruning off` disables the early termination, so
//! pruned-vs-unpruned ablations (the paper's Figure 7) run straight from
//! the command line.
//!
//! `update` applies an edit stream to a built index **incrementally**:
//! only the `L⁻¹`/`U⁻¹` columns inside the Gilbert–Peierls reach of the
//! edited nodes are re-solved (the patched index is bit-identical to a
//! from-scratch rebuild under the same node order). The edit format is
//! one edit per line — `+ src dst w` (insert), `- src dst` (delete),
//! `= src dst w` (reweight), `#` comments — with blank lines separating
//! atomically applied batches; per-batch dirty-column/reach/re-solve
//! stats are printed and `kdash info` reports the resulting update epoch.
//! `--coalesce` merges the whole stream into **one** pass (one
//! incremental refactorisation, one reach analysis, one re-solve) —
//! bit-identical to batch-by-batch application, with the epoch still
//! advancing per batch. `--dry-run` prints the predicted dirty-W /
//! scheduled-factor / inverse-reach fractions of that coalesced pass and
//! exits without modifying or writing anything.
//!
//! `--journal` makes the update **durable before it is acknowledged**:
//! every batch is appended and fsynced to the sidecar write-ahead log
//! `<index>.journal` *before* its patch installs, so a crash at any byte
//! loses nothing that was acked. If the sidecar already holds records
//! beyond the snapshot (a previous run crashed before checkpointing),
//! the update **auto-recovers first** — replaying the journal in one
//! coalesced pass, bit-identical to the pre-crash state — then applies
//! the new edits. Saving back to the index path checkpoints: the fresh
//! snapshot lands atomically and the journal truncates to empty.
//!
//! `serve --bench` stands up the epoch-snapshot serving tier of
//! `kdash-serve` **in process** and drives it with a synthetic
//! closed-loop workload: `--clients` reader threads issue blocking
//! top-`--k` queries against the `ServeLoop` worker pool while the main
//! thread applies single-edge update batches through the `EpochWriter`,
//! paced so reads:writes approaches `--mix R:W` (`--mix 100:0` is
//! read-only). Readers always see a consistent pinned snapshot — every
//! answer is bit-identical to a standalone query on that epoch's index —
//! and the epoch swap happens off the serving path. `--journal` routes
//! the writer through a scratch write-ahead journal (fsync per batch,
//! auto-checkpoint when the journal exceeds the default record budget)
//! so the durable write path is measured instead of the in-memory one;
//! the scratch files live under the system temp dir and are removed on
//! exit. The run prints progress lines and ends with one JSON summary
//! line (throughput, latency quantiles, freshness lag, shed rate, swap
//! latency) for scripting.
//!
//! `recover` runs that replay standalone after a crash: load the last
//! good snapshot, scan the journal (tolerating a torn tail — the first
//! bad frame truncates the log, never panics), replay the surviving
//! records, and checkpoint. `verify --journal` checks the sidecar's
//! frame CRCs and epoch contiguity without loading the index at all.
//!
//! `verify` is the operational fsck: it loads the index (which already
//! validates every per-section checksum of the v5 format) and then runs
//! the deep structural audit of `kdash_core::audit` — triangularity of
//! the stored inverses, permutation bijectivity, blocked-encoding decode
//! contract, the store's derived tables and estimator coherence —
//! printing one timing line per section, every finding, and a
//! machine-readable JSON summary.
//! Exit status is non-zero when any invariant is violated.
//!
//! Edge lists are plain text (`src dst [weight]`, `#`/`%` comments) — the
//! format of the SNAP / Pajek exports the paper's datasets use. Indexes
//! are the versioned binary format of `kdash_core::persist`; every
//! index-writing path goes through `kdash_core::save_atomic` (temp file →
//! fsync → rename), so a crash mid-write can never destroy the previous
//! copy.

#![forbid(unsafe_code)]

use kdash_core::{
    save_atomic, BuildStage, IndexAudit, IndexBuilder, IndexOptions, KdashIndex,
    NodeOrdering, SolveTally,
};
use kdash_datagen::DatasetProfile;
use kdash_dynamic::{DynamicIndex, Journal, RecoveryReport, UpdateBatch};
use kdash_graph::io::read_edge_list;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("update") => cmd_update(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}' (try --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    println!(
        "kdash — exact top-k Random Walk with Restart search (VLDB 2012 reproduction)\n\
         \n\
         USAGE:\n\
         \x20 kdash build  <edges.txt> <index.kdash> [--c 0.95] [--ordering hybrid] [--threads 1]\n\
         \x20              [--drop-tol 0]\n\
         \x20 kdash query  <index.kdash> <node> [--k 5] [--set n1,n2,...] [--theta T]\n\
         \x20              [--pruning on]\n\
         \x20 kdash update --index <index.kdash> --edits <edits.txt> [--out FILE] [--threads 1]\n\
         \x20              [--coalesce] [--dry-run] [--journal]\n\
         \x20 kdash recover <index.kdash> [--journal PATH] [--out FILE]\n\
         \x20 kdash serve  <index.kdash> --bench [--duration 5] [--workers 0] [--mix 100:1]\n\
         \x20              [--clients 2] [--k 10] [--queue 1024] [--batch 32] [--seed 42]\n\
         \x20              [--journal]\n\
         \x20 kdash verify <index.kdash> [--journal]\n\
         \x20 kdash info   <index.kdash>\n\
         \x20 kdash gen    <profile> <edges.txt> [--nodes 2000] [--seed 42]\n\
         \n\
         ORDERINGS: natural random degree community (= cluster) hybrid rcm mindegree\n\
         PROFILES:  dictionary internet citation social email\n\
         THREADS:   inversion-stage workers; 0 = all cores, results identical at any count\n\
         PRUNING:   on (stop once no uncomputed node can reach the k-th best) | off (visit\n\
         \x20          every reachable node)\n\
         DROP-TOL:  inverse entries below this magnitude are dropped at build time;\n\
         \x20          queries then run certified residual refinement — top-k sets and\n\
         \x20          order stay exact, uncertifiable queries fail loudly; 0 = dense\n\
         EDITS:     one edit per line: '+ src dst w' insert, '- src dst' delete,\n\
         \x20          '= src dst w' reweight; blank lines separate atomic batches;\n\
         \x20          --coalesce merges all batches into one pass (bit-identical),\n\
         \x20          --dry-run prints the predicted footprint without mutating\n\
         JOURNAL:   update --journal fsyncs each batch to <index>.journal before its\n\
         \x20          patch installs (auto-recovering any pending records first);\n\
         \x20          recover replays a journal after a crash; verify --journal\n\
         \x20          checks frame CRCs and epoch contiguity without loading the index\n\
         SERVE:     --bench drives the kdash-serve epoch-snapshot tier in process:\n\
         \x20          --clients reader threads + one writer paced to --mix R:W;\n\
         \x20          --journal measures the durable write path against scratch\n\
         \x20          files in the temp dir; ends with one JSON summary line"
    );
}

/// Pulls `--flag value` out of an argument list; remaining positionals are
/// returned in order. Flags named in `bools` are presence-only switches —
/// they consume no value and report `"true"`.
fn parse_flags<'a>(
    args: &'a [String],
    bools: &[&str],
) -> Result<(Vec<&'a str>, Vec<(&'a str, &'a str)>), String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if bools.contains(&name) {
                flags.push((name, "true"));
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{name} expects a value"))?;
                flags.push((name, value.as_str()));
                i += 2;
            }
        } else {
            positional.push(args[i].as_str());
            i += 1;
        }
    }
    Ok((positional, flags))
}

fn flag<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// Rejects flags the command does not know. A misspelled `--threds 8`
/// must fail loudly, not silently fall back to the default.
fn reject_unknown_flags(flags: &[(&str, &str)], allowed: &[&str]) -> Result<(), String> {
    for (name, _) in flags {
        if !allowed.contains(name) {
            return Err(if allowed.is_empty() {
                format!("unknown flag --{name} (this command takes no flags)")
            } else {
                format!(
                    "unknown flag --{name} (allowed: {})",
                    allowed.iter().map(|f| format!("--{f}")).collect::<Vec<_>>().join(" ")
                )
            });
        }
    }
    Ok(())
}

fn parse_ordering(text: &str) -> Result<NodeOrdering, String> {
    Ok(match text {
        "natural" => NodeOrdering::Natural,
        "random" => NodeOrdering::Random { seed: 42 },
        "degree" => NodeOrdering::Degree,
        // "community" spells out what backs the paper's cluster ordering:
        // Louvain partitions from kdash-community.
        "cluster" | "community" => NodeOrdering::Cluster,
        "hybrid" => NodeOrdering::Hybrid,
        "rcm" => NodeOrdering::ReverseCuthillMcKee,
        "mindegree" => NodeOrdering::MinDegree,
        other => return Err(format!("unknown ordering '{other}'")),
    })
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args, &[])?;
    reject_unknown_flags(&flags, &["c", "ordering", "threads", "drop-tol"])?;
    let [edges_path, index_path] = pos.as_slice() else {
        return Err("usage: kdash build <edges.txt> <index.kdash> [--c 0.95] [--ordering hybrid] \
                    [--threads 1] [--drop-tol 0]"
            .into());
    };
    let c: f64 = flag(&flags, "c").unwrap_or("0.95").parse().map_err(|_| "invalid --c")?;
    let ordering = parse_ordering(flag(&flags, "ordering").unwrap_or("hybrid"))?;
    let threads: usize =
        flag(&flags, "threads").unwrap_or("1").parse().map_err(|_| "invalid --threads")?;
    let drop_tolerance: f64 =
        flag(&flags, "drop-tol").unwrap_or("0").parse().map_err(|_| "invalid --drop-tol")?;

    let file = File::open(edges_path).map_err(|e| format!("open {edges_path}: {e}"))?;
    let graph = read_edge_list(BufReader::new(file)).map_err(|e| e.to_string())?;
    println!("loaded {} nodes, {} edges", graph.num_nodes(), graph.num_edges());

    let builder = IndexBuilder::from_options(IndexOptions {
        ordering,
        restart_probability: c,
        drop_tolerance,
        ..Default::default()
    })
    .threads(threads);
    let (index, report) = builder.build_with_report(&graph).map_err(|e| e.to_string())?;

    for timing in &report.stages {
        let extra = match timing.stage {
            BuildStage::Ordering => match (report.ordering.communities, report.ordering.border_nodes)
            {
                (Some(communities), Some(border)) => {
                    format!("  ({communities} communities, {border} border nodes)")
                }
                _ => String::new(),
            },
            BuildStage::Factorization => format!("  ({})", tail_note(&report.factorization_solves)),
            BuildStage::Inversion => format!(
                "  ({} workers; L⁻¹ {}; U⁻¹ {})",
                report.inversion_threads,
                tail_note(&report.linv_solves),
                tail_note(&report.uinv_solves)
            ),
            _ => String::new(),
        };
        println!("stage {:<14} {:>12.2?}{extra}", timing.stage.name(), timing.duration);
    }
    println!(
        "built index in {:.2?} ({} ordering, inverse nnz/m = {:.1}, U⁻¹ index {:.2} B/nnz)",
        report.total(),
        ordering.name(),
        index.stats().inverse_nnz_ratio(),
        index.stats().uinv_index_bytes as f64 / index.stats().nnz_u_inv.max(1) as f64,
    );
    if index.is_sparsified() {
        println!(
            "sparsified tier: drop tolerance {:e}, dropped l1 mass {:.3e} — queries run \
             certified residual refinement{}",
            index.drop_tolerance(),
            index.dropped_mass(),
            if index.needs_refinement() { "" } else { " (nothing dropped: classic path)" },
        );
    }

    save_atomic(&index, index_path).map_err(|e| format!("write {index_path}: {e}"))?;
    println!("wrote {index_path}");
    Ok(())
}

fn load_index(path: &str) -> Result<KdashIndex, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    KdashIndex::load(BufReader::new(file)).map_err(|e| e.to_string())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args, &[])?;
    reject_unknown_flags(&flags, &["k", "set", "theta", "pruning"])?;
    let [index_path, node_text] = pos.as_slice() else {
        return Err("usage: kdash query <index.kdash> <node> [--k 5] [--set n1,n2,...] [--theta T] \
                    [--pruning on]"
            .into());
    };
    let q: u32 = node_text.parse().map_err(|_| "invalid node id")?;
    let k: usize = flag(&flags, "k").unwrap_or("5").parse().map_err(|_| "invalid --k")?;
    let pruning = match flag(&flags, "pruning").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => return Err(format!("invalid --pruning '{other}' (expected on or off)")),
    };
    let index = load_index(index_path)?;
    let mut searcher = index.searcher();

    let t = Instant::now();
    let result = if let Some(theta_text) = flag(&flags, "theta") {
        if !pruning {
            return Err("--pruning off applies to top-k queries, not --theta".into());
        }
        let theta: f64 = theta_text.parse().map_err(|_| "invalid --theta")?;
        searcher.nodes_above(q, theta).map_err(|e| e.to_string())?
    } else if let Some(set_text) = flag(&flags, "set") {
        if !pruning {
            return Err("--pruning off applies to single-source top-k, not --set".into());
        }
        let mut sources: Vec<u32> = vec![q];
        for tok in set_text.split(',').filter(|s| !s.is_empty()) {
            sources.push(tok.parse().map_err(|_| format!("invalid set member '{tok}'"))?);
        }
        searcher.top_k_from_set(&sources, k).map_err(|e| e.to_string())?
    } else if pruning {
        searcher.top_k(q, k).map_err(|e| e.to_string())?
    } else {
        kdash_core::paper::top_k_unpruned(&mut searcher, q, k).map_err(|e| e.to_string())?
    };
    let elapsed = t.elapsed();

    for (rank, item) in result.items.iter().enumerate() {
        println!("{:<4} node {:<10} proximity {:.6e}", rank + 1, item.node, item.proximity);
    }
    let s = &result.stats;
    // `reachable` is the *discovered* count: exact reachability when the
    // search ran to completion (always, on a sparsified index), a lower
    // bound after early termination (the lazy frontier never enumerates
    // the layers pruned away). `frontier_expanded` is what the query
    // scanned: on a sparsified index, often only the few nodes beside the
    // reach anchor's stored closure. An early stop comes at the visit
    // position of the first node left uncomputed.
    let stop = if s.terminated_early {
        format!("stopped at position {} of {} discovered", s.proximity_computations, s.reachable)
    } else {
        "exhausted".to_string()
    };
    println!(
        "-- {:?}; kernel {}; visited {}, computed {}, frontier expanded {}/{} discovered, \
         early-termination {}; M_q {:.9}, {stop}",
        elapsed,
        searcher.kernel().name(),
        s.visited,
        s.proximity_computations,
        s.frontier_expanded,
        s.reachable,
        s.terminated_early,
        s.query_mass,
    );
    // The gather's observability line: what the kernel resolved to on
    // this host, how many candidate rows it ran, and what they streamed
    // (value bytes per the fixed accounting model — machine-independent).
    println!(
        "-- gather: kernel resolved {}; rows scalar {}, rows wide {}; index bytes {}, value \
         bytes {} (model)",
        if s.kernel.is_empty() { "n/a" } else { s.kernel },
        s.rows_scalar,
        s.rows_wide,
        s.bytes_touched,
        s.value_bytes_touched,
    );
    // Sparsified-tier observability: how many certified-refinement steps
    // (Gauss–Seidel sweeps and corrections alike) the query needed after
    // its first and the nonzeros every step streamed (residual pushes +
    // correction scatter/gather). A query whose first step was a sweep
    // gathered no row, so the gather line above reads `n/a`. Dense-exact
    // indexes skip the loop entirely, so the line would always read 0/0 —
    // omit it.
    if index.needs_refinement() {
        println!(
            "-- refinement: {} iteration(s), {} streamed nnz (sparsified tier, drop tolerance \
             {:e})",
            s.refinement_iterations,
            s.refinement_nnz,
            index.drop_tolerance(),
        );
    }
    Ok(())
}

/// One human-readable line per interesting fact about a journal replay,
/// shared by `update --journal` (auto-recovery) and `kdash recover`.
fn print_recovery(report: &RecoveryReport) {
    println!(
        "recovered epoch {} -> {}: replayed {} batch(es) ({} edits) in {:.2?}, skipped {} \
         already-checkpointed record(s)",
        report.snapshot_epoch,
        report.final_epoch,
        report.replayed_batches,
        report.replayed_edits,
        report.replay_time,
        report.skipped_records,
    );
    if report.header_repaired {
        println!("journal header was torn — repaired in place");
    }
    if let Some(torn) = &report.torn_tail {
        println!("torn tail truncated (mid-append crash): {torn}");
    }
}

fn cmd_update(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args, &["coalesce", "dry-run", "journal"])?;
    reject_unknown_flags(
        &flags,
        &["index", "edits", "out", "threads", "coalesce", "dry-run", "journal"],
    )?;
    if !pos.is_empty() {
        return Err(format!("unexpected positional argument '{}'", pos[0]));
    }
    let usage = "usage: kdash update --index <index.kdash> --edits <edits.txt> [--out FILE] \
                 [--threads 1] [--coalesce] [--dry-run] [--journal]";
    let index_path = flag(&flags, "index").ok_or(usage)?;
    let edits_path = flag(&flags, "edits").ok_or(usage)?;
    let out_path = flag(&flags, "out").unwrap_or(index_path);
    let threads: usize =
        flag(&flags, "threads").unwrap_or("1").parse().map_err(|_| "invalid --threads")?;
    let coalesce = flag(&flags, "coalesce").is_some();
    let dry_run = flag(&flags, "dry-run").is_some();
    let journaled = flag(&flags, "journal").is_some();
    let journal_path = Journal::sidecar_path(index_path);

    let index = load_index(index_path)?;
    println!(
        "loaded index: {} nodes, {} edges, update epoch {}",
        index.num_nodes(),
        index.stats().num_edges,
        index.update_epoch()
    );
    let snapshot_epoch = index.update_epoch();
    let text = std::fs::read_to_string(edits_path).map_err(|e| format!("read {edits_path}: {e}"))?;
    let batches = UpdateBatch::parse_stream(&text).map_err(|e| e.to_string())?;
    if batches.is_empty() {
        return Err(format!("{edits_path} contains no edits"));
    }

    let t_attach = Instant::now();
    let mut dynamic = if journaled && !dry_run {
        // Journaled path: an existing sidecar may hold acknowledged
        // batches a crash kept out of the snapshot — replay them before
        // touching the new edit stream, so the engine starts from the
        // exact pre-crash state.
        if journal_path.exists() {
            let (engine, report) = DynamicIndex::recover(index, &journal_path)
                .map_err(|e| format!("recover {}: {e}", journal_path.display()))?;
            if report.replayed_batches > 0 || report.torn_tail.is_some() || report.header_repaired
            {
                print_recovery(&report);
            }
            engine
        } else {
            let journal = Journal::create(&journal_path, snapshot_epoch)
                .map_err(|e| format!("create {}: {e}", journal_path.display()))?;
            println!("journaling to {} (checkpoint epoch {})", journal_path.display(), snapshot_epoch);
            DynamicIndex::new(index)
                .map_err(|e| e.to_string())?
                .journaled(journal)
                .map_err(|e| e.to_string())?
        }
    } else {
        DynamicIndex::new(index).map_err(|e| e.to_string())?
    }
    .threads(threads);
    println!("attached update engine (factorization) in {:.2?}", t_attach.elapsed());

    if dry_run {
        // A dry run must not write — not even journal frames — but a
        // pending journal silently changes what a real run would do, so
        // say so.
        if journaled && journal_path.exists() {
            if let Ok(scan) = Journal::scan_path(&journal_path) {
                if scan.tail_epoch() > snapshot_epoch {
                    println!(
                        "note: {} holds records up to epoch {} (snapshot is at {}) — a real \
                         --journal run replays them before applying these edits",
                        journal_path.display(),
                        scan.tail_epoch(),
                        snapshot_epoch,
                    );
                }
            }
        }
        // Predict the footprint of the whole stream as one coalesced
        // pass — no mutation, no save.
        let p = dynamic.predict(&batches).map_err(|e| e.to_string())?;
        println!(
            "dry run: {} edits in {} batch(es) -> dirty W cols {} ({:.2}%), scheduled factor \
             cols {} ({:.2}%), predicted reach L⁻¹/U⁻¹ cols {}/{} ({:.2}%/{:.2}%)",
            p.edits,
            p.batches,
            p.dirty_w_columns,
            100.0 * p.w_fraction(),
            p.candidate_factor_columns,
            100.0 * p.factor_fraction(),
            p.predicted_linv_columns,
            p.predicted_uinv_columns,
            100.0 * p.linv_fraction(),
            100.0 * p.uinv_fraction(),
        );
        println!("dry run: index not modified, nothing written");
        return Ok(());
    }

    let reports = if coalesce {
        let report = dynamic.apply_coalesced(&batches).map_err(|e| e.to_string())?;
        println!("coalesced {} batch(es) into one pass", report.batches);
        vec![report]
    } else {
        let mut reports = Vec::with_capacity(batches.len());
        for (i, batch) in batches.iter().enumerate() {
            reports.push(dynamic.apply(batch).map_err(|e| format!("batch {}: {e}", i + 1))?);
        }
        reports
    };
    for (i, report) in reports.iter().enumerate() {
        let n = report.num_columns.max(1);
        println!(
            "batch {:<3} {} edits -> dirty W cols {}, recomputed factor cols {}, dirty L/U \
             cols {}/{}, reach L⁻¹/U⁻¹ cols {}/{} ({:.2}%/{:.2}%), re-encoded U⁻¹ rows {}, \
             re-solved nnz {}",
            i + 1,
            report.edits,
            report.dirty_w_columns,
            report.dirty_factor_columns_recomputed,
            report.dirty_l_columns,
            report.dirty_u_columns,
            report.dirty_linv_columns,
            report.dirty_uinv_columns,
            100.0 * report.dirty_linv_columns as f64 / n as f64,
            100.0 * report.dirty_uinv_columns as f64 / n as f64,
            report.dirty_uinv_rows,
            report.resolved_nnz,
        );
        println!(
            "          {:.2?} total: graph {:.2?} | factorize {:.2?} (refactor {:.2?}, splice \
             {:.2?}) | reach {:.2?} | re-solve {:.2?} | splice {:.2?} | estimator {:.2?}",
            report.total_time(),
            report.graph_time,
            report.factorization_time,
            report.refactor_time,
            report.factor_splice_time,
            report.reach_time,
            report.resolve_time,
            report.splice_time,
            report.estimator_time,
        );
    }

    // --out defaults to the input path: truncating the only copy of a
    // multi-minute build before the new bytes are safely down would lose
    // the index on a failed save, so the write must be atomic + durable.
    if journaled && out_path == index_path {
        // Checkpoint: fresh snapshot down atomically, then the journal
        // truncates — its records are folded in and no longer needed.
        dynamic.checkpoint(out_path).map_err(|e| format!("checkpoint {out_path}: {e}"))?;
        let index = dynamic.into_index();
        println!(
            "wrote {out_path} ({} edges, update epoch {}); journal truncated at checkpoint",
            index.stats().num_edges,
            index.update_epoch()
        );
    } else {
        let index = dynamic.into_index();
        save_atomic(&index, out_path).map_err(|e| format!("write {out_path}: {e}"))?;
        println!(
            "wrote {out_path} ({} edges, update epoch {})",
            index.stats().num_edges,
            index.update_epoch()
        );
        if journaled {
            // Saving elsewhere is not a checkpoint: the sidecar's
            // records are what still protects the *original* index.
            println!(
                "note: {} left intact — its records still protect {}",
                journal_path.display(),
                index_path
            );
        }
    }
    Ok(())
}

fn cmd_recover(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args, &[])?;
    reject_unknown_flags(&flags, &["journal", "out"])?;
    let [index_path] = pos.as_slice() else {
        return Err("usage: kdash recover <index.kdash> [--journal PATH] [--out FILE]".into());
    };
    let journal_path =
        flag(&flags, "journal").map(PathBuf::from).unwrap_or_else(|| Journal::sidecar_path(index_path));
    let out_path = flag(&flags, "out").unwrap_or(index_path);

    let index = load_index(index_path)?;
    println!(
        "loaded snapshot {index_path}: {} nodes, {} edges, update epoch {}",
        index.num_nodes(),
        index.stats().num_edges,
        index.update_epoch()
    );
    let (mut dynamic, report) = DynamicIndex::recover(index, &journal_path)
        .map_err(|e| format!("recover {}: {e}", journal_path.display()))?;
    print_recovery(&report);

    if out_path == *index_path {
        dynamic.checkpoint(out_path).map_err(|e| format!("checkpoint {out_path}: {e}"))?;
        println!(
            "wrote {out_path} (update epoch {}); journal truncated at checkpoint",
            dynamic.index().update_epoch()
        );
    } else {
        save_atomic(dynamic.index(), out_path).map_err(|e| format!("write {out_path}: {e}"))?;
        println!(
            "wrote {out_path} (update epoch {}); {} left intact — its records still protect \
             {index_path}",
            dynamic.index().update_epoch(),
            journal_path.display(),
        );
    }
    Ok(())
}

/// SplitMix64 — a tiny deterministic generator for the synthetic serve
/// workload. Statistical quality is irrelevant here; reproducibility
/// from `--seed` is the point.
struct WorkloadRng(u64);

impl WorkloadRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Picks the next synthetic edit: inserts fresh random edges (checked
/// against the *current* permuted graph so a duplicate insert can never
/// be generated) and deletes from the pool of edges this run inserted —
/// so the driver never deletes an edge the loaded dataset owns and the
/// graph stays within a bounded distance of the original.
fn next_synthetic_edit(
    rng: &mut WorkloadRng,
    nodes: u64,
    inserted: &mut Vec<(u32, u32)>,
    index: &KdashIndex,
) -> Option<kdash_graph::EdgeEdit> {
    use kdash_graph::EdgeEdit;
    if !inserted.is_empty() && (inserted.len() >= 64 || rng.next() & 1 == 0) {
        let at = rng.below(inserted.len() as u64) as usize;
        let (src, dst) = inserted.swap_remove(at);
        return Some(EdgeEdit::Delete { src, dst });
    }
    let perm = index.permutation();
    let graph = index.permuted_graph();
    for _ in 0..64 {
        let src = rng.below(nodes) as u32;
        let dst = rng.below(nodes) as u32;
        if src == dst || graph.has_edge(perm.new_of(src), perm.new_of(dst)) {
            continue;
        }
        inserted.push((src, dst));
        return Some(EdgeEdit::Insert { src, dst, weight: 1.0 });
    }
    None
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use kdash_serve::{EpochWriter, ServeError, ServeLoop, ServeOptions};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let (pos, flags) = parse_flags(args, &["bench", "journal"])?;
    reject_unknown_flags(
        &flags,
        &["bench", "journal", "duration", "workers", "mix", "clients", "k", "queue", "batch",
          "seed"],
    )?;
    let [index_path] = pos.as_slice() else {
        return Err(
            "usage: kdash serve <index.kdash> --bench [--duration 5] [--workers 0] \
             [--mix 100:1] [--clients 2] [--k 10] [--queue 1024] [--batch 32] [--seed 42] \
             [--journal]"
                .into(),
        );
    };
    if flag(&flags, "bench").is_none() {
        return Err(
            "kdash serve currently ships the in-process --bench driver only (no network \
             listener); add --bench"
                .into(),
        );
    }
    let duration: f64 = flag(&flags, "duration")
        .unwrap_or("5")
        .parse()
        .map_err(|e| format!("bad --duration: {e}"))?;
    if !(duration > 0.0) {
        return Err("--duration must be positive".into());
    }
    let workers: usize =
        flag(&flags, "workers").unwrap_or("0").parse().map_err(|e| format!("bad --workers: {e}"))?;
    let clients: usize =
        flag(&flags, "clients").unwrap_or("2").parse().map_err(|e| format!("bad --clients: {e}"))?;
    if clients == 0 {
        return Err("--clients must be at least 1".into());
    }
    let k: usize = flag(&flags, "k").unwrap_or("10").parse().map_err(|e| format!("bad --k: {e}"))?;
    let queue: usize =
        flag(&flags, "queue").unwrap_or("1024").parse().map_err(|e| format!("bad --queue: {e}"))?;
    let batch: usize =
        flag(&flags, "batch").unwrap_or("32").parse().map_err(|e| format!("bad --batch: {e}"))?;
    let seed: u64 =
        flag(&flags, "seed").unwrap_or("42").parse().map_err(|e| format!("bad --seed: {e}"))?;
    let mix = flag(&flags, "mix").unwrap_or("100:1");
    let (mix_r, mix_w) = mix
        .split_once(':')
        .and_then(|(r, w)| Some((r.parse::<u64>().ok()?, w.parse::<u64>().ok()?)))
        .ok_or_else(|| format!("bad --mix '{mix}' (expected READS:WRITES, e.g. 100:1)"))?;
    if mix_r == 0 {
        return Err("--mix needs a non-zero read share (writes are paced off reads)".into());
    }
    let journaled = flag(&flags, "journal").is_some();

    let index = load_index(index_path)?;
    let nodes = index.num_nodes() as u64;
    if nodes == 0 {
        return Err("index holds an empty graph; nothing to serve".into());
    }
    // Reads are drawn from the nodes with at least one out-edge in the
    // served graph. A sink's walk never leaves it — its query is the
    // trivial one-node answer — and on skewed graphs sinks are the
    // majority (≈ 55 % of RMAT nodes), so a uniform draw would report the
    // no-walk case as the p50. (The writer only deletes edges it inserted,
    // so a source never turns into a sink mid-run.)
    let read_pool: Vec<u32> = (0..nodes as u32)
        .filter(|&v| index.permuted_graph().out_degree(index.permutation().new_of(v)) > 0)
        .collect();
    if read_pool.is_empty() {
        return Err("every node of the served graph is a sink; nothing to walk".into());
    }
    let sink_share = 1.0 - read_pool.len() as f64 / nodes as f64;
    println!(
        "serving {index_path}: {} nodes, {} edges, update epoch {}; reads drawn from the {} \
         nodes with out-edges ({:.1}% sinks excluded)",
        index.num_nodes(),
        index.stats().num_edges,
        index.update_epoch(),
        read_pool.len(),
        sink_share * 100.0,
    );

    let mut engine = DynamicIndex::new(index).map_err(|e| format!("attach engine: {e}"))?;
    // Journaled mode writes to scratch files: overwriting the *user's*
    // snapshot from a benchmark (auto-checkpoint rewrites the index
    // path) would be a hostile default.
    let mut scratch: Option<PathBuf> = None;
    if journaled {
        let dir = std::env::temp_dir().join(format!("kdash-serve-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let snapshot = dir.join("serve-bench.kdash");
        save_atomic(engine.index(), &snapshot)
            .map_err(|e| format!("write scratch snapshot {}: {e}", snapshot.display()))?;
        let journal_path = Journal::sidecar_path(&snapshot);
        let journal = Journal::create(&journal_path, engine.index().update_epoch())
            .map_err(|e| format!("create scratch journal {}: {e}", journal_path.display()))?;
        engine = engine
            .journaled(journal)
            .map_err(|e| format!("attach journal: {e}"))?
            .auto_checkpoint(&snapshot, kdash_dynamic::AUTO_CHECKPOINT_DEFAULT_RECORDS);
        println!(
            "journaled write path: fsync per batch to {}, auto-checkpoint past {} records",
            journal_path.display(),
            kdash_dynamic::AUTO_CHECKPOINT_DEFAULT_RECORDS,
        );
        scratch = Some(dir);
    }

    let (mut writer, store) = EpochWriter::new(engine);
    let serve_loop = ServeLoop::start(
        Arc::clone(&store),
        ServeOptions { workers, queue_capacity: queue, max_batch: batch, ..Default::default() },
    )
    .map_err(|e| format!("start serve loop: {e}"))?;
    writer.attach_metrics(serve_loop.metrics());
    println!(
        "serve loop up: {} workers, queue capacity {}, max batch {batch}, mix {mix_r}:{mix_w}, \
         {clients} reader clients, {duration}s",
        serve_loop.workers(),
        serve_loop.queue_capacity(),
    );

    let reads_done = AtomicU64::new(0);
    let read_failures = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut writes_acked = 0u64;
    let mut writes_failed = 0u64;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(duration);

    std::thread::scope(|scope| -> Result<(), String> {
        let serve_ref = &serve_loop;
        let reads_ref = &reads_done;
        let fail_ref = &read_failures;
        let stop_ref = &stop;
        let pool_ref = &read_pool;
        for c in 0..clients {
            let mut rng = WorkloadRng(seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            scope.spawn(move || {
                while !stop_ref.load(Ordering::Acquire) {
                    let query = pool_ref[rng.below(pool_ref.len() as u64) as usize];
                    match serve_ref.query_blocking(query, k) {
                        Ok(_) => {
                            reads_ref.fetch_add(1, Ordering::Relaxed);
                        }
                        // Closed-loop clients back off on shed and retry;
                        // the shed itself is already counted in metrics.
                        Err(ServeError::Overloaded { .. }) => std::thread::yield_now(),
                        Err(_) => {
                            fail_ref.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }

        // The writer runs on this thread: applies are paced so the
        // attempted-write count tracks reads * W/R, each apply prepares
        // epoch N+1 off the serving path and swaps it in.
        let mut rng = WorkloadRng(seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1));
        let mut inserted: Vec<(u32, u32)> = Vec::new();
        while Instant::now() < deadline {
            let reads = reads_done.load(Ordering::Relaxed);
            let attempted = writes_acked + writes_failed;
            if mix_w == 0 || attempted * mix_r > reads * mix_w {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            let Some(edit) = next_synthetic_edit(&mut rng, nodes, &mut inserted, writer.engine().index())
            else {
                writes_failed += 1;
                continue;
            };
            let batch = UpdateBatch::new(vec![edit]).map_err(|e| format!("build batch: {e}"))?;
            match writer.apply(&batch) {
                Ok(_) => writes_acked += 1,
                Err(_) => writes_failed += 1,
            }
        }
        stop.store(true, Ordering::Release);
        Ok(())
    })?;

    let elapsed = started.elapsed().as_secs_f64();
    let final_epoch = store.epoch();
    let final_lag = store.freshness_lag();
    let workers_started = serve_loop.workers();
    let metrics = serve_loop.metrics();
    serve_loop.shutdown();

    let reads = reads_done.load(Ordering::Relaxed);
    let failures = read_failures.load(Ordering::Relaxed);
    let m = metrics.snapshot();
    println!(
        "served {reads} reads in {elapsed:.2}s ({:.0}/s), {writes_acked} writes acked \
         ({writes_failed} generator misses), final epoch {final_epoch}, freshness lag {final_lag}",
        reads as f64 / elapsed,
    );
    println!(
        "latency p50 {:.3}ms p99 {:.3}ms p999 {:.3}ms max {:.3}ms, mean batch {:.2}, \
         {} swaps (p50 {:.3}ms max {:.3}ms), shed {} ({:.2}%)",
        m.latency_p50_ms,
        m.latency_p99_ms,
        m.latency_p999_ms,
        m.latency_max_ms,
        m.mean_batch,
        m.swaps,
        m.swap_p50_ms,
        m.swap_max_ms,
        m.shed,
        m.shed_rate() * 100.0,
    );
    println!(
        r#"{{"serve_bench":"{}","nodes":{},"sink_share_excluded":{:.4},"duration_s":{:.3},"workers":{},"clients":{},"mix":"{}:{}","queue":{},"max_batch":{},"journaled":{},"reads":{},"read_failures":{},"read_throughput_per_s":{:.1},"writes_acked":{},"latency_p50_ms":{:.4},"latency_p99_ms":{:.4},"latency_p999_ms":{:.4},"latency_max_ms":{:.4},"mean_batch":{:.2},"freshness_lag_p50":{},"freshness_lag_max":{},"swaps":{},"swap_p50_ms":{:.4},"swap_max_ms":{:.4},"shed":{},"shed_rate":{:.6},"final_epoch":{}}}"#,
        index_path,
        nodes,
        sink_share,
        elapsed,
        workers_started,
        clients,
        mix_r,
        mix_w,
        queue,
        batch,
        journaled,
        reads,
        failures,
        reads as f64 / elapsed,
        writes_acked,
        m.latency_p50_ms,
        m.latency_p99_ms,
        m.latency_p999_ms,
        m.latency_max_ms,
        m.mean_batch,
        m.freshness_lag_p50,
        m.freshness_lag_max,
        m.swaps,
        m.swap_p50_ms,
        m.swap_max_ms,
        m.shed,
        m.shed_rate(),
        final_epoch,
    );

    if let Some(dir) = scratch {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args, &["journal"])?;
    reject_unknown_flags(&flags, &["journal"])?;
    let [index_path] = pos.as_slice() else {
        return Err("usage: kdash verify <index.kdash> [--journal]".into());
    };
    if flag(&flags, "journal").is_some() {
        return verify_journal(index_path);
    }

    // Stage 1 — load. The loader verifies every per-section CRC32 and
    // the whole-file footer while parsing, plus all structural
    // cross-checks; any damage surfaces here as a typed PersistError
    // naming the section and byte offset.
    let t = Instant::now();
    let file = File::open(index_path).map_err(|e| format!("open {index_path}: {e}"))?;
    let (index, info) =
        KdashIndex::load_with_info(BufReader::new(file)).map_err(|e| e.to_string())?;
    println!(
        "loaded {index_path} in {:.2?}: format v{}, checksums verified ({} nodes, {} edges, \
         update epoch {})",
        t.elapsed(),
        info.version,
        index.num_nodes(),
        index.stats().num_edges,
        index.update_epoch(),
    );

    // Stage 2 — deep structural audit.
    let audit = IndexAudit::run(&index);
    for section in &audit.sections {
        let findings = audit.findings.iter().filter(|f| f.section == section.name).count();
        println!(
            "section {:<12} {:>8} checks {:>12.2?}  {}",
            section.name,
            section.checks,
            section.duration,
            if findings == 0 { "ok".to_string() } else { format!("{findings} FINDING(S)") },
        );
    }
    for finding in &audit.findings {
        println!("FINDING [{}] {}", finding.section, finding.detail);
    }

    // Machine-readable summary (one line, stable keys) for scripting.
    let sections_json: Vec<String> = audit
        .sections
        .iter()
        .map(|s| {
            format!(
                r#"{{"name":"{}","checks":{},"micros":{}}}"#,
                s.name,
                s.checks,
                s.duration.as_micros()
            )
        })
        .collect();
    println!(
        r#"{{"index":{},"version":{},"clean":{},"findings":{},"sections":[{}]}}"#,
        json_string(index_path),
        info.version,
        audit.is_clean(),
        audit.findings.len(),
        sections_json.join(","),
    );

    if audit.is_clean() {
        println!("verify: clean");
        Ok(())
    } else {
        Err(format!("index audit failed with {} finding(s)", audit.findings.len()))
    }
}

/// `s` as a JSON string literal, quotes included: `"` and `\` escaped,
/// and every control character as `\uXXXX`.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `kdash verify --journal` — check the sidecar write-ahead log without
/// loading (or even having) the index: header + frame CRCs, payload
/// decode, and epoch contiguity, exactly the scan recovery would run.
fn verify_journal(index_path: &str) -> Result<(), String> {
    let path = Journal::sidecar_path(index_path);
    let t = Instant::now();
    let scan = Journal::scan_path(&path).map_err(|e| e.to_string())?;
    println!(
        "scanned {} in {:.2?}: {} of {} bytes intact",
        path.display(),
        t.elapsed(),
        scan.good_bytes,
        scan.file_bytes,
    );
    match scan.checkpoint_epoch {
        Some(epoch) => println!("header ok, checkpoint epoch {epoch}"),
        None => println!("header TORN (checkpoint epoch unreadable)"),
    }
    match (scan.first_epoch, scan.last_epoch) {
        (Some(first), Some(last)) => println!(
            "{} intact record(s), {} edits, epochs {first}..={last} (contiguous)",
            scan.records, scan.edits,
        ),
        _ => println!("no intact records (journal is empty)"),
    }
    if let Some(torn) = &scan.torn {
        println!(
            "TORN at byte {}: {} — recovery replays the {} record(s) before this point and \
             truncates the rest",
            torn.offset, torn.detail, scan.records,
        );
    }
    // Machine-readable summary (one line, stable keys) for scripting.
    println!(
        r#"{{"journal":"{}","header_ok":{},"checkpoint_epoch":{},"records":{},"edits":{},"tail_epoch":{},"good_bytes":{},"file_bytes":{},"torn":{}}}"#,
        path.display(),
        scan.header_ok,
        scan.checkpoint_epoch.map_or("null".to_string(), |e| e.to_string()),
        scan.records,
        scan.edits,
        scan.tail_epoch(),
        scan.good_bytes,
        scan.file_bytes,
        scan.torn.is_some(),
    );
    if scan.header_ok && scan.torn.is_none() {
        println!("verify: clean");
        Ok(())
    } else {
        Err(format!(
            "journal damaged ({}) — recovery still succeeds with the intact prefix, but the \
             bytes past offset {} are lost",
            if scan.header_ok { "torn tail" } else { "torn header" },
            scan.good_bytes,
        ))
    }
}

/// How a stage's column solves split between the sparse head and the
/// dense tail, for a `kdash build` stage line.
fn tail_note(solves: &SolveTally) -> String {
    format!(
        "tail {} columns, {:.1} % of {:.1} M multiply-subtracts",
        solves.tail_columns,
        100.0 * solves.tail_share(),
        solves.multiply_subtracts as f64 / 1e6
    )
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args, &[])?;
    reject_unknown_flags(&flags, &[])?;
    let [index_path] = pos.as_slice() else {
        return Err("usage: kdash info <index.kdash>".into());
    };
    let index = load_index(index_path)?;
    let s = index.stats();
    println!("nodes              {}", s.num_nodes);
    println!("edges              {}", s.num_edges);
    println!("restart prob. c    {}", index.restart_probability());
    println!("ordering           {}", index.ordering().name());
    println!("update epoch       {}", index.update_epoch());
    println!("nnz(L⁻¹)           {}", s.nnz_l_inv);
    println!("nnz(U⁻¹)           {}", s.nnz_u_inv);
    println!("inverse nnz / m    {:.2}", s.inverse_nnz_ratio());
    println!("inverse heap bytes {}", s.inverse_heap_bytes);
    // The factors are not stored; the half-full trailing columns of L⁻¹
    // contain those of L, which a rebuild would solve as its dense tail.
    println!(
        "dense tail         {} trailing columns of L⁻¹ at least half full (bounds the factor's; \
         'kdash build' prints what ran in it)",
        index.linv_dense_tail_columns()
    );
    println!(
        "U⁻¹ index bytes    {} ({:.2} B/nnz; flat CSR would be 4.00)",
        s.uinv_index_bytes,
        s.uinv_index_bytes as f64 / s.nnz_u_inv.max(1) as f64
    );
    if index.is_sparsified() {
        println!("tier               sparsified (drop tolerance {:e})", index.drop_tolerance());
        println!("dropped l1 mass    {:.3e}", index.dropped_mass());
        println!(
            "query path         {}",
            if index.needs_refinement() {
                "certified residual refinement (top-k set and order exact)"
            } else {
                "classic (ε dropped nothing — stored inverses are dense-exact)"
            }
        );
    } else {
        println!("tier               dense-exact");
    }
    let journal_path = Journal::sidecar_path(index_path);
    if journal_path.exists() {
        match Journal::scan_path(&journal_path) {
            Ok(scan) => {
                println!("journal            {}", journal_path.display());
                println!(
                    "journal records    {} ({} edits, checkpoint epoch {})",
                    scan.records,
                    scan.edits,
                    scan.checkpoint_epoch.map_or("torn".to_string(), |e| e.to_string()),
                );
                if let Some(torn) = &scan.torn {
                    println!("journal damage     torn at byte {}: {}", torn.offset, torn.detail);
                }
                let pending = scan.tail_epoch().saturating_sub(index.update_epoch());
                if pending > 0 {
                    println!(
                        "journal pending    {pending} record(s) beyond this snapshot — run \
                         'kdash recover {index_path}' to replay them"
                    );
                } else {
                    println!("journal pending    none (snapshot is current)");
                }
            }
            Err(e) => println!("journal            {} (unreadable: {e})", journal_path.display()),
        }
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args, &[])?;
    reject_unknown_flags(&flags, &["nodes", "seed"])?;
    let [profile_text, out_path] = pos.as_slice() else {
        return Err("usage: kdash gen <profile> <edges.txt> [--nodes 2000] [--seed 42]".into());
    };
    let profile = match *profile_text {
        "dictionary" => DatasetProfile::Dictionary,
        "internet" => DatasetProfile::Internet,
        "citation" => DatasetProfile::Citation,
        "social" => DatasetProfile::Social,
        "email" => DatasetProfile::Email,
        other => return Err(format!("unknown profile '{other}'")),
    };
    let nodes: usize =
        flag(&flags, "nodes").unwrap_or("2000").parse().map_err(|_| "invalid --nodes")?;
    let seed: u64 = flag(&flags, "seed").unwrap_or("42").parse().map_err(|_| "invalid --seed")?;
    let graph = profile.generate(profile.scale_for_nodes(nodes), seed);
    let out = File::create(out_path).map_err(|e| format!("create {out_path}: {e}"))?;
    let mut w = BufWriter::new(out);
    kdash_graph::io::write_edge_list(&graph, &mut w).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} profile, {} nodes, {} edges)",
        out_path,
        profile.name(),
        graph.num_nodes(),
        graph.num_edges()
    );
    Ok(())
}
