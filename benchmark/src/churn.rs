//! `serve-churn`: the serving tier under reads beside journaled writes,
//! then writes alone, then crash recovery.
//!
//! Thread plan, sized for two cores: one `ServeLoop` worker, one
//! closed-loop client (parked while its window is in flight) and the
//! writer — at most two runnable at once.

use crate::inputs::EditStream;
use crate::metrics::Report;
use crate::oracle::{bit_identical, check_index_against_iterative};
use crate::query::{
    emit_build_layers, emit_end_to_end, traced_query_pass, PassStats, SETUP_REPEATS, TRACED_QUERIES,
};
use crate::setup::{build, staged_replay, Built};
use crate::stats::{median, median_or_zero, percentile};
use crate::trace::{Recorder, NO_PARENT};
use crate::workloads::{Inputs, Workload};
use crate::RunOptions;
use kdash_core::{save_atomic, KdashError, KdashIndex, TopKResult};
use kdash_dynamic::journal::HEADER_LEN;
use kdash_dynamic::{DynamicIndex, Journal, UpdateBatch, UpdateReport};
use kdash_graph::{EdgeEdit, NodeId};
use kdash_serve::{EpochStore, EpochWriter, MpmcQueue, ServeLoop, ServeOptions};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Reads the client keeps in flight.
const WINDOW: usize = 4;
/// Write *i* is applied as soon as this many × *i* reads have completed.
const READS_PER_WRITE: usize = 256;
/// Reads per round: latencies are taken per round, then the median round.
const ROUND: usize = 1024;
/// Reads per throughput slice (≈ 1 ms): a round's throughput is its
/// median slice, so a slice the host interrupted does not move it.
const SLICE: usize = 16;
/// Reads of the traced phase A (fixed, so every count repeats exactly).
const TRACED_READS: usize = 4 * ROUND;
/// Phase B: coalesced rounds of this many fresh-source batches …
const COALESCED_ROUNDS: usize = 4;
const COALESCED_BATCHES: usize = 16;
/// … then this many uniform-endpoint (heavy-reach) single inserts.
const HEAVY_WRITES: usize = 6;

/// A started serving stack and what starting it cost.
struct Serving {
    built: Built,
    writer: EpochWriter,
    serve: ServeLoop,
    snapshot: PathBuf,
    journal: PathBuf,
    attach_s: f64,
    save_s: f64,
    file_bytes: u64,
    /// Graph generation through loop start, seconds.
    seconds: f64,
}

fn start_serving(w: &Workload, dir: &Path, round: usize) -> Result<Serving, String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", w.name);
    let start = Instant::now();
    let built = build(w)?;
    let snapshot = dir.join(format!("index-{round}.kdash"));
    let journal = Journal::sidecar_path(&snapshot);

    let t = Instant::now();
    save_atomic(&built.index, &snapshot).map_err(|e| fail("snapshot save", &e))?;
    let save_s = t.elapsed().as_secs_f64();
    let file_bytes = std::fs::metadata(&snapshot).map_err(|e| fail("snapshot stat", &e))?.len();

    let t = Instant::now();
    let engine = DynamicIndex::new(built.index.clone()).map_err(|e| fail("engine attach", &e))?;
    let attach_s = t.elapsed().as_secs_f64();
    let engine = Journal::create(&journal, 0)
        .and_then(|j| engine.journaled(j))
        .map_err(|e| fail("journal attach", &e))?;

    let (mut writer, store) = EpochWriter::new(engine);
    let serve = ServeLoop::start(
        store,
        ServeOptions { workers: 1, queue_capacity: 1024, max_batch: 32, ..Default::default() },
    )
    .map_err(|e| fail("serve loop start", &e))?;
    writer.attach_metrics(serve.metrics());
    let seconds = start.elapsed().as_secs_f64();
    Ok(Serving { built, writer, serve, snapshot, journal, attach_s, save_s, file_bytes, seconds })
}

/// When the client stops submitting.
#[derive(Clone, Copy)]
enum Stop {
    At(Instant),
    AfterReads(usize),
}

/// What the client saw, read by read.
#[derive(Default)]
struct ReadLog {
    latency_us: Vec<f64>,
    /// Completion time of each read, ns since the phase started.
    done_ns: Vec<u64>,
    attempted: u64,
    failures: Vec<String>,
}

/// The closed-loop client: keeps [`WINDOW`] submits in flight and waits
/// for them in order (one FIFO worker answers in order).
fn client(
    w: &Workload,
    serve: &ServeLoop,
    queries: &[NodeId],
    stop: Stop,
    origin: Instant,
    completed: &AtomicUsize,
    mut rec: Option<&mut Recorder>,
) -> ReadLog {
    let mut log = ReadLog::default();
    let mut inflight = VecDeque::with_capacity(WINDOW);
    let (mut next, mut last_epoch) = (0usize, 0u64);
    loop {
        let submitting = match stop {
            Stop::At(deadline) => Instant::now() < deadline,
            Stop::AfterReads(reads) => next < reads,
        };
        while submitting && inflight.len() < WINDOW {
            let q = queries[next % queries.len()];
            let submitted = Instant::now();
            match serve.submit(q, w.k) {
                Ok(pending) => inflight.push_back((submitted, pending, next as u32)),
                Err(e) => {
                    log.attempted += 1;
                    log.failures.push(format!("submit {q}: {e}"));
                }
            }
            next += 1;
            if matches!(stop, Stop::AfterReads(reads) if next >= reads) {
                break;
            }
        }
        let Some((submitted, pending, op)) = inflight.pop_front() else {
            if submitting {
                continue; // every submit of this round was shed
            }
            break;
        };
        log.attempted += 1;
        match pending.wait() {
            Ok(response) => {
                let done = Instant::now();
                let latency_ns = (done - submitted).as_nanos() as u64;
                log.latency_us.push(latency_ns as f64 / 1e3);
                log.done_ns.push((done - origin).as_nanos() as u64);
                if let Some(rec) = rec.as_deref_mut() {
                    let start_ns = (submitted - origin).as_nanos() as u64;
                    rec.record("serve.read", NO_PARENT, op, start_ns, latency_ns);
                }
                if response.result.items.len() != w.k {
                    log.failures.push(format!("read {op}: {} items", response.result.items.len()));
                } else if response.epoch < last_epoch {
                    log.failures.push(format!("read {op}: epoch went back to {}", response.epoch));
                }
                last_epoch = last_epoch.max(response.epoch);
            }
            Err(e) => log.failures.push(format!("read {op}: {e}")),
        }
        completed.fetch_add(1, Ordering::Release);
    }
    log
}

/// The write side: the writer, its edit stream, and what it has done.
struct WriteSide<'g> {
    writer: EpochWriter,
    stream: EditStream<'g>,
    /// Every edit acked so far, in order (batches are single-edge, so
    /// this is also one entry per epoch).
    applied: Vec<EdgeEdit>,
    reports: Vec<UpdateReport>,
    attempted: u64,
    failures: Vec<String>,
    rec: Option<Recorder>,
}

impl WriteSide<'_> {
    /// One write through the `EpochWriter`; returns the call's seconds
    /// when it was acked. Traced, it records a root span with the
    /// `UpdateReport`'s stages laid end to end inside it (what is left of
    /// the root is snapshot clone + publish).
    fn write(&mut self, batches: &[UpdateBatch]) -> Option<f64> {
        self.attempted += 1;
        let start_ns = self.rec.as_ref().map(Recorder::now_ns);
        let started = Instant::now();
        let result = match batches {
            [single] => self.writer.apply(single),
            queue => self.writer.apply_coalesced(queue),
        };
        let seconds = started.elapsed().as_secs_f64();
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                self.failures.push(format!("write failed: {e}"));
                return None;
            }
        };
        self.applied.extend(batches.iter().flat_map(|b| b.edits().iter().copied()));
        if let (Some(rec), Some(start_ns)) = (self.rec.as_mut(), start_ns) {
            let op = self.reports.len() as u32;
            let root = rec.record("serve.write", NO_PARENT, op, start_ns, (seconds * 1e9) as u64);
            let mut cursor = start_ns;
            for (name, d) in [
                ("dynamic.journal", report.journal_time),
                ("dynamic.graph_edit", report.graph_time),
                ("dynamic.refactor", report.factorization_time),
                ("dynamic.reach", report.reach_time),
                ("dynamic.resolve", report.resolve_time),
                ("dynamic.splice", report.splice_time),
                ("dynamic.estimator", report.estimator_time),
            ] {
                rec.record(name, root, op, cursor, d.as_nanos() as u64);
                cursor += d.as_nanos() as u64;
            }
        }
        self.reports.push(report);
        Some(seconds)
    }
}

/// Phase A — reads beside writes: the client runs on its own thread, the
/// writer on this one, applying light write *i* once
/// [`READS_PER_WRITE`]·*i* reads have completed. Returns the read log and
/// the ack latency (ms) of every phase-A write.
fn reads_beside_writes(
    w: &Workload,
    serve: &ServeLoop,
    queries: &[NodeId],
    stop: Stop,
    origin: Instant,
    side: &mut WriteSide<'_>,
) -> Result<(ReadLog, Vec<f64>), String> {
    let completed = AtomicUsize::new(0);
    let client_done = AtomicBool::new(false);
    let mut client_rec = side.rec.as_ref().map(|_| Recorder::new(origin, TRACED_READS));
    let mut ack_ms = Vec::new();
    let mut due_writes = 0;
    let reads = std::thread::scope(|scope| {
        let (completed, client_done, client_rec) = (&completed, &client_done, client_rec.as_mut());
        let handle = scope.spawn(move || {
            let log = client(w, serve, queries, stop, origin, completed, client_rec);
            client_done.store(true, Ordering::Release);
            log
        });
        while !client_done.load(Ordering::Acquire) {
            if due_writes < completed.load(Ordering::Acquire) / READS_PER_WRITE {
                due_writes += 1;
                let batch = side.stream.light();
                ack_ms.extend(side.write(&[batch]).map(|s| s * 1e3));
            } else {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        handle.join()
    })
    .map_err(|_| format!("{}: client thread panicked", w.name))?;
    if let (Some(rec), Some(client_rec)) = (side.rec.as_mut(), client_rec) {
        rec.absorb(client_rec);
    }
    Ok((reads, ack_ms))
}

/// What the crash-and-recover phase measured.
struct Recovery {
    load_s: f64,
    /// Load + journal replay until the engine is reattached.
    recover_s: f64,
    replay_s: f64,
    journal_bytes: u64,
}

/// Phase C — crash: the serving stack is gone; load the set-up snapshot,
/// replay the journal, and hold the recovered index to the answers the
/// live one gave (`live`), to its epoch, and to the iterative definition
/// on the edited graph.
#[allow(clippy::too_many_arguments)]
fn crash_and_recover(
    w: &Workload,
    report: &mut Report,
    built: &Built,
    inputs: &Inputs,
    snapshot: &Path,
    journal: &Path,
    applied: &[EdgeEdit],
    live: &[Result<TopKResult, KdashError>],
) -> Result<Recovery, String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", w.name);
    let journal_bytes = std::fs::metadata(journal).map_err(|e| fail("journal stat", &e))?.len();
    let final_epoch = applied.len() as u64;

    let start = Instant::now();
    let file = std::fs::File::open(snapshot).map_err(|e| fail("snapshot open", &e))?;
    let loaded = KdashIndex::load(std::io::BufReader::new(file));
    let load_s = start.elapsed().as_secs_f64();
    let recovered = loaded
        .map_err(|e| e.to_string())
        .and_then(|index| DynamicIndex::recover(index, journal).map_err(|e| e.to_string()));
    let recover_s = start.elapsed().as_secs_f64();

    report.attempted += 1;
    let mut replay_s = 0.0;
    match recovered {
        Err(e) => report.fail(format!("{}: recovery failed: {e}", w.name)),
        Ok((engine, recovery)) => {
            replay_s = recovery.replay_time.as_secs_f64();
            let index = engine.index();
            report.check(index.update_epoch() == final_epoch, || {
                format!(
                    "{}: recovered to epoch {}, live was {final_epoch}",
                    w.name,
                    index.update_epoch()
                )
            });
            let mut searcher = index.searcher();
            for (&q, live) in inputs.oracle_queries.iter().zip(live) {
                let same = match (live, searcher.top_k(q, w.k)) {
                    (Ok(a), Ok(b)) => bit_identical(a, &b),
                    _ => false,
                };
                report.check(same, || {
                    format!("{}: query {q}: recovered answer differs from live", w.name)
                });
            }
            match built.graph.apply_edits(applied) {
                Ok(edited) => {
                    check_index_against_iterative(
                        report,
                        "serve-churn (recovered)",
                        &edited,
                        index,
                        w.k,
                        &inputs.oracle_queries,
                    );
                }
                Err(e) => report.check(false, || format!("{}: edit mirror failed: {e}", w.name)),
            }
        }
    }
    Ok(Recovery { load_s, recover_s, replay_s, journal_bytes })
}

/// Per-round end-to-end numbers from the read log.
fn rounds(log: &ReadLog) -> Vec<PassStats> {
    let reads = log.latency_us.len();
    // At least two rounds, so the quartiles over rounds exist.
    let count = (reads / ROUND).max(2);
    let round = reads.div_ceil(count).min(ROUND);
    (0..count)
        .map(|r| {
            let span = r * round..((r + 1) * round).min(reads);
            let mut latency = log.latency_us[span.clone()].to_vec();
            let done = &log.done_ns[span];
            let mut rates: Vec<f64> = done
                .windows(SLICE + 1)
                .step_by(SLICE)
                .map(|s| SLICE as f64 * 1e9 / (s[SLICE] - s[0]).max(1) as f64)
                .collect();
            if rates.is_empty() {
                let whole = (done[done.len() - 1] - done[0]).max(1);
                rates.push(done.len() as f64 * 1e9 / whole as f64);
            }
            PassStats {
                queries_per_s: median(&rates),
                p50_us: percentile(&mut latency, 0.5),
                p90_us: percentile(&mut latency, 0.9),
            }
        })
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(w: &Workload, opts: &RunOptions) -> Result<(Report, Option<Recorder>), String> {
    let mut report = Report::new(w.name, opts.seed, opts.trace);

    // Set-up, repeated; every stack but the last is torn down again.
    let mut setup_s = Vec::new();
    let mut serving = start_serving(w, &opts.scratch_dir, 0)?;
    setup_s.push(serving.seconds);
    while !opts.trace && setup_s.len() < SETUP_REPEATS {
        serving.serve.shutdown();
        drop(serving.writer);
        serving = start_serving(w, &opts.scratch_dir, setup_s.len())?;
        setup_s.push(serving.seconds);
    }
    let Serving { built, writer, serve, snapshot, journal, attach_s, save_s, file_bytes, .. } =
        serving;
    let inputs: Inputs = w.inputs(&built.graph, opts.seed)?;
    let oracle_timing = check_index_against_iterative(
        &mut report,
        w.name,
        &built.graph,
        &built.index,
        w.k,
        &inputs.oracle_queries,
    );

    let origin = Instant::now();
    let mut rec = opts.trace.then(|| Recorder::new(origin, 8 * TRACED_QUERIES + 16 * TRACED_READS));
    let mut split = None;
    if let Some(rec) = rec.as_mut() {
        let root = rec.open("setup.staged_build", NO_PARENT, 0);
        let staged = staged_replay(w, &built, rec, root)?;
        rec.close(root);
        emit_build_layers(&mut report, &built, &staged);
        // The same list straight through a `Searcher` on the same index:
        // the layer split, and what `serve.overhead_us_p50` is over.
        split = Some(traced_query_pass(w, &built.index, &inputs.queries, rec, &mut report));
    }

    let mut side = WriteSide {
        writer,
        stream: EditStream::new(&built.graph, inputs.edit_rng.clone()),
        applied: Vec::new(),
        reports: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        rec,
    };
    let phase_start = Instant::now();
    let stop = if opts.trace {
        Stop::AfterReads(TRACED_READS)
    } else {
        Stop::At(phase_start + Duration::from_secs_f64(opts.seconds))
    };
    let (reads, ack_ms) = reads_beside_writes(w, &serve, &inputs.queries, stop, origin, &mut side)?;
    let light_reports = side.reports.len();

    // Phase B — writes alone: coalesced fresh-source queues, then the
    // heavy-reach class (uniform endpoints, usually inside the closure).
    let mut coalesced_ms_per_edit = Vec::new();
    for _ in 0..COALESCED_ROUNDS {
        let queue: Vec<UpdateBatch> =
            (0..COALESCED_BATCHES).map(|_| side.stream.fresh_insert()).collect();
        coalesced_ms_per_edit
            .extend(side.write(&queue).map(|s| s * 1e3 / COALESCED_BATCHES as f64));
    }
    let mut heavy_s = Vec::new();
    for _ in 0..HEAVY_WRITES {
        let batch = side.stream.heavy();
        heavy_s.extend(side.write(&[batch]));
    }

    // Phase C — what the live index answers, then the crash.
    let WriteSide { writer, applied, reports, attempted, failures, mut rec, .. } = side;
    report.check(writer.epoch() == applied.len() as u64, || {
        format!("{}: final epoch {} after {} acked batches", w.name, writer.epoch(), applied.len())
    });
    let live: Vec<Result<TopKResult, KdashError>> = {
        let mut searcher = writer.engine().index().searcher();
        inputs.oracle_queries.iter().map(|&q| searcher.top_k(q, w.k)).collect()
    };
    let served = serve.metrics().snapshot();
    serve.shutdown();
    drop(writer);
    let recover_start_ns = rec.as_ref().map(Recorder::now_ns);
    let recovery =
        crash_and_recover(w, &mut report, &built, &inputs, &snapshot, &journal, &applied, &live)?;
    if let (Some(rec), Some(start_ns)) = (rec.as_mut(), recover_start_ns) {
        let root =
            rec.record("serve.recover", NO_PARENT, 0, start_ns, (recovery.recover_s * 1e9) as u64);
        rec.record("core.persist.load", root, 0, start_ns, (recovery.load_s * 1e9) as u64);
    }

    report.attempted += reads.attempted + attempted;
    for f in reads.failures.iter().chain(&failures) {
        report.fail(format!("{}: {f}", w.name));
    }
    if reads.latency_us.len() < 2 * SLICE {
        return Err(format!("{}: only {} reads completed", w.name, reads.latency_us.len()));
    }

    let Some(split) = split else {
        let index_bytes = built.index.stats().inverse_heap_bytes;
        emit_end_to_end(&mut report, &setup_s, &rounds(&reads), index_bytes);
        return Ok((report, None));
    };

    // Per-layer metrics (traced run).
    split.emit(&mut report, w, built.index.num_nodes());
    oracle_timing.emit(&mut report);
    report.put("core.persist.save_s", save_s);
    report.put("core.persist.load_s", recovery.load_s);
    report.put("core.persist.file_bytes", file_bytes as f64);
    report.put("dynamic.attach_s", attach_s);

    let light = &reports[..light_reports];
    let light_median =
        |f: fn(&UpdateReport) -> f64| median_or_zero(&light.iter().map(f).collect::<Vec<f64>>());
    report.put("dynamic.apply.p50_ms", light_median(|r| ms(r.total_time())));
    report.put("dynamic.graph_edit_ms", light_median(|r| ms(r.graph_time)));
    report.put("dynamic.refactor_ms", light_median(|r| ms(r.factorization_time)));
    report.put("dynamic.reach_ms", light_median(|r| ms(r.reach_time)));
    report.put("dynamic.resolve_ms", light_median(|r| ms(r.resolve_time)));
    report.put("dynamic.splice_ms", light_median(|r| ms(r.splice_time)));
    report.put("dynamic.estimator_ms", light_median(|r| ms(r.estimator_time)));
    report.put("dynamic.apply.dirty_linv_share", light_median(|r| r.linv_dirty_fraction()));
    report.put("dynamic.apply.resolved_nnz", light_median(|r| r.resolved_nnz as f64));
    report.put("dynamic.journal.append_fsync_ms", light_median(|r| ms(r.journal_time)));
    report.put(
        "dynamic.journal.bytes_per_batch",
        recovery.journal_bytes.saturating_sub(HEADER_LEN) as f64 / applied.len().max(1) as f64,
    );
    report.put("dynamic.coalesced16.ms_per_edit", median_or_zero(&coalesced_ms_per_edit));
    report.put("dynamic.heavy.max_s", heavy_s.iter().copied().fold(0.0, f64::max));
    report.put("dynamic.recover.replay_s", recovery.replay_s);

    // The queue and the epoch pin on their own, in a micro-loop.
    const MICRO_OPS: usize = 1 << 20;
    let queue = MpmcQueue::with_capacity(1024);
    let t = Instant::now();
    for i in 0..MICRO_OPS {
        std::hint::black_box(queue.push(i).is_ok() && queue.pop().is_some());
    }
    report.put("serve.queue.push_pop_ns", t.elapsed().as_nanos() as f64 / MICRO_OPS as f64);
    let store = EpochStore::new(built.index);
    let t = Instant::now();
    for _ in 0..MICRO_OPS {
        std::hint::black_box(store.pin());
    }
    report.put("serve.epoch.pin_ns", t.elapsed().as_nanos() as f64 / MICRO_OPS as f64);

    let mut latency = reads.latency_us;
    report.put("serve.overhead_us_p50", percentile(&mut latency, 0.5) - split.untraced_p50_us);
    report.put("query_p99_us", percentile(&mut latency, 0.99));
    report.put("serve.mean_batch", served.mean_batch);
    report.put("serve.max_queue_depth", served.max_queue_depth as f64);
    report.put("serve.shed_share", served.shed_rate());
    report.put("serve.freshness_lag_mean", served.freshness_lag_mean);
    report.put("serve.freshness_lag_max", served.freshness_lag_max as f64);
    report.put("serve.swap_install_ms_p50", served.swap_p50_ms);
    report.put("serve.hist_p99_ms", served.latency_p99_ms);
    let mut acks = ack_ms;
    report.put("serve.update_ack_p50_ms", median_or_zero(&acks));
    report.put(
        "serve.update_ack_p95_ms",
        if acks.is_empty() { 0.0 } else { percentile(&mut acks, 0.95) },
    );
    report.put("serve.update_heavy_s", heavy_s.iter().sum());
    report.put("serve.recover_s", recovery.recover_s);
    Ok((report, rec))
}
