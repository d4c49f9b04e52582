//! Tier-1 contract of the epoch-snapshot serving tier (`kdash-serve`):
//! a [`ServeLoop`] over an [`EpochStore`] serves **consistent, exact**
//! answers while a writer swaps epochs underneath it.
//!
//! * Consistency: every response produced during a concurrent write
//!   storm is tagged with the epoch it was computed against, and is
//!   **bit-identical** (node ids and proximity bit patterns) to a
//!   standalone [`Searcher::top_k`] on that epoch's pinned snapshot —
//!   i.e. no torn reads, no cross-epoch blends, ever.
//! * Admission control: overload returns the typed
//!   [`ServeError::Overloaded`] — never a panic, never a hang — and
//!   every request accepted before the queue filled still completes
//!   once the loop drains.
//! * Durability: a mid-serve crash (process death without checkpoint)
//!   recovers from the write-ahead journal to an epoch at or above the
//!   acked floor, and the revived serving tier answers bit-identically
//!   to the pre-crash index.

use kdash_core::{IndexOptions, KdashIndex, Searcher};
use kdash_dynamic::{DynamicIndex, Journal, UpdateBatch};
use kdash_graph::EdgeEdit;
use kdash_harness::profile_graph;
use kdash_serve::{EpochWriter, ServeError, ServeLoop, ServeOptions};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn build_index(nodes: usize, seed: u64) -> KdashIndex {
    let graph = profile_graph(kdash_datagen::DatasetProfile::Social, nodes, seed);
    KdashIndex::build(&graph, IndexOptions::default()).expect("build index")
}

/// A valid random single-edit batch against the *current* index: fresh
/// inserts (checked against the permuted graph so duplicates cannot be
/// generated) and deletes drawn only from edges this run inserted.
fn synthetic_batch(
    rng: &mut StdRng,
    inserted: &mut Vec<(u32, u32)>,
    index: &KdashIndex,
) -> UpdateBatch {
    let n = index.num_nodes() as u32;
    let edit = loop {
        if !inserted.is_empty() && (inserted.len() >= 32 || rng.gen_bool(0.5)) {
            let at = rng.gen_range(0..inserted.len());
            let (src, dst) = inserted.swap_remove(at);
            break EdgeEdit::Delete { src, dst };
        }
        let src = rng.gen_range(0..n);
        let dst = rng.gen_range(0..n);
        let perm = index.permutation();
        if src == dst || index.permuted_graph().has_edge(perm.new_of(src), perm.new_of(dst)) {
            continue;
        }
        inserted.push((src, dst));
        break EdgeEdit::Insert { src, dst, weight: 1.0 };
    };
    UpdateBatch::new(vec![edit]).expect("valid edit")
}

fn assert_bit_identical(
    label: &str,
    served: &kdash_core::TopKResult,
    reference: &kdash_core::TopKResult,
) {
    assert_eq!(
        served.items.len(),
        reference.items.len(),
        "{label}: result length diverged"
    );
    for (s, r) in served.items.iter().zip(&reference.items) {
        assert_eq!(s.node, r.node, "{label}: node order diverged");
        assert_eq!(
            s.proximity.to_bits(),
            r.proximity.to_bits(),
            "{label}: proximity bits diverged at node {}",
            s.node
        );
    }
}

/// Concurrent readers during a write storm: every answer matches a
/// standalone query on the exact epoch snapshot it claims, bit for bit.
#[test]
fn concurrent_reads_during_write_storm_are_bit_identical_per_epoch() {
    const WRITES: usize = 10;
    const K: usize = 8;

    let index = build_index(250, 11);
    let n = index.num_nodes() as u32;
    let engine = DynamicIndex::new(index).expect("attach engine");
    let (mut writer, store) = EpochWriter::new(engine);

    // history[e] = the immutable snapshot published as epoch e.
    let mut history: Vec<Arc<KdashIndex>> = Vec::new();
    history.push(store.pin());

    let serve_loop = ServeLoop::start(
        Arc::clone(&store),
        ServeOptions { workers: 2, queue_capacity: 256, max_batch: 8, ..Default::default() },
    )
    .expect("start loop");
    writer.attach_metrics(serve_loop.metrics());

    let stop = AtomicBool::new(false);
    let recorded: Vec<(u64, u32, Vec<(u32, u64)>)> = std::thread::scope(|scope| {
        let serve_ref = &serve_loop;
        let stop_ref = &stop;
        let readers: Vec<_> = (0..2)
            .map(|r| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(100 + r);
                    let mut seen = Vec::new();
                    while !stop_ref.load(Ordering::Acquire) {
                        let q = rng.gen_range(0..n);
                        let resp = serve_ref.query_blocking(q, K).expect("serve during storm");
                        let bits = resp
                            .result
                            .items
                            .iter()
                            .map(|i| (i.node, i.proximity.to_bits()))
                            .collect();
                        seen.push((resp.epoch, q, bits));
                    }
                    seen
                })
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(7);
        let mut inserted = Vec::new();
        for _ in 0..WRITES {
            let batch = synthetic_batch(&mut rng, &mut inserted, writer.engine().index());
            writer.apply(&batch).expect("apply during storm");
            // `apply` published before returning and we are the only
            // writer, so this pin is exactly the epoch just installed.
            history.push(store.pin());
            std::thread::sleep(Duration::from_millis(3));
        }
        stop.store(true, Ordering::Release);
        readers
            .into_iter()
            .flat_map(|h| h.join().expect("reader panicked"))
            .collect()
    });
    serve_loop.shutdown();

    assert_eq!(history.len() as u64, WRITES as u64 + 1);
    assert!(!recorded.is_empty(), "readers recorded no responses");
    for (epoch, query, bits) in &recorded {
        let snapshot = history
            .get(*epoch as usize)
            .unwrap_or_else(|| panic!("response claims unknown epoch {epoch}"));
        let reference = Searcher::new(snapshot).top_k(*query, K).expect("reference query");
        assert_eq!(bits.len(), reference.items.len(), "epoch {epoch} query {query}: length");
        for ((node, prox_bits), r) in bits.iter().zip(&reference.items) {
            assert_eq!(*node, r.node, "epoch {epoch} query {query}: node order diverged");
            assert_eq!(
                *prox_bits,
                r.proximity.to_bits(),
                "epoch {epoch} query {query}: proximity bits diverged"
            );
        }
    }
}

/// Overload is a typed, recoverable condition: a full queue sheds with
/// [`ServeError::Overloaded`], accepted requests complete after resume,
/// and nothing panics.
#[test]
fn overload_sheds_typed_and_accepted_requests_complete() {
    const K: usize = 5;
    let index = build_index(120, 23);
    let n = index.num_nodes() as u32;
    let engine = DynamicIndex::new(index).expect("attach engine");
    let (_writer, store) = EpochWriter::new(engine);

    let serve_loop = ServeLoop::start(
        Arc::clone(&store),
        ServeOptions { workers: 1, queue_capacity: 4, max_batch: 4, ..Default::default() },
    )
    .expect("start loop");

    // Park the worker so the queue can only fill.
    serve_loop.pause();
    std::thread::sleep(Duration::from_millis(30));

    let capacity = serve_loop.queue_capacity();
    let mut pending = Vec::new();
    let mut shed_seen = None;
    for q in 0.. {
        match serve_loop.submit(q % n, K) {
            Ok(p) => pending.push(p),
            Err(err) => {
                shed_seen = Some(err);
                break;
            }
        }
        assert!(
            pending.len() <= capacity,
            "queue accepted more than its capacity before shedding"
        );
    }
    match shed_seen.expect("a full queue must shed") {
        ServeError::Overloaded { depth, capacity: cap } => {
            assert_eq!(cap, capacity);
            assert!(depth >= capacity, "shed reported a non-full queue");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(pending.len(), capacity, "accepted exactly the admission bound");
    let snapshot = serve_loop.metrics().snapshot();
    assert!(snapshot.shed >= 1);
    assert_eq!(snapshot.max_queue_depth, capacity as u64, "a shed submit records no depth");

    // Resume: every accepted request completes, bit-identical to a
    // standalone query on the (only) pinned epoch.
    serve_loop.resume();
    let pinned = store.pin();
    let mut searcher = Searcher::new(&pinned);
    for (q, p) in pending.into_iter().enumerate() {
        let resp = p.wait().expect("accepted request must complete after resume");
        assert_eq!(resp.epoch, 0);
        let reference = searcher.top_k(q as u32 % n, K).expect("reference query");
        assert_bit_identical("post-resume", &resp.result, &reference);
    }
    serve_loop.shutdown();
}

static CRASH_DIR_TAG: AtomicUsize = AtomicUsize::new(0);

/// Mid-serve crash: the journal's acked floor survives, `recover`
/// replays to it, and the revived tier serves the pre-crash answers.
#[test]
fn mid_serve_crash_recovers_to_acked_floor_and_serves_identically() {
    const WRITES: usize = 5;
    const K: usize = 6;

    let dir = std::env::temp_dir().join(format!(
        "kdash-serving-equivalence-{}-{}",
        std::process::id(),
        CRASH_DIR_TAG.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let snapshot_path: PathBuf = dir.join("serve.kdash");

    let index = build_index(150, 31);
    let n = index.num_nodes() as u32;
    kdash_core::save_atomic(&index, &snapshot_path).expect("write snapshot");
    let journal = Journal::create(Journal::sidecar_path(&snapshot_path), index.update_epoch())
        .expect("create journal");
    let engine = DynamicIndex::new(index)
        .expect("attach engine")
        .journaled(journal)
        .expect("attach journal");
    let (mut writer, store) = EpochWriter::new(engine);

    let serve_loop = ServeLoop::start(Arc::clone(&store), ServeOptions::default())
        .expect("start loop");
    writer.attach_metrics(serve_loop.metrics());

    let mut rng = StdRng::seed_from_u64(404);
    let mut inserted = Vec::new();
    for _ in 0..WRITES {
        let batch = synthetic_batch(&mut rng, &mut inserted, writer.engine().index());
        writer.apply(&batch).expect("journaled apply");
    }
    let acked = store.acked_epoch();
    assert_eq!(acked, WRITES as u64);
    let resp = serve_loop.query_blocking(3 % n, K).expect("serve before crash");
    assert_eq!(resp.epoch, WRITES as u64);

    // "Crash": tear everything down without checkpointing. The snapshot
    // on disk is still epoch 0; only the journal knows about the acks.
    let pre_crash = store.pin();
    serve_loop.shutdown();
    drop(writer);

    let loaded = KdashIndex::load(std::fs::File::open(&snapshot_path).expect("open snapshot"))
        .expect("load snapshot");
    assert_eq!(loaded.update_epoch(), 0, "snapshot must predate the acked writes");
    let (recovered, report) =
        DynamicIndex::recover(loaded, Journal::sidecar_path(&snapshot_path))
            .expect("recover from journal");
    assert!(
        report.final_epoch >= acked,
        "recovery fell below the acked floor: {} < {acked}",
        report.final_epoch
    );

    let (revived_writer, revived_store) = EpochWriter::new(recovered);
    assert_eq!(revived_store.epoch(), acked);
    let revived_loop = ServeLoop::start(Arc::clone(&revived_store), ServeOptions::default())
        .expect("restart loop");
    let mut reference = Searcher::new(&pre_crash);
    for q in [0u32, 1, 7 % n, n / 2, n - 1] {
        let served = revived_loop.query_blocking(q, K).expect("serve after recovery");
        assert_eq!(served.epoch, acked);
        let expected = reference.top_k(q, K).expect("pre-crash reference");
        assert_bit_identical("post-recovery", &served.result, &expected);
    }
    revived_loop.shutdown();
    drop(revived_writer);
    let _ = std::fs::remove_dir_all(&dir);
}
