//! The library surface `benchmark/` compiles against, exercised from
//! tier-1.
//!
//! `benchmark/` is a standalone package: tier-1 never builds it, so a
//! library signature change would only show when the driver builds the
//! benchmark. The first test makes exactly the calls
//! `benchmark/src/query.rs::traced_query_pass` makes on the gather path —
//! with the same import paths — and asserts what that pass asserts: on
//! the dense tier, `c ×` the replayed `row_gather` equals the proximity
//! `Searcher::top_k_into` returned, bit for bit. The second spells, the
//! way `benchmark/src/{churn,setup,query,oracle}.rs` spell them, the
//! option structs, executor, persistence and store calls those files make,
//! and `churn.rs`'s whole write side: attach, journal, write through the
//! `EpochWriter`, pin, crash, recover.
//! The third makes `setup.rs::staged_replay`'s calls into `kdash-sparse`
//! and the queue micro-loop of `churn.rs`.

use kdash_core::{
    compute_ordering_with_stats, save_atomic, BatchOptions, BatchOutcome, IndexBuilder,
    IndexOptions, IsolatedExecutor, KdashError, KdashIndex, NodeOrdering, TopKResult,
};
use kdash_datagen::{barabasi_albert, erdos_renyi, rmat, RmatParams};
use kdash_dynamic::{DynamicIndex, Journal, UpdateBatch, UpdateReport};
use kdash_graph::{BfsScratch, EdgeEdit, NodeId};
use kdash_serve::{EpochStore, EpochWriter, MpmcQueue, ServeLoop, ServeOptions};
use kdash_sparse::kernel::{GatherCounters, GatherScratch};
use kdash_sparse::{
    sparse_lu, sparse_lu_with, sparsify_lower_unit_with, sparsify_upper_with, transition_matrix,
    w_matrix, CsrMatrix, InvertOptions, ProximityStore, ResolvedKernel, ScatteredColumn,
};

#[test]
fn replayed_gather_equals_the_answer_on_every_family_and_layout() {
    let graphs = [
        ("er", erdos_renyi(300, 1500, 13)),
        ("ba", barabasi_albert(400, 4, 11)),
        ("rmat", rmat(9, 2048, RmatParams::default(), 7)),
    ];
    let k = 10;
    for (label, g) in &graphs {
        let index = KdashIndex::build(g, IndexOptions::default()).unwrap();
        let n = index.num_nodes();
        let graph = index.permuted_graph();
        let store = index.uinv_rows();
        let c = index.restart_probability();
        let kernel = ResolvedKernel::default();
        let mut searcher = index.searcher();
        let mut out = TopKResult::default();
        let mut bfs = BfsScratch::new(n);
        let mut column = ScatteredColumn::new(n);
        let mut scratch = GatherScratch::with_capacity(store.max_row_nnz());
        let mut replayed = vec![0.0f64; n];
        for q in (0..n as NodeId).step_by(37) {
            searcher.top_k_into(q, k, &mut out).unwrap();
            let stats = &out.stats;

            bfs.begin(graph, index.permutation().new_of(q));
            while bfs.num_expanded() < stats.frontier_expanded && bfs.expand_next_layer(graph) > 0 {
            }
            let (col_idx, col_val) = index.linv_query_column(q);
            column.load(col_idx, col_val);

            let computed = &bfs.order()[..stats.proximity_computations.min(bfs.num_discovered())];
            assert_eq!(computed.len(), stats.proximity_computations, "{label} q {q}");
            let mut counters = GatherCounters::default();
            for &u in computed {
                replayed[u as usize] =
                    store.row_gather(kernel, u, &column, &mut scratch, &mut counters);
            }
            for item in out.items.iter().filter(|i| i.proximity > 0.0) {
                let u = index.permutation().new_of(item.node);
                assert_eq!(
                    (c * replayed[u as usize]).to_bits(),
                    item.proximity.to_bits(),
                    "{label} q {q} node {}: replayed gather differs from the answer",
                    item.node
                );
            }
            // The five counters the benchmark reads must replay the
            // query's own stats.
            assert_eq!(counters.nnz, stats.nnz_gathered, "{label} q {q}");
            assert_eq!(counters.index_bytes, stats.bytes_touched, "{label} q {q}");
            assert_eq!(counters.value_bytes, stats.value_bytes_touched, "{label} q {q}");
            assert_eq!(counters.rows_wide, stats.rows_wide, "{label} q {q}");
            assert_eq!(counters.rows_scalar, stats.rows_scalar, "{label} q {q}");
        }
    }
}

/// The rest of the surface: every library item `benchmark/src/{churn,
/// setup,query,oracle}.rs` names outside the gather replay, called the way
/// they call it. An option struct losing a field the benchmark sets, an
/// executor or loader changing shape, or `layout()` no longer feeding
/// `ProximityStore::from_csr` fails here, in tier-1.
#[test]
fn benchmark_call_sites_compile_and_agree() {
    let graph = erdos_renyi(120, 600, 17);
    let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
    let (q, k) = (5 as NodeId, 8);

    // oracle.rs / query.rs: one reused workspace, both spellings.
    let mut searcher = index.searcher();
    let want: Result<TopKResult, KdashError> = searcher.top_k(q, k);
    let want = want.unwrap();
    let mut out = TopKResult::default();
    searcher.top_k_into(q, k, &mut out).unwrap();
    assert_eq!(out.nodes(), want.nodes());

    // query.rs: the serving tier's panic-isolated executor.
    match IsolatedExecutor::new(&index, BatchOptions::default()) {
        Ok(mut executor) => {
            if let BatchOutcome::Failed(e) = executor.run(q, k) {
                panic!("isolated query failed: {e}");
            }
        }
        Err(e) => panic!("IsolatedExecutor::new failed: {e}"),
    }

    // setup.rs: the store re-encoded from the inverse, in the index's layout.
    let uinv = index.uinv_rows().to_csc();
    let store = ProximityStore::from_csr(CsrMatrix::from_csc(&uinv), index.layout()).unwrap();
    assert_eq!(store.nnz(), index.stats().nnz_u_inv);

    // churn.rs: snapshot, attach and journal, serve beside writes, then
    // the crash: reload the snapshot and recover through the journal.
    let dir = std::env::temp_dir().join(format!("kdash-benchmark-surface-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("index.kdash");
    let journal = Journal::sidecar_path(&snapshot);
    save_atomic(&index, &snapshot).unwrap();
    let engine = DynamicIndex::new(index.clone()).unwrap();
    let engine = Journal::create(&journal, 0).and_then(|j| engine.journaled(j)).unwrap();
    let (mut writer, store) = EpochWriter::new(engine);
    let serve = ServeLoop::start(
        store,
        ServeOptions { workers: 1, queue_capacity: 1024, max_batch: 32, ..Default::default() },
    )
    .unwrap();
    writer.attach_metrics(serve.metrics());
    assert_eq!(serve.query_blocking(q, k).unwrap().result.nodes(), want.nodes());

    // One write the way `WriteSide::write` makes it, and the stage
    // durations it lays end to end inside the call.
    let batches: Vec<UpdateBatch> = (0..120 as NodeId)
        .filter(|&dst| dst != q && !graph.has_edge(q, dst))
        .take(3)
        .map(|dst| UpdateBatch::new(vec![EdgeEdit::Insert { src: q, dst, weight: 1.0 }]).unwrap())
        .collect();
    let write = |writer: &mut EpochWriter, batches: &[UpdateBatch]| {
        let result: Result<UpdateReport, KdashError> = match batches {
            [single] => writer.apply(single),
            queue => writer.apply_coalesced(queue),
        };
        let report = result.unwrap();
        let stages = report.journal_time
            + report.graph_time
            + report.factorization_time
            + report.reach_time
            + report.resolve_time
            + report.splice_time
            + report.estimator_time;
        assert_eq!(report.total_time(), stages + report.checkpoint_time);
        assert!(report.linv_dirty_fraction() <= 1.0 && report.resolved_nnz > 0);
        report.batches
    };
    assert_eq!(write(&mut writer, &batches[..1]), 1);
    assert_eq!(write(&mut writer, &batches[1..]), 2);
    assert_eq!(writer.epoch(), batches.len() as u64);
    let live = writer.engine().index().searcher().top_k(q, k).unwrap();
    assert_eq!(serve.metrics().snapshot().swaps, 2);
    serve.shutdown();
    drop(writer);

    let file = std::fs::File::open(&snapshot).unwrap();
    let loaded = KdashIndex::load(std::io::BufReader::new(file)).unwrap();
    assert_eq!(loaded.top_k(q, k).unwrap().nodes(), want.nodes());
    let (engine, recovery) = DynamicIndex::recover(loaded, &journal).unwrap();
    assert_eq!(engine.index().update_epoch(), batches.len() as u64);
    assert_eq!(recovery.replayed_batches, batches.len());
    assert!(recovery.replay_time.as_secs_f64() > 0.0);
    assert_eq!(engine.index().searcher().top_k(q, k).unwrap().items, live.items);
    std::fs::remove_dir_all(&dir).unwrap();

    // churn.rs: the epoch pin on its own.
    let store = EpochStore::new(index);
    assert_eq!(std::hint::black_box(store.pin()).update_epoch(), 0);
}

/// `setup.rs::staged_replay` and the queue micro-loop of `churn.rs`: the
/// build repeated as direct calls with the benchmark's two workers must
/// produce `sparse_lu`'s factors bit for bit and the pipeline's index
/// sizes (the replay's own check), and a push–pop pair on a
/// 1 024-slot `MpmcQueue` must succeed every time.
#[test]
fn staged_replay_and_queue_micro_loop_compile_and_agree() {
    let graph = rmat(9, 2048, RmatParams::default(), 7);
    let (index, _report) = IndexBuilder::new()
        .ordering(NodeOrdering::Hybrid)
        .drop_tolerance(0.0)
        .threads(2)
        .build_with_report(&graph)
        .unwrap();
    let options = InvertOptions { threads: 2 };
    let c = index.restart_probability();

    let (perm, _stats) = compute_ordering_with_stats(&graph, NodeOrdering::Hybrid);
    let permuted = graph.permute(&perm).unwrap();
    let a = transition_matrix(&permuted, index.dangling_policy());
    let w = w_matrix(&a, c).unwrap();
    let factors = sparse_lu_with(&w, options).unwrap();
    let reference = sparse_lu(&w).unwrap();
    for (got, want) in [(&factors.l, &reference.l), (&factors.u, &reference.u)] {
        let ((gp, gi, gv), (wp, wi, wv)) = (got.raw(), want.raw());
        assert_eq!((gp, gi), (wp, wi));
        assert!(gv.iter().zip(wv).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
    let linv = sparsify_lower_unit_with(&factors.l, 0.0, options).unwrap();
    let uinv = sparsify_upper_with(&factors.u, 0.0, options).unwrap();
    let store =
        ProximityStore::from_csr(CsrMatrix::from_csc(&uinv.inverse), index.layout()).unwrap();
    let stats = index.stats();
    assert_eq!(
        (linv.inverse.nnz(), store.nnz(), factors.l.nnz(), factors.u.nnz()),
        (stats.nnz_l_inv, stats.nnz_u_inv, stats.nnz_l, stats.nnz_u)
    );
    assert_eq!(linv.dropped.iter().chain(&uinv.dropped).sum::<f64>(), 0.0);

    let queue = MpmcQueue::with_capacity(1024);
    for i in 0..4096usize {
        assert!(std::hint::black_box(queue.push(i).is_ok() && queue.pop().is_some()));
    }
    assert!(queue.is_empty());
}
