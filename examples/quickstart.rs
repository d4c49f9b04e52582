//! Quickstart: index a graph, run an exact top-k RWR query, check the
//! answer against the iterative ground truth — then *edit the graph* and
//! serve the fresh answers through an incremental index update instead
//! of a rebuild.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use kdash_baselines::{IterativeRwr, TopKEngine};
use kdash_core::IndexBuilder;
use kdash_datagen::DatasetProfile;
use kdash_dynamic::{DynamicIndex, Journal, UpdateBatch};
use kdash_graph::EdgeEdit;
use kdash_serve::{EpochWriter, ServeLoop, ServeOptions};

fn main() {
    // 1. A graph. Any directed, weighted CsrGraph works; here we use the
    //    synthetic stand-in for the paper's Dictionary dataset.
    let graph = DatasetProfile::Dictionary.generate(0.05, 42);
    println!(
        "graph: {} ({} nodes, {} edges)",
        DatasetProfile::Dictionary,
        graph.num_nodes(),
        graph.num_edges()
    );

    // 2. Build the K-dash index (hybrid reordering, c = 0.95 — the paper's
    //    defaults). This is the one-off precomputation phase, a staged
    //    pipeline; `.threads(0)` parallelises the dominant inversion stage
    //    over all cores with bit-identical output.
    let (index, report) =
        IndexBuilder::new().threads(0).build_with_report(&graph).expect("index build");
    println!("precompute: {:?} total, stage by stage:", report.total());
    for timing in &report.stages {
        println!("  {:<14} {:?}", timing.stage.name(), timing.duration);
    }
    if let (Some(communities), Some(border)) =
        (report.ordering.communities, report.ordering.border_nodes)
    {
        println!("  (hybrid ordering: {communities} Louvain communities, {border} border nodes)");
    }
    println!(
        "inverse nnz / edges = {:.2} (paper's Fig. 5 metric; ~O(m) storage)",
        index.stats().inverse_nnz_ratio()
    );
    // The stored U⁻¹ encodes its column indices as u16 deltas against
    // aligned block anchors: ~half the index bytes of flat CSR on the
    // fill-dominated inverse rows, bit-identical answers.
    println!(
        "U⁻¹ index: {:.2} bytes/nnz (flat CSR would be 4.00)",
        index.stats().uinv_index_bytes as f64 / index.stats().nnz_u_inv.max(1) as f64
    );

    // 3. Query: exact top-10 highest-proximity nodes for node 0. A serving
    //    loop holds one `Searcher` (allocation-free after warm-up). Its
    //    branch-free four-lane gather runs through AVX2 where the host
    //    has it and through its portable twin otherwise; the two are
    //    bit-identical, so answers are the same on every machine and
    //    there is nothing to select.
    let q = 0;
    let k = 10;
    let mut searcher = index.searcher();
    let result = searcher.top_k(q, k).expect("query");
    println!("\ntop-{k} nodes for query {q} (gather kernel: {}):", searcher.kernel().name());
    for (rank, item) in result.items.iter().enumerate() {
        println!("  #{:<2} node {:<6} proximity {:.6e}", rank + 1, item.node, item.proximity);
    }
    // The search stops once no uncomputed node can still reach the k-th
    // best proximity: each one is bounded by the exact sum of what its
    // computed in-neighbours hand it plus its largest in-share of the
    // mass `M_q` not yet accounted for. The BFS frontier is expanded
    // lazily, fused into the search loop: on early-terminated queries
    // `frontier_expanded` < `reachable`, and `reachable` itself is only the
    // *discovered* count — the pruned-away layers are never even enumerated.
    println!(
        "visited {} nodes, computed {} exact proximities, expanded {} of {} discovered, \
         early-termination: {}, query mass M_q = {:.6}",
        result.stats.visited,
        result.stats.proximity_computations,
        result.stats.frontier_expanded,
        result.stats.reachable,
        result.stats.terminated_early,
        result.stats.query_mass
    );
    // The gather is observable per query: what the host resolved to,
    // how many rows it ran, and what they streamed.
    println!(
        "gather: {} — {} rows scalar / {} wide, {} index bytes touched",
        result.stats.kernel,
        result.stats.rows_scalar,
        result.stats.rows_wide,
        result.stats.bytes_touched
    );

    // 4. Verify exactness against the iterative definition (Equation 1).
    let truth = IterativeRwr::new(&graph, index.restart_probability()).top_k(q, k);
    let exact = result
        .items
        .iter()
        .zip(&truth)
        .all(|(got, want)| (got.proximity - want.1).abs() < 1e-9);
    println!("\nmatches iterative ground truth: {exact}");
    assert!(exact, "K-dash must be exact");

    // 5. The graph changes — serve it fresh without a rebuild. The
    //    dynamic engine applies a validated edit batch, refactorises the
    //    (cheap) LU, bounds the damage with a Gilbert–Peierls reach
    //    analysis, and re-solves only the dirty L⁻¹/U⁻¹ columns. The
    //    patched index — a new one; an index is never modified — is
    //    bit-for-bit what a from-scratch rebuild under the same node
    //    order would produce.
    let mut dynamic = DynamicIndex::new(index).expect("attach update engine");
    let far = (graph.num_nodes() / 2) as u32;
    let batch = UpdateBatch::new(vec![
        EdgeEdit::Insert { src: q, dst: far, weight: 3.0 },
        EdgeEdit::Insert { src: far, dst: q, weight: 1.0 },
    ])
    .expect("valid batch");
    let report = dynamic.apply(&batch).expect("incremental update");
    println!(
        "\nincremental update: {} edits in {:?} — re-eliminated {}/{} factor columns, re-solved \
         {}/{} L⁻¹ and {}/{} U⁻¹ columns (update epoch {})",
        report.edits,
        report.total_time(),
        report.dirty_factor_columns_recomputed,
        report.num_columns,
        report.dirty_linv_columns,
        report.num_columns,
        report.dirty_uinv_columns,
        report.num_columns,
        dynamic.index().update_epoch(),
    );

    // Queries see the edited graph immediately — and exactly.
    let fresh = dynamic.index().top_k(q, k).expect("fresh query");
    let edited_graph = graph
        .apply_edits(batch.edits())
        .expect("same edits apply to the raw graph");
    let fresh_truth = IterativeRwr::new(&edited_graph, 0.95).top_k(q, k);
    let fresh_exact = fresh
        .items
        .iter()
        .zip(&fresh_truth)
        .all(|(got, want)| (got.proximity - want.1).abs() < 1e-9);
    println!("fresh answers match the edited graph's ground truth: {fresh_exact}");
    assert!(fresh_exact, "updates must serve the edited graph exactly");
    assert!(
        fresh.items.iter().any(|item| item.node == far),
        "the freshly linked node should now rank in the top-{k}"
    );

    // 6. A queue of batches coalesces into one incremental pass — one
    //    refactorisation, one reach analysis, one re-solve — bit-identical
    //    to applying them one by one, with the epoch still advancing by
    //    the queue length. `predict` prices the queue without mutating
    //    anything. On the command line the same pair is
    //    `kdash update --coalesce --dry-run`.
    let queue = vec![
        UpdateBatch::new(vec![EdgeEdit::Reweight { src: q, dst: far, weight: 1.5 }])
            .expect("valid batch"),
        UpdateBatch::new(vec![EdgeEdit::Delete { src: far, dst: q }]).expect("valid batch"),
    ];
    let prediction = dynamic.predict(&queue).expect("dry-run prediction");
    let coalesced = dynamic.apply_coalesced(&queue).expect("coalesced update");
    println!(
        "coalesced {} batches in {:?} — predicted ≤{} factor candidates, re-eliminated {} \
         (update epoch {})",
        coalesced.batches,
        coalesced.total_time(),
        prediction.candidate_factor_columns,
        coalesced.dirty_factor_columns_recomputed,
        dynamic.index().update_epoch(),
    );
    assert!(coalesced.dirty_factor_columns_recomputed <= prediction.candidate_factor_columns);

    // 7. Memory-bound deployments: a *sparsified* build drops inverse
    //    entries below a tolerance ε at precompute time, shrinking the
    //    stored index. Queries then run certified residual refinement —
    //    Gauss–Seidel sweeps or preconditioned corrections through the
    //    truncated inverses, whichever is cheaper (at the default c = 0.95
    //    only sweeps, which read no stored inverse), until the residual
    //    norm *proves* the top-k set and order — so the ranking stays
    //    exact. Uncertifiable queries (two proximities inside the same
    //    ulp) fail loudly instead of guessing. On the command line:
    //    `kdash build --drop-tol 1e-5`.
    let sparsified = IndexBuilder::new()
        .drop_tolerance(1e-5)
        .threads(0)
        .build(&edited_graph)
        .expect("sparsified build");
    let dense_nnz = dynamic.index().stats().nnz_l_inv + dynamic.index().stats().nnz_u_inv;
    let sparse_nnz = sparsified.stats().nnz_l_inv + sparsified.stats().nnz_u_inv;
    println!(
        "\nsparsified tier (ε = 1e-5): {sparse_nnz} inverse nnz vs {dense_nnz} dense \
         ({:.1}% of the dense store), dropped l1 mass {:.3e}",
        100.0 * sparse_nnz as f64 / dense_nnz.max(1) as f64,
        sparsified.dropped_mass(),
    );
    let refined = sparsified.top_k(q, k).expect("refined query");
    // `dynamic` serves the coalesced queue's graph; the sparsified index
    // was built on the same edited graph *before* that queue, so compare
    // against the pre-queue exact ranking captured in `fresh`.
    let same_ranking =
        refined.items.iter().zip(&fresh.items).all(|(a, b)| a.node == b.node);
    println!(
        "refined top-{k} matches the dense-exact ranking: {same_ranking} \
         ({} refinement step(s), {} extra nnz streamed)",
        refined.stats.refinement_iterations, refined.stats.refinement_nnz,
    );
    assert!(same_ranking, "the sparsified tier must keep the ranking exact");

    // 8. Durability: journaled updates survive a crash. Each batch is
    //    appended + fsynced to a sidecar write-ahead journal *before* the
    //    engine switches to the patched index, so an acknowledged update can never be lost —
    //    recovery replays the journal onto the last snapshot and lands
    //    bit-identically on the pre-crash index. On the command line:
    //    `kdash update --journal`, then after a crash `kdash recover`
    //    (or just run `update --journal` again — it auto-recovers).
    let dir = std::env::temp_dir().join(format!("kdash-quickstart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snapshot_path = dir.join("quickstart.kdash");
    let journal_path = Journal::sidecar_path(&snapshot_path);
    kdash_core::save_atomic(dynamic.index(), &snapshot_path).expect("snapshot");
    let journal = Journal::create(&journal_path, dynamic.index().update_epoch())
        .expect("create journal");
    let epoch_before = dynamic.index().update_epoch();
    let mut journaled = DynamicIndex::new(dynamic.into_index())
        .expect("attach")
        .journaled(journal)
        .expect("attach journal");
    let durable_batch = UpdateBatch::new(vec![
        EdgeEdit::Reweight { src: q, dst: far, weight: 2.0 },
        EdgeEdit::Insert { src: far, dst: q, weight: 1.0 },
    ])
    .expect("valid batch");
    journaled.apply(&durable_batch).expect("journaled update");
    let want = journaled.index().top_k(q, k).expect("pre-crash query");
    drop(journaled); // the "crash": the new epoch exists only in the journal

    let snapshot = kdash_core::KdashIndex::load(
        std::io::BufReader::new(std::fs::File::open(&snapshot_path).expect("snapshot survives")),
    )
    .expect("snapshot loads");
    let (mut recovered, recovery) =
        DynamicIndex::recover(snapshot, &journal_path).expect("recovery");
    println!(
        "\ncrash recovery: snapshot epoch {} + {} journaled batch(es) -> epoch {} in {:?}",
        recovery.snapshot_epoch,
        recovery.replayed_batches,
        recovery.final_epoch,
        recovery.replay_time,
    );
    assert_eq!(recovery.snapshot_epoch, epoch_before);
    let got = recovered.index().top_k(q, k).expect("post-recovery query");
    let identical = got
        .items
        .iter()
        .zip(&want.items)
        .all(|(a, b)| a.node == b.node && a.proximity.to_bits() == b.proximity.to_bits());
    println!("post-recovery answers are bit-identical to pre-crash: {identical}");
    assert!(identical, "recovery must reproduce the acknowledged state exactly");
    // Fold the journal into a fresh snapshot (the journal truncates).
    recovered.checkpoint(&snapshot_path).expect("checkpoint");
    let _ = std::fs::remove_dir_all(&dir);

    // 9. Serving: publish the index as immutable epoch snapshots behind
    //    an `EpochStore` and answer queries from a `ServeLoop` worker
    //    pool. Readers pin an epoch with one atomic load and never
    //    block on writers; `EpochWriter::apply` prepares epoch N+1 off
    //    the serving path and publishes the engine's own `Arc` (a
    //    pointer swap, nothing is copied), so the freshness lag
    //    (serving epoch behind the latest acked write) is non-zero only
    //    inside the swap-install window and converges back to 0. On
    //    the command line: `kdash serve <index> --bench`.
    let (mut writer, store) = EpochWriter::new(recovered);
    let serve_loop = ServeLoop::start(std::sync::Arc::clone(&store), ServeOptions::default())
        .expect("start serve loop");
    writer.attach_metrics(serve_loop.metrics());
    let served = serve_loop.query_blocking(q, k).expect("served query");
    let serving_matches = served
        .result
        .items
        .iter()
        .zip(&got.items)
        .all(|(a, b)| a.node == b.node && a.proximity.to_bits() == b.proximity.to_bits());
    println!(
        "\nserving tier: {} worker(s) at epoch {}, served answer bit-identical to a \
         standalone query: {serving_matches}",
        serve_loop.workers(),
        served.epoch,
    );
    assert!(serving_matches, "serving must not change answers");

    // Update concurrently with reads: queries keep flowing against the
    // pinned epoch while each write installs, then pick up the new
    // epoch at the next batch boundary.
    let target_epoch = store.epoch() + 3;
    let mut max_lag_seen = 0;
    std::thread::scope(|scope| {
        let writer = &mut writer;
        scope.spawn(move || {
            for edit in [
                EdgeEdit::Reweight { src: q, dst: far, weight: 2.5 },
                EdgeEdit::Delete { src: far, dst: q },
                EdgeEdit::Insert { src: far, dst: q, weight: 0.5 },
            ] {
                let batch = UpdateBatch::new(vec![edit]).expect("valid batch");
                writer.apply(&batch).expect("concurrent update");
            }
        });
        loop {
            let resp = serve_loop.query_blocking(q, k).expect("query during updates");
            max_lag_seen = max_lag_seen.max(resp.freshness_lag);
            if resp.epoch >= target_epoch {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    });
    let final_resp = serve_loop.query_blocking(q, k).expect("settled query");
    println!(
        "3 updates applied under live reads: serving epoch {} (target {target_epoch}), \
         worst freshness lag seen {max_lag_seen} epoch(s), settled lag {} — answers always \
         came from one consistent pinned snapshot",
        final_resp.epoch,
        store.freshness_lag(),
    );
    assert_eq!(final_resp.epoch, target_epoch, "serving must converge to the acked epoch");
    assert_eq!(store.freshness_lag(), 0, "lag must settle once installs finish");
    let reference = writer.engine().index().top_k(q, k).expect("reference query");
    let fresh_serving = final_resp
        .result
        .items
        .iter()
        .zip(&reference.items)
        .all(|(a, b)| a.node == b.node && a.proximity.to_bits() == b.proximity.to_bits());
    assert!(fresh_serving, "settled serving answers must match the latest index exactly");
    let m = serve_loop.metrics().snapshot();
    println!(
        "serve metrics: {} queries, p50 {:.3}ms p99 {:.3}ms, {} epoch swaps (worst install \
         {:.3}ms), {} shed",
        m.completed, m.latency_p50_ms, m.latency_p99_ms, m.swaps, m.swap_max_ms, m.shed,
    );
    serve_loop.shutdown();
}
