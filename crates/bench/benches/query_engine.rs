//! Query-engine headline benchmark (PR 1: scatter/gather + `Searcher`
//! reuse; PR 3: lazy BFS + wide gather kernels; PR 4: blocked u16 index
//! layout + prefetched candidate batching; PR 14: one branch-free
//! four-lane gather over a zero-filled query column).
//!
//! On a ~65k-node RMAT graph (the paper's Social/Email stand-in):
//!
//! * `kernel_hub/*`, `kernel_mixed/*`, `kernel_cold/*` — the gather
//!   kernels in isolation over three row populations (hit-dominated hub
//!   candidates, the PR 1 strided mix, and miss-dominated cold rows),
//!   under every kernel the host can run (`blocked_*`).
//! * `query_engine/*` — end-to-end top-k sweeps: the eager merge-join
//!   oracle and one reused lazy `Searcher` per kernel.
//! * `query_engine_k5/*` — the traversal-bound light-query series.
//!
//! The setup prints the index-bytes/nnz report (against flat CSR), the
//! lazy-frontier counters, the **measured hit rate** of the end-to-end
//! k = 50 series (stored entries of the gathered rows that meet a loaded
//! position of the query column ÷ all their stored entries) and the same
//! per row population. The kernel multiplies every entry regardless, so
//! the hit rate changes no answer and no code path; it is printed because
//! the repo's benchmark cannot see the one regime where an
//! entry-skipping loop could win — a DRAM-resident index whose gathered
//! rows are miss-dominated — and this number says whether real queries at
//! this scale are in it. `KDASH_BENCH_SCALE` overrides the RMAT scale
//! (default 16).

use criterion::{criterion_group, criterion_main, Criterion};
use kdash_core::{paper, IndexOptions, KdashIndex, ResolvedKernel, Searcher, TopKResult};
use kdash_datagen::{rmat, RmatParams};
use kdash_graph::{BfsScratch, NodeId};
use kdash_sparse::{GatherCounters, GatherScratch, ProximityStore, ScatteredColumn};

/// The kernels this host can run, labelled for the report: the
/// reference order, then every lane body.
fn host_kernels() -> Vec<(&'static str, ResolvedKernel)> {
    let bodies = ResolvedKernel::host_bodies();
    std::iter::once(ResolvedKernel::reference()).chain(bodies).map(|k| (k.name(), k)).collect()
}

/// Which positions of a dimension-`n` vector the sparse column occupies.
fn mask_of(n: usize, idx: &[NodeId]) -> Vec<bool> {
    let mut mask = vec![false; n];
    for &i in idx {
        mask[i as usize] = true;
    }
    mask
}

/// Stored entries of a row that meet an occupied position.
fn hits(cols: &[NodeId], mask: &[bool]) -> usize {
    cols.iter().filter(|&&c| mask[c as usize]).count()
}

/// Sweeps `rows` through one store/kernel pair, returning the checksum.
fn sweep(
    store: &ProximityStore,
    kernel: ResolvedKernel,
    rows: &[NodeId],
    column: &ScatteredColumn,
    scratch: &mut GatherScratch,
) -> f64 {
    let mut counters = GatherCounters::default();
    let mut acc = 0.0;
    for &r in rows {
        acc += store.row_gather(kernel, r, column, scratch, &mut counters);
    }
    std::hint::black_box(acc)
}

fn bench(c: &mut Criterion) {
    let scale: u32 = std::env::var("KDASH_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let n = 1usize << scale;
    let graph = rmat(scale, n * 4, RmatParams::default(), 42);
    let t0 = std::time::Instant::now();
    let index = KdashIndex::build(&graph, IndexOptions::default()).expect("index build");
    let blocked = index.uinv_rows();
    println!(
        "query_engine setup: rmat scale {scale}: {} nodes, {} edges; index built in {:.1?} \
         (nnz L-inv {}, nnz U-inv {})",
        graph.num_nodes(),
        graph.num_edges(),
        t0.elapsed(),
        index.stats().nnz_l_inv,
        index.stats().nnz_u_inv,
    );
    println!(
        "index bytes/nnz: blocked {:.3} vs flat CSR 4.000 ({:.1}% index-traffic cut, {} runs)",
        blocked.index_bytes() as f64 / blocked.nnz() as f64,
        100.0 * (1.0 - blocked.index_bytes() as f64 / (4 * blocked.nnz()) as f64),
        blocked.num_runs(),
    );

    // Deterministic query mix over non-dangling nodes: hubs and leaves both
    // appear, which is exactly the skew the engine must absorb. One
    // measured iteration sweeps the *whole* mix, so samples are comparable
    // (per-query latencies vary by orders of magnitude).
    let queries: Vec<NodeId> = kdash_bench::queries_for(&graph, 32);
    let k = 50;

    let flat_csr = blocked.to_csr();

    // Lazy-frontier and gather-byte counters over the mix, and the
    // measured hit rate of the rows those queries really gather: the
    // search visits the lazy BFS order's prefix, so replaying the
    // traversal to the same depth names the rows.
    {
        let mut searcher = index.searcher();
        let mut bfs = BfsScratch::new(graph.num_nodes());
        let permuted = index.permuted_graph();
        let (mut expanded, mut discovered, mut full, mut early) = (0usize, 0usize, 0usize, 0usize);
        let (mut bytes, mut val_bytes, mut rows) = (0usize, 0usize, 0usize);
        let (mut stored, mut matched) = (0usize, 0usize);
        for &q in &queries {
            let lazy = searcher.top_k(q, k).expect("query");
            let eager = paper::top_k_merge_join(&index, &[q], k).expect("query");
            expanded += lazy.stats.frontier_expanded;
            discovered += lazy.stats.reachable;
            full += eager.stats.reachable;
            early += lazy.stats.terminated_early as usize;
            bytes += lazy.stats.bytes_touched;
            val_bytes += lazy.stats.value_bytes_touched;
            rows += lazy.stats.proximity_computations;

            let mask = mask_of(graph.num_nodes(), index.linv_query_column(q).0);
            bfs.begin(permuted, index.permutation().new_of(q));
            while bfs.num_expanded() < lazy.stats.frontier_expanded
                && bfs.expand_next_layer(permuted) > 0
            {}
            for &u in &bfs.order()[..lazy.stats.proximity_computations] {
                let (cols, _) = flat_csr.row(u);
                stored += cols.len();
                matched += hits(cols, &mask);
            }
        }
        println!(
            "lazy frontier over {} queries (k={k}): expanded {expanded} / discovered \
             {discovered} / full reachable {full} ({} early-terminated); \
             traversal work = {:.1}% of eager",
            queries.len(),
            early,
            100.0 * expanded as f64 / full.max(1) as f64,
        );
        println!(
            "gathers (blocked, k={k}): {rows} rows, {stored} stored entries; index bytes {bytes}, \
             model value bytes {val_bytes}; measured hit rate {:.4} ({matched} hits)",
            matched as f64 / stored.max(1) as f64,
        );
    }

    // Kernel-level comparison, isolated from BFS and heap costs: the
    // *hub-most* query of the mix (densest scattered `L⁻¹` column — the
    // per-query cost profile the paper's skewed datasets stress) against
    // three row populations of the stored U⁻¹.
    let hub_query = *queries
        .iter()
        .max_by_key(|&&q| index.linv_query_column(q).0.len())
        .expect("non-empty query mix");
    let (col_idx, col_val) = index.linv_query_column(hub_query);
    println!("kernel column: query {hub_query}, nnz(L⁻¹ e_q) = {}", col_idx.len());
    let mut column = ScatteredColumn::new(graph.num_nodes());
    column.load(col_idx, col_val);
    let mut scratch = GatherScratch;

    // Row populations (analysed on the CSR form, benched on the store):
    //  * mixed — the PR 1 stride over all rows vs the hub column
    //            (continuity baseline);
    //  * hub   — the 512 highest-overlap rows vs the hub column
    //            (hit-dominated);
    //  * cold  — the same dense rows against the *sparsest* query column
    //            of the mix (miss-dominated: big DRAM-resident rows whose
    //            entries almost all multiply a zero).
    let column_mask = mask_of(graph.num_nodes(), col_idx);
    let mixed: Vec<NodeId> = (0..graph.num_nodes() as NodeId).step_by(7).collect();
    let mut by_overlap: Vec<(usize, usize, NodeId)> = (0..graph.num_nodes() as NodeId)
        .map(|r| {
            let (cols, _) = flat_csr.row(r);
            (hits(cols, &column_mask), cols.len(), r)
        })
        .collect();
    by_overlap.sort_by_key(|&(matched, nnz, r)| (std::cmp::Reverse(matched), nnz, r));
    let hubs: Vec<NodeId> = by_overlap.iter().take(512).map(|&(_, _, r)| r).collect();

    let cold_query = *queries
        .iter()
        .filter(|&&q| index.linv_query_column(q).0.len() > 0)
        .min_by_key(|&&q| index.linv_query_column(q).0.len())
        .expect("non-empty query mix");
    let (cold_idx, cold_val) = index.linv_query_column(cold_query);
    println!("cold column: query {cold_query}, nnz(L⁻¹ e_q) = {}", cold_idx.len());
    let mut cold_column = ScatteredColumn::new(graph.num_nodes());
    cold_column.load(cold_idx, cold_val);
    let cold_mask = mask_of(graph.num_nodes(), cold_idx);

    // Per-population observability: the measured hit rate.
    for (label, rows, mask) in
        [("hub", &hubs, &column_mask), ("mixed", &mixed, &column_mask), ("cold", &hubs, &cold_mask)]
    {
        let (mut nnz_total, mut matched_total) = (0usize, 0usize);
        for &r in rows.iter() {
            let (cols, _) = flat_csr.row(r);
            nnz_total += cols.len();
            matched_total += hits(cols, mask);
        }
        println!(
            "{label} rows: {} rows, avg nnz {:.0}, measured hit rate {:.1}%",
            rows.len(),
            nnz_total as f64 / rows.len().max(1) as f64,
            100.0 * matched_total as f64 / nnz_total.max(1) as f64,
        );
    }

    // The three kernel series groups × every kernel.
    for (group_name, rows, col) in [
        ("kernel_hub", &hubs, &column),
        ("kernel_mixed", &mixed, &column),
        ("kernel_cold", &hubs, &cold_column),
    ] {
        let mut group = c.benchmark_group(group_name);
        group.sample_size(30);
        if group_name == "kernel_mixed" {
            // Continuity with BENCH_PR1/PR3: the merge join over the mix,
            // on the flat matrix those PRs measured (the blocked decode
            // would otherwise pollute the cross-PR comparison).
            let rows = rows.clone();
            group.bench_function("merge_join", |b| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for &r in &rows {
                        acc += flat_csr.row_dot_sparse(r, col_idx, col_val);
                    }
                    std::hint::black_box(acc)
                });
            });
        }
        for (kernel_label, kernel) in host_kernels() {
            group.bench_function(format!("blocked_{kernel_label}"), |b| {
                b.iter(|| sweep(blocked, kernel, rows, col, &mut scratch));
            });
        }
        group.finish();
    }

    let mut group = c.benchmark_group("query_engine");
    group.sample_size(20);

    group.bench_function("merge_join_transient", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &q in &queries {
                total += paper::top_k_merge_join(&index, &[q], k).expect("query").items.len();
            }
            std::hint::black_box(total)
        });
    });

    // One reused lazy Searcher per kernel — the serving configuration.
    for (label, kernel) in host_kernels() {
        let mut searcher = Searcher::with_kernel(&index, kernel);
        let mut out = TopKResult::default();
        group.bench_function(format!("lazy_reused_{label}"), |b| {
            b.iter(|| {
                let mut total = 0usize;
                for &q in &queries {
                    searcher.top_k_into(q, k, &mut out).expect("query");
                    total += out.items.len();
                }
                std::hint::black_box(total)
            });
        });
    }
    group.finish();

    // Light queries (k = 5): Lemma 2 fires after a couple of layers, so
    // the *traversal* — not the gather kernel — is the per-query cost.
    let mut light = c.benchmark_group("query_engine_k5");
    light.sample_size(20);
    {
        let k_light = 5;
        let mut searcher = index.searcher();
        let (mut expanded, mut full) = (0usize, 0usize);
        let mut out = TopKResult::default();
        for &q in &queries {
            searcher.top_k_into(q, k_light, &mut out).expect("query");
            expanded += out.stats.frontier_expanded;
            // The eager oracle expands the whole reachable set up front.
            let eager = paper::top_k_merge_join(&index, &[q], k_light).expect("query");
            full += eager.stats.frontier_expanded;
        }
        println!(
            "k=5 frontier: lazy expands {expanded} nodes vs eager {full} \
             ({:.1}% of the eager traversal)",
            100.0 * expanded as f64 / full.max(1) as f64
        );
        light.bench_function("lazy_reused_auto", |b| {
            b.iter(|| {
                let mut total = 0usize;
                for &q in &queries {
                    searcher.top_k_into(q, k_light, &mut out).expect("query");
                    total += out.items.len();
                }
                std::hint::black_box(total)
            });
        });
    }
    light.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
