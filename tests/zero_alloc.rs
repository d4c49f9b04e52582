//! Pins down the `Searcher` hot-path contract: after one warm-up query,
//! `Searcher::top_k_into` performs **zero heap allocations**.
//!
//! A counting global allocator wraps the system one; the warm-up query
//! sizes every reusable buffer (BFS order, scattered column, heap, result
//! items — and on a sparsified index the refinement vectors, the
//! id-sorted reachable list and the reach-anchor path's queue), after
//! which repeated queries — same k,
//! arbitrary query nodes — must leave the allocation counter untouched.

use kdash_core::{IndexOptions, KdashIndex, TopKResult};
use kdash_datagen::barabasi_albert;
use kdash_graph::{BfsTree, GraphBuilder, NodeId};
use kdash_harness::break_ties;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn top_k_into_is_allocation_free_after_warmup() {
    // A hub-rich graph so queries traverse substantial candidate sets,
    // dense-exact (the stop-rule search, whose per-node slots and `n + 1`
    // hot-stack entries are sized with the workspace and never grow) and
    // sparsified (certified refinement over the whole reachable set;
    // tie-free weights, or the loop would rightly refuse to rank). The 20
    // newest nodes keep only the edges they sent, so their queries reach
    // the hub from outside its closure and the anchor path merges a
    // nonempty rest into it. At the default c every step of a sparsified
    // query is a sweep; at c = 0.15 the first step is a correction, which
    // gathers through the workspace kernel, and the planner mixes both
    // kinds after it. Every index (and each query's `Ũ⁻¹` pass cost) is
    // ready before any window opens, and the windows run one after the
    // other: the counter is process-wide.
    let ba = barabasi_albert(600, 3, 42);
    let graph = GraphBuilder::from_edges(600, ba.edges().filter(|&(s, d, _)| d < 580 || s > d));
    let graph = break_ties(&graph.build().unwrap()).unwrap();
    let dense = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
    let sparsified =
        KdashIndex::build(&graph, IndexOptions { drop_tolerance: 1e-3, ..Default::default() })
            .unwrap();
    let wide_options =
        IndexOptions { drop_tolerance: 1e-3, restart_probability: 0.15, ..Default::default() };
    let wide = KdashIndex::build(&graph, wide_options).unwrap();
    assert!(sparsified.needs_refinement() && wide.needs_refinement());
    let n = graph.num_nodes() as NodeId;
    // Stored `Ũ⁻¹` entries of one pass over each query's reachable set.
    let (rows, perm) = (wide.uinv_rows(), wide.permutation());
    let pass: Vec<usize> = (0..n)
        .map(|q| {
            let reach = BfsTree::new(&graph, q).order;
            reach.iter().map(|&v| rows.row_stat(perm.new_of(v)).nnz as usize).sum()
        })
        .collect();
    let k = 10;

    let tiers = [("dense", &dense), ("sparsified", &sparsified), ("sparsified c 0.15", &wide)];
    for (tier, index) in tiers {
        let mut searcher = index.searcher();
        let mut result = TopKResult::default();

        // Warm-up: one query per distinct BFS shape we are about to
        // replay, letting every buffer reach its high-water capacity.
        for q in 0..n {
            searcher.top_k_into(q, k, &mut result).unwrap();
        }

        let before = allocations();
        let (mut anchored, mut mixed) = (0, 0);
        for round in 0..3 {
            for q in 0..n {
                searcher.top_k_into(q, k, &mut result).unwrap();
                assert_eq!(result.items.len(), k, "{tier} round {round} q {q}");
                let (scanned, reachable) =
                    (result.stats.frontier_expanded, result.stats.reachable);
                anchored += usize::from(0 < scanned && scanned < reachable);
                if std::ptr::eq(index, &wide) {
                    // Every correction, the first step included, gathers
                    // exactly one pass.
                    let passes = result.stats.nnz_gathered / pass[q as usize];
                    assert!(passes >= 1, "{tier} q {q}: the first step was not a correction");
                    let sweeps = result.stats.refinement_iterations + 1 - passes;
                    mixed += usize::from(sweeps > 0 && passes > 1);
                }
            }
        }
        let after = allocations();
        if tier != "dense" {
            // The window must cover the reach-anchor path too: a reachable
            // set merged from the anchor's closure and what the query
            // scanned beside it, not a drained BFS.
            assert!(anchored > 0, "{tier}: no query merged beside the anchor's closure");
        }
        if std::ptr::eq(index, &wide) {
            assert!(mixed > 0, "{tier}: no query mixed sweeps with corrections");
        }
        assert_eq!(
            after - before,
            0,
            "{tier}: Searcher::top_k_into allocated {} times across {} warmed-up queries",
            after - before,
            3 * n
        );
    }
}

#[test]
fn transient_searchers_do_allocate() {
    // Sanity check that the counter actually observes the transient path —
    // otherwise the zero assertion above would be vacuous.
    let graph = barabasi_albert(200, 3, 7);
    let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
    let before = allocations();
    let _ = index.top_k(0, 10).unwrap();
    assert!(allocations() > before, "transient top_k must allocate its workspace");
}
