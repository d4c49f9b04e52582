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
use kdash_graph::{GraphBuilder, NodeId};
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
    // nonempty rest into it. Both indexes are built before either window
    // opens, and the windows run one after the other: the counter is
    // process-wide.
    let ba = barabasi_albert(600, 3, 42);
    let graph = GraphBuilder::from_edges(600, ba.edges().filter(|&(s, d, _)| d < 580 || s > d));
    let graph = break_ties(&graph.build().unwrap()).unwrap();
    let dense = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
    let sparsified =
        KdashIndex::build(&graph, IndexOptions { drop_tolerance: 1e-3, ..Default::default() })
            .unwrap();
    assert!(sparsified.needs_refinement());
    let n = graph.num_nodes() as NodeId;
    let k = 10;

    for (tier, index) in [("dense", &dense), ("sparsified", &sparsified)] {
        let mut searcher = index.searcher();
        let mut result = TopKResult::default();

        // Warm-up: one query per distinct BFS shape we are about to
        // replay, letting every buffer reach its high-water capacity.
        for q in 0..n {
            searcher.top_k_into(q, k, &mut result).unwrap();
        }

        let before = allocations();
        let mut anchored = 0;
        for round in 0..3 {
            for q in 0..n {
                searcher.top_k_into(q, k, &mut result).unwrap();
                assert_eq!(result.items.len(), k, "{tier} round {round} q {q}");
                let (scanned, reachable) =
                    (result.stats.frontier_expanded, result.stats.reachable);
                anchored += usize::from(0 < scanned && scanned < reachable);
            }
        }
        let after = allocations();
        if tier == "sparsified" {
            // The window must cover the reach-anchor path too: a reachable
            // set merged from the anchor's closure and what the query
            // scanned beside it, not a drained BFS.
            assert!(anchored > 0, "no sparsified query merged beside the anchor's closure");
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
