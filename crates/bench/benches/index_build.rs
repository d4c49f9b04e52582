//! PR 2 headline benchmark: the staged build pipeline.
//!
//! Times full `IndexBuilder` runs on an RMAT graph (the paper's Figure 6
//! workload shape), printing one line per pipeline stage — ordering /
//! factorization / inversion / assemble — for a configurable
//! list of inversion thread counts, then the sequential-vs-parallel
//! speedup. Headline numbers land in `BENCH_PR2.json` at the repo root.
//!
//! It then times the three precompute kernels on their own — LU, and
//! `L⁻¹`, `U⁻¹` of the hybrid-ordered `W` at one worker and at two, best
//! of `KDASH_KERNEL_REPS` — and prints each beside the multiply-subtracts
//! its column solves counted and the share of them that ran in the
//! factor's dense tail: ns per multiply-subtract is the figure to watch
//! (≈ 0.3–0.5 where the tail carries the work, 1–3 where the sparse
//! head's scatter and pops do), next to the seconds `experiments fig6`
//! tabulates for the same kernels. A `joint` row per worker count times
//! the build's inversion stage: both triangles in one pool, `U⁻¹`
//! transposed into rows (its tally sums the two triangles'). Its seconds
//! against the `linv` and `uinv` rows' sum are what the shared pool and
//! the transpose's overlap with `L⁻¹`'s last solves buy. The same three
//! rows follow at `ε = 1e-4` (`linv_eps1e-4`, …): the truncating solve
//! of a certified build, whose ns per multiply-subtract reads beside the
//! exact kernels'.
//!
//! This bench measures each configuration **once** with direct wall-clock
//! timing instead of going through the criterion stand-in: a build takes
//! minutes at the default scale, and the harness's warm-up alone would
//! triple the cost without improving a measurement this macroscopic.
//!
//! Environment knobs:
//!
//! * `KDASH_BENCH_SCALE`   — RMAT scale (default 16 ⇒ 65,536 nodes).
//! * `KDASH_BUILD_THREADS` — comma-separated thread counts to measure
//!   (default `1,0`; `0` = one worker per available core).
//! * `KDASH_KERNEL_REPS`   — repetitions of each kernel timing (default 3).

use kdash_core::{compute_ordering, BuildReport, IndexBuilder, NodeOrdering};
use kdash_datagen::{rmat, RmatParams};
use kdash_graph::CsrGraph;
use kdash_sparse::{
    sparse_lu_tallied, sparsify_factors_with, sparsify_lower_unit_with, sparsify_upper_with,
    transition_matrix, w_matrix, DanglingPolicy, InvertOptions, SolveTally,
};
use std::time::Instant;

fn stage_line(report: &BuildReport) -> String {
    report
        .stages
        .iter()
        .map(|t| format!("{} {:.3?}", t.stage.name(), t.duration))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Best wall-clock of `reps` runs of `f`, in seconds, and its last result.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut run = || {
        let t = Instant::now();
        let out = f();
        (t.elapsed().as_secs_f64(), out)
    };
    let mut best = run();
    for _ in 1..reps {
        let next = run();
        best = (best.0.min(next.0), next.1);
    }
    best
}

/// LU / `L⁻¹` / `U⁻¹` of the hybrid-ordered `W`: one line for the LU
/// (one thread, always), one per inversion and worker count, and one per
/// worker count for both inversions in one pool — exact, then at
/// `ε = 1e-4`.
fn kernel_table(graph: &CsrGraph, reps: usize) {
    let permuted = graph.permute(&compute_ordering(graph, NodeOrdering::Hybrid)).expect("permute");
    let a = transition_matrix(&permuted, DanglingPolicy::Keep);
    let w = w_matrix(&a, 0.95).expect("W");
    let line = |kernel: &str, threads: usize, seconds: f64, tally: SolveTally| {
        println!(
            "bench index_build/kernel_{kernel}/threads_{threads}: {seconds:.4} s, {:.3} ns per \
             multiply-subtract ({:.1} M, {:.1} % in a tail of {} columns)",
            seconds * 1e9 / tally.multiply_subtracts.max(1) as f64,
            tally.multiply_subtracts as f64 / 1e6,
            100.0 * tally.tail_share(),
            tally.tail_columns,
        );
    };
    let (lu_s, (factors, lu)) = best_of(reps, || sparse_lu_tallied(&w).expect("LU"));
    line("lu", 1, lu_s, lu);
    for (eps, suffix) in [(0.0, ""), (1e-4, "_eps1e-4")] {
        for threads in [1usize, 2] {
            let options = InvertOptions { threads };
            let (l, u) = (&factors.l, &factors.u);
            let (l_s, linv) =
                best_of(reps, || sparsify_lower_unit_with(l, eps, options).expect("L⁻¹"));
            let (u_s, uinv) =
                best_of(reps, || sparsify_upper_with(u, eps, options).expect("U⁻¹"));
            let (joint_s, joint) = best_of(reps, || {
                sparsify_factors_with(&factors, eps, options).expect("L⁻¹, U⁻¹")
            });
            line(&format!("linv{suffix}"), threads, l_s, linv.tally);
            line(&format!("uinv{suffix}"), threads, u_s, uinv.tally);
            let (l, u) = (joint.linv.tally, joint.uinv.tally);
            let both = SolveTally {
                tail_columns: l.tail_columns + u.tail_columns,
                multiply_subtracts: l.multiply_subtracts + u.multiply_subtracts,
                tail_multiply_subtracts: l.tail_multiply_subtracts + u.tail_multiply_subtracts,
            };
            line(&format!("joint{suffix}"), threads, joint_s, both);
        }
    }
}

fn main() {
    let scale: u32 = std::env::var("KDASH_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let threads_list: Vec<usize> = std::env::var("KDASH_BUILD_THREADS")
        .ok()
        .map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 0]);

    let n = 1usize << scale;
    let graph = rmat(scale, n * 4, RmatParams::default(), 42);
    println!(
        "index_build setup: rmat scale {scale}: {} nodes, {} edges; cores available: {}",
        graph.num_nodes(),
        graph.num_edges(),
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
    );

    let mut totals: Vec<(usize, usize, f64)> = Vec::new(); // (requested, resolved, seconds)
    for &threads in &threads_list {
        let builder = IndexBuilder::new().ordering(NodeOrdering::Hybrid).threads(threads);
        let (index, report) = builder.build_with_report(&graph).expect("index build");
        let total = report.total();
        println!(
            "bench index_build/threads_{threads}: {:.1?} total [{}] (resolved {} workers, \
             nnz L-inv {}, nnz U-inv {})",
            total,
            stage_line(&report),
            report.inversion_threads,
            index.stats().nnz_l_inv,
            index.stats().nnz_u_inv,
        );
        totals.push((threads, report.inversion_threads, total.as_secs_f64()));
    }

    if let (Some(seq), Some(par)) = (
        totals.iter().find(|&&(requested, _, _)| requested == 1),
        totals.iter().find(|&&(requested, _, _)| requested != 1),
    ) {
        println!(
            "bench index_build/speedup: {:.2}x end-to-end ({} workers vs sequential)",
            seq.2 / par.2,
            par.1,
        );
    }

    let reps = std::env::var("KDASH_KERNEL_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(3);
    kernel_table(&graph, reps);
}
