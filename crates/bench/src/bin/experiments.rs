//! Regenerates every table and figure of the paper's evaluation (§6 and
//! appendices) on the synthetic dataset stand-ins.
//!
//! ```sh
//! cargo run --release -p kdash-bench --bin experiments -- all
//! cargo run --release -p kdash-bench --bin experiments -- fig2
//! ```
//!
//! Subcommands: `fig2 fig3 fig4 fig5 fig6 fig7 fig9 table2 sweep-c all`.
//! Environment: `KDASH_NODES` (dataset scale, default 1500),
//! `KDASH_QUERIES` (queries per measurement, default 20), `KDASH_SEED`.
//!
//! Absolute numbers differ from the paper (different hardware, Rust vs C,
//! synthetic data); the *shapes* — who wins, by how many orders of
//! magnitude, where the curves cross — are the reproduction target and are
//! recorded against the paper in EXPERIMENTS.md.

#![forbid(unsafe_code)]

use kdash_baselines::{Bpa, BpaOptions, IterativeRwr, NbLin, NbLinOptions, TopKEngine};
use kdash_bench::{all_datasets, dataset, queries_for, HarnessConfig};
use kdash_core::{compute_ordering_with_stats, paper, IndexOptions, KdashIndex, NodeOrdering};
use kdash_datagen::{dictionary, DatasetProfile};
use kdash_eval::{measure, precision_at_k, time_once, Table};
use kdash_sparse::{
    sparse_lu, sparsify_lower_unit_with, sparsify_upper_with, transition_matrix, w_matrix,
    DanglingPolicy, InvertOptions,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Duration;

fn main() {
    let command = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let config = HarnessConfig::from_env();
    println!(
        "# K-dash experiment harness — target n = {}, {} queries per point, seed {}\n",
        config.target_nodes, config.queries, config.seed
    );
    match command.as_str() {
        "fig2" => fig2(&config),
        "fig3" => fig3_fig4(&config, true),
        "fig4" => fig3_fig4(&config, false),
        "fig5" => fig5(&config),
        "fig6" => fig6(&config),
        "fig7" => fig7(&config),
        "fig9" => fig9(&config),
        "table2" => table2(&config),
        "sweep-c" => sweep_c(&config),
        "all" => {
            fig2(&config);
            fig3_fig4(&config, true);
            fig3_fig4(&config, false);
            fig5(&config);
            fig6(&config);
            fig7(&config);
            fig9(&config);
            table2(&config);
            sweep_c(&config);
        }
        other => {
            eprintln!(
                "unknown subcommand '{other}'; expected one of \
                 fig2 fig3 fig4 fig5 fig6 fig7 fig9 table2 sweep-c all"
            );
            std::process::exit(2);
        }
    }
}

fn fmt_s(d: Duration) -> String {
    format!("{:.3e}", d.as_secs_f64())
}

/// Median query wall-clock over the configured query set.
fn median_query_time(mut run: impl FnMut(kdash_graph::NodeId), queries: &[kdash_graph::NodeId]) -> Duration {
    let mut times: Vec<Duration> = queries
        .iter()
        .map(|&q| {
            let (_, m) = measure(3, || run(q));
            m.min
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Figure 2: wall-clock time of K-dash(5/25/50) vs NB_LIN(100/1000) vs
/// BPA(5/25/50) on the five datasets.
fn fig2(config: &HarnessConfig) {
    println!("## Figure 2 — query wall-clock time [s] per dataset\n");
    println!(
        "(paper: K-dash beats NB_LIN by >=4 orders of magnitude and BPA by more, on all datasets)\n"
    );
    let mut table = Table::new(vec![
        "dataset", "K-dash(5)", "K-dash(25)", "K-dash(50)", "NB_LIN(lo)", "NB_LIN(hi)",
        "BPA(5)", "BPA(25)", "BPA(50)",
    ]);
    for (profile, graph) in all_datasets(config) {
        let n = graph.num_nodes();
        let queries = queries_for(&graph, config.queries);
        let index = KdashIndex::build(&graph, IndexOptions::default()).expect("index");
        let rank_lo = config.scaled_rank(100, n);
        let rank_hi = config.scaled_rank(1000, n);
        let nblin_lo = NbLin::build(
            &graph,
            NbLinOptions { target_rank: rank_lo, restart_probability: 0.95, seed: config.seed },
        )
        .expect("nblin lo");
        let nblin_hi = NbLin::build(
            &graph,
            NbLinOptions { target_rank: rank_hi, restart_probability: 0.95, seed: config.seed },
        )
        .expect("nblin hi");
        let bpa = Bpa::build(
            &graph,
            BpaOptions {
                num_hubs: config.scaled_hubs(1000, n),
                restart_probability: 0.95,
                ..Default::default()
            },
        );
        let kd = |k: usize| {
            fmt_s(median_query_time(
                |q| {
                    let _ = index.top_k(q, k).expect("query");
                },
                &queries,
            ))
        };
        let nb = |e: &NbLin| {
            fmt_s(median_query_time(
                |q| {
                    let _ = e.top_k(q, 5);
                },
                &queries,
            ))
        };
        let bp = |k: usize| {
            fmt_s(median_query_time(
                |q| {
                    let _ = bpa.top_k(q, k);
                },
                &queries,
            ))
        };
        table.add_row(vec![
            format!("{profile} (n={n}, m={})", graph.num_edges()),
            kd(5),
            kd(25),
            kd(50),
            nb(&nblin_lo),
            nb(&nblin_hi),
            bp(5),
            bp(25),
            bp(50),
        ]);
    }
    table.print();
    println!();
}

/// Figures 3 and 4: precision (fig3) / wall-clock (fig4) of NB_LIN and BPA
/// against their parameter (SVD target rank / number of hubs) on the
/// Dictionary dataset. K-dash is the parameter-free horizontal line.
fn fig3_fig4(config: &HarnessConfig, precision_mode: bool) {
    let which = if precision_mode { "Figure 3 — precision@5" } else { "Figure 4 — wall-clock [s]" };
    println!("## {which} vs target rank / #hubs (Dictionary)\n");
    if precision_mode {
        println!("(paper: K-dash pinned at 1.0; NB_LIN well below 1 and rising with rank; BPA ~constant)\n");
    } else {
        println!("(paper: K-dash orders of magnitude below both; NB_LIN grows with rank; BPA shrinks with hubs)\n");
    }
    let graph = dataset(DatasetProfile::Dictionary, config);
    let n = graph.num_nodes();
    let queries = queries_for(&graph, config.queries);
    let k = 5usize;
    let exact = IterativeRwr::new(&graph, 0.95);
    let truths: Vec<Vec<kdash_graph::NodeId>> = queries
        .iter()
        .map(|&q| exact.top_k(q, k).into_iter().map(|(v, _)| v).collect())
        .collect();
    let index = KdashIndex::build(&graph, IndexOptions::default()).expect("index");

    let mut table = Table::new(vec!["paper param", "scaled param", "NB_LIN", "BPA", "K-dash"]);
    for paper_param in [100usize, 400, 700, 1000] {
        let scaled = config.scaled_rank(paper_param, n);
        let nblin = NbLin::build(
            &graph,
            NbLinOptions { target_rank: scaled, restart_probability: 0.95, seed: config.seed },
        )
        .expect("nblin");
        let bpa = Bpa::build(
            &graph,
            BpaOptions { num_hubs: scaled, restart_probability: 0.95, ..Default::default() },
        );
        let (nb_cell, bpa_cell, kd_cell) = if precision_mode {
            let avg = |f: &dyn Fn(kdash_graph::NodeId) -> Vec<kdash_graph::NodeId>| {
                let total: f64 = queries
                    .iter()
                    .zip(&truths)
                    .map(|(&q, truth)| precision_at_k(&f(q), truth, k))
                    .sum();
                format!("{:.3}", total / queries.len() as f64)
            };
            (
                avg(&|q| nblin.top_k(q, k).into_iter().map(|(v, _)| v).collect()),
                avg(&|q| bpa.top_k(q, k).into_iter().map(|(v, _)| v).collect()),
                avg(&|q| index.top_k(q, k).expect("query").nodes()),
            )
        } else {
            (
                fmt_s(median_query_time(|q| { let _ = nblin.top_k(q, k); }, &queries)),
                fmt_s(median_query_time(|q| { let _ = bpa.top_k(q, k); }, &queries)),
                fmt_s(median_query_time(|q| { let _ = index.top_k(q, k); }, &queries)),
            )
        };
        table.add_row(vec![
            paper_param.to_string(),
            scaled.to_string(),
            nb_cell,
            bpa_cell,
            kd_cell,
        ]);
    }
    table.print();
    println!();
}

/// Figure 5: ratio of inverse-matrix nonzeros to graph edges per
/// reordering strategy, plus the RCM / MinDegree extensions.
fn fig5(config: &HarnessConfig) {
    println!("## Figure 5 — nnz(L⁻¹)+nnz(U⁻¹) per edge, by reordering\n");
    println!("(paper: Degree/Cluster/Hybrid near 1–10; Random up to 10^4)\n");
    let orderings: Vec<NodeOrdering> = vec![
        NodeOrdering::Degree,
        NodeOrdering::Cluster,
        NodeOrdering::Hybrid,
        NodeOrdering::Random { seed: config.seed },
        NodeOrdering::ReverseCuthillMcKee,
        NodeOrdering::MinDegree,
    ];
    let mut headers = vec!["dataset".to_string()];
    headers.extend(orderings.iter().map(|o| o.name().to_string()));
    let mut table = Table::new(headers);
    for (profile, graph) in all_datasets(config) {
        let mut row = vec![format!("{profile} (m={})", graph.num_edges())];
        for &ordering in &orderings {
            let index = KdashIndex::build(&graph, IndexOptions { ordering, ..Default::default() })
                .expect("build");
            row.push(format!("{:.1}", index.stats().inverse_nnz_ratio()));
        }
        table.add_row(row);
    }
    table.print();
    println!();
}

/// Figure 6: precomputation time per reordering strategy.
fn fig6(config: &HarnessConfig) {
    println!("## Figure 6 — precomputation time [s] by reordering\n");
    println!("(paper: Degree/Cluster/Hybrid up to 140x faster than Random)\n");
    let orderings: Vec<NodeOrdering> = vec![
        NodeOrdering::Degree,
        NodeOrdering::Cluster,
        NodeOrdering::Hybrid,
        NodeOrdering::Random { seed: config.seed },
    ];
    let mut headers = vec!["dataset".to_string()];
    headers.extend(orderings.iter().map(|o| o.name().to_string()));
    let mut table = Table::new(headers);
    for (profile, graph) in all_datasets(config) {
        let mut row = vec![profile.name().to_string()];
        for &ordering in &orderings {
            let (index, d) = kdash_eval::time_once(|| {
                KdashIndex::build(&graph, IndexOptions { ordering, ..Default::default() })
                    .expect("build")
            });
            drop(index);
            row.push(fmt_s(d));
        }
        table.add_row(row);
    }
    table.print();
    println!();
    fig6_stages(config);
}

/// The three precompute kernels of Figure 6 under the hybrid ordering —
/// the two inversions at one and at two workers, so that a parallel
/// kernel losing to its sequential self is visible next to the figure it
/// would distort.
fn fig6_stages(config: &HarnessConfig) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("### Figure 6 by kernel — LU / L⁻¹ / U⁻¹ [s], inversions at 1 and 2 workers\n");
    println!("(hybrid ordering; available_parallelism = {cores})\n");
    let mut table = Table::new(
        ["dataset", "LU", "L⁻¹ t=1", "L⁻¹ t=2", "U⁻¹ t=1", "U⁻¹ t=2"].map(String::from).to_vec(),
    );
    for (profile, graph) in all_datasets(config) {
        let (perm, _) = compute_ordering_with_stats(&graph, NodeOrdering::Hybrid);
        let permuted = graph.permute(&perm).expect("permute");
        let a = transition_matrix(&permuted, DanglingPolicy::Keep);
        let w = w_matrix(&a, IndexOptions::default().restart_probability).expect("W");
        let (factors, lu_s) = kdash_eval::time_once(|| sparse_lu(&w).expect("LU"));
        let timed = |threads: usize| {
            let options = InvertOptions { threads };
            let (l, u) = (&factors.l, &factors.u);
            [
                time_once(|| sparsify_lower_unit_with(l, 0.0, options).expect("L⁻¹")).1,
                time_once(|| sparsify_upper_with(u, 0.0, options).expect("U⁻¹")).1,
            ]
        };
        let (one, two) = (timed(1), timed(2));
        let mut row = vec![profile.name().to_string(), fmt_s(lu_s)];
        for kernel in 0..2 {
            row.extend([fmt_s(one[kernel]), fmt_s(two[kernel])]);
        }
        table.add_row(row);
    }
    table.print();
    println!();
}

/// Figure 7: query time with and without the tree-estimation pruning.
fn fig7(config: &HarnessConfig) {
    println!("## Figure 7 — effect of tree estimation (query time [s])\n");
    println!("(paper: pruning up to 1020x faster, on every dataset)\n");
    let mut table = Table::new(vec![
        "dataset",
        "K-dash",
        "Without pruning",
        "speedup",
        "computed/expanded/reachable",
    ]);
    for (profile, graph) in all_datasets(config) {
        let queries = queries_for(&graph, config.queries);
        let index = KdashIndex::build(&graph, IndexOptions::default()).expect("index");
        let pruned =
            median_query_time(|q| { let _ = index.top_k(q, 5).expect("q"); }, &queries);
        let unpruned = median_query_time(
            |q| { let _ = paper::top_k_unpruned(&mut index.searcher(), q, 5).expect("q"); },
            &queries,
        );
        // Work ratio for context. The lazy frontier stops discovering on
        // early termination, so a pruned run's `reachable` is only the
        // discovered-so-far count — a plain BFS (reachability is
        // permutation-invariant, no proximity work) supplies the true
        // denominator, and `frontier_expanded` is the traversal work
        // actually paid.
        let (mut comp, mut expanded, mut reach) = (0usize, 0usize, 0usize);
        for &q in &queries {
            let s = index.top_k(q, 5).expect("q").stats;
            comp += s.proximity_computations;
            expanded += s.frontier_expanded;
            reach += kdash_graph::BfsTree::new(&graph, q).num_reachable();
        }
        table.add_row(vec![
            profile.name().to_string(),
            fmt_s(pruned),
            fmt_s(unpruned),
            format!("{:.1}x", unpruned.as_secs_f64() / pruned.as_secs_f64().max(1e-12)),
            format!("{comp}/{expanded}/{reach}"),
        ]);
    }
    table.print();
    println!();
}

/// Figure 9 (Appendix D.1): number of exact proximity computations with
/// the query-rooted tree vs a randomly rooted tree.
fn fig9(config: &HarnessConfig) {
    println!("## Figure 9 — proximity computations, query root vs random root\n");
    println!("(paper: query rooting needs orders of magnitude fewer computations)\n");
    let mut table = Table::new(vec!["dataset", "K-dash", "Random root", "ratio"]);
    for (profile, graph) in all_datasets(config) {
        let queries = queries_for(&graph, config.queries);
        let index = KdashIndex::build(&graph, IndexOptions::default()).expect("index");
        let mut kdash_total = 0usize;
        let mut random_total = 0usize;
        let mut searcher = index.searcher();
        for (i, &q) in queries.iter().enumerate() {
            kdash_total += index.top_k(q, 5).expect("q").stats.proximity_computations;
            let mut rng = StdRng::seed_from_u64(config.seed + i as u64);
            let root = rng.gen_range(0..index.num_nodes()) as kdash_graph::NodeId;
            random_total += paper::top_k_from_root(&mut searcher, q, 5, root)
                .expect("q")
                .stats
                .proximity_computations;
        }
        let avg_k = kdash_total as f64 / queries.len() as f64;
        let avg_r = random_total as f64 / queries.len() as f64;
        table.add_row(vec![
            profile.name().to_string(),
            format!("{avg_k:.1}"),
            format!("{avg_r:.1}"),
            format!("{:.1}x", avg_r / avg_k.max(1e-9)),
        ]);
    }
    table.print();
    println!();
}

/// Table 2: the dictionary case study. The paper lists the top-5 terms for
/// five query terms under K-dash and NB_LIN; here the dictionary is
/// synthetic with planted clusters, so alongside the ranked labels we
/// report how many of the planted cluster members each engine recovered.
fn table2(config: &HarnessConfig) {
    println!("## Table 2 — ranked term lists, K-dash vs NB_LIN (planted dictionary)\n");
    println!("(paper: K-dash surfaces the semantically related terms; NB_LIN scatters)\n");
    let data = dictionary(config.target_nodes, config.seed);
    let graph = &data.graph;
    let index = KdashIndex::build(graph, IndexOptions::default()).expect("index");
    let rank = config.scaled_rank(1000, graph.num_nodes());
    let nblin = NbLin::build(
        graph,
        NbLinOptions { target_rank: rank, restart_probability: 0.95, seed: config.seed },
    )
    .expect("nblin");
    let k = 5usize;
    let mut table = Table::new(vec!["term", "method", "1", "2", "3", "4", "5", "planted hits"]);
    for cluster in &data.clusters {
        let head = cluster[0];
        let planted = &cluster[1..];
        let label = |v: kdash_graph::NodeId| data.labels[v as usize].clone();
        // Exclude the query itself (rank 1 in both engines, uninformative).
        let kdash_terms: Vec<kdash_graph::NodeId> =
            index.top_k(head, k + 1).expect("q").nodes().into_iter().filter(|&v| v != head).take(k).collect();
        let nblin_terms: Vec<kdash_graph::NodeId> =
            nblin.top_k(head, k + 1).into_iter().map(|(v, _)| v).filter(|&v| v != head).take(k).collect();
        for (method, terms) in [("K-dash", &kdash_terms), ("NB_LIN", &nblin_terms)] {
            let hits = terms.iter().filter(|t| planted.contains(t)).count();
            let mut row = vec![label(head), method.to_string()];
            row.extend(terms.iter().map(|&t| label(t)));
            while row.len() < 7 {
                row.push("-".into());
            }
            row.push(format!("{hits}/{k}"));
            table.add_row(row);
        }
    }
    table.print();
    println!();
}

/// §6.3.3 (text): robustness of the pruning across restart probabilities.
fn sweep_c(config: &HarnessConfig) {
    println!("## Restart-probability sweep (§6.3.3) — Dictionary\n");
    println!("(paper: pruning effective under all c examined)\n");
    let graph = dataset(DatasetProfile::Dictionary, config);
    let queries = queries_for(&graph, config.queries);
    // `discovered` (SearchStats::reachable) is what the lazy frontier
    // enumerated before stopping — a lower bound on true reachability on
    // early-terminated queries, which is exactly the work saving this
    // sweep illustrates across c.
    let mut table =
        Table::new(vec!["c", "query time [s]", "computed/discovered", "early-terminated"]);
    for c in [0.5, 0.7, 0.9, 0.95, 0.99] {
        let index = KdashIndex::build(
            &graph,
            IndexOptions { restart_probability: c, ..Default::default() },
        )
        .expect("index");
        let t = median_query_time(|q| { let _ = index.top_k(q, 5).expect("q"); }, &queries);
        let (mut comp, mut discovered, mut early) = (0usize, 0usize, 0usize);
        for &q in &queries {
            let s = index.top_k(q, 5).expect("q").stats;
            comp += s.proximity_computations;
            discovered += s.reachable;
            early += s.terminated_early as usize;
        }
        table.add_row(vec![
            format!("{c}"),
            fmt_s(t),
            format!("{comp}/{discovered}"),
            format!("{early}/{}", queries.len()),
        ]);
    }
    table.print();
    println!();
}
