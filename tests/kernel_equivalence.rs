//! The cross-kernel contract for the gather kernels
//! (`kdash_sparse::kernel`), checked at the *search* level:
//!
//! * **unrolled ≡ SIMD, bit for bit** — the two wide kernels perform the
//!   same lane operations in the same order, so whole query results
//!   (items *and* stats, including the early-termination point) must be
//!   byte-equal wherever the host can run both. This is what makes
//!   results deterministic across machines: a host dispatching AVX2 and a
//!   host falling back to the portable unrolled kernel return identical
//!   answers.
//! * **wide vs scalar ≤ 1e-12** — the wide kernels re-associate the sum
//!   (four lanes instead of one), so they are only tolerance-pinned
//!   against the one-accumulator reference (which itself is bit-identical
//!   to the merge join).
//! * **the certified tier too** — on a sparsified index the corrections
//!   gather through the same kernel: the lane bodies stay bit-identical,
//!   and the reference keeps every set and order, within
//!   `VALUE_TOLERANCE`.
//! * **every kernel is exact** — proximities match the iterative
//!   ground-truth RWR under each kernel the host supports: the reference
//!   (`ResolvedKernel::reference`) and every lane body
//!   (`ResolvedKernel::host_bodies`).
//! * **lanes carry across run boundaries** — at the store level, rows
//!   whose blocked encoding spans several `u16`-delta runs of awkward
//!   lengths give the same bits under both bodies as the four-lane order
//!   written out over the row's CSR columns.

use kdash_core::{
    IndexOptions, KdashIndex, ResolvedKernel, Searcher, TopKResult, VALUE_TOLERANCE,
};
use kdash_datagen::{barabasi_albert, erdos_renyi, rmat, RmatParams};
use kdash_graph::NodeId;
use kdash_harness::{break_ties, exact_top_k_scored};
use proptest::prelude::*;

fn graph_strategy() -> impl Strategy<Value = kdash_graph::CsrGraph> {
    (0usize..2, 16usize..80, 1usize..5, any::<u64>()).prop_map(|(family, n, density, seed)| {
        match family {
            0 => erdos_renyi(n, n * density, seed),
            _ => barabasi_albert(n, density.min(n - 1).max(1), seed),
        }
    })
}

fn assert_byte_equal(a: &TopKResult, b: &TopKResult) -> Result<(), String> {
    if a.items.len() != b.items.len() {
        return Err(format!("lengths: {} vs {}", a.items.len(), b.items.len()));
    }
    for (x, y) in a.items.iter().zip(&b.items) {
        if x.node != y.node || x.proximity.to_bits() != y.proximity.to_bits() {
            return Err(format!(
                "({}, {:.17e}) vs ({}, {:.17e})",
                x.node, x.proximity, y.node, y.proximity
            ));
        }
    }
    // Every stat — the byte-traffic counters included, which follow a
    // machine-independent accounting model — must agree; only the record
    // of *which* host kernel produced them may differ (that record is the
    // point of the cross-host determinism contract: different dispatch,
    // identical everything else).
    let mut a_stats = a.stats.clone();
    let mut b_stats = b.stats.clone();
    a_stats.kernel = "";
    b_stats.kernel = "";
    if a_stats != b_stats {
        return Err(format!("stats: {:?} vs {:?}", a.stats, b.stats));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Full query results under the unrolled kernel are byte-equal to the
    /// SIMD kernel's (where the host has one), and within 1e-12 of the
    /// scalar reference — across top-k, restart-set and threshold queries.
    #[test]
    fn wide_kernels_are_bit_identical_and_tolerance_pinned((graph, q_sel, k_sel) in
        (graph_strategy(), any::<u32>(), 1usize..12)) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let mut scalar = Searcher::with_kernel(&index, ResolvedKernel::reference());
        let bodies = ResolvedKernel::host_bodies();
        let mut unrolled = Searcher::with_kernel(&index, bodies[0]);

        let sources = [q, (q + 1) % n as NodeId];
        let runs: [(&str, fn(&mut Searcher, NodeId, usize, &[NodeId]) -> TopKResult); 3] = [
            ("top_k", |s, q, k, _| s.top_k(q, k).unwrap()),
            ("from_set", |s, _, k, src| s.top_k_from_set(src, k).unwrap()),
            ("nodes_above", |s, q, _, _| s.nodes_above(q, 1e-6).unwrap()),
        ];
        for (label, run) in runs {
            let s_res = run(&mut scalar, q, k_sel, &sources);
            let u_res = run(&mut unrolled, q, k_sel, &sources);
            if let Some(&simd) = bodies.get(1) {
                // Fresh workspace per run keeps the borrows simple.
                let mut simd_searcher = Searcher::with_kernel(&index, simd);
                let v_res = run(&mut simd_searcher, q, k_sel, &sources);
                if let Err(msg) = assert_byte_equal(&u_res, &v_res) {
                    prop_assert!(false, "{} unrolled vs simd: {}", label, msg);
                }
            }
            // Wide vs scalar: same candidates may round differently in the
            // last bits and may even swap ranks at the k-th cutoff, so
            // match by node id — against the scalar result where the node
            // appears, else against the full proximity vector *of the same
            // query family* (the restart-set family has its own vector).
            let full = if label == "from_set" {
                index.full_proximities_from_set(&sources).unwrap()
            } else {
                index.full_proximities(q).unwrap()
            };
            for item in &u_res.items {
                let reference = s_res
                    .items
                    .iter()
                    .find(|r| r.node == item.node)
                    .map(|r| r.proximity)
                    .unwrap_or(full[item.node as usize]);
                prop_assert!(
                    (item.proximity - reference).abs() <= 1e-12,
                    "{} node {}: unrolled {:.17e} vs scalar {:.17e}",
                    label, item.node, item.proximity, reference
                );
            }
        }
    }
}

/// Exactness re-pinned for every kernel the host supports: search results
/// must match the iterative ground truth under each of them.
#[test]
fn every_kernel_is_exact_against_iterative_ground_truth() {
    for seed in [3u64, 17] {
        let g = barabasi_albert(90, 3, seed);
        let index = KdashIndex::build(
            &g,
            IndexOptions { restart_probability: 0.9, ..Default::default() },
        )
        .unwrap();
        for q in [0u32, 41, 88] {
            let truth = exact_top_k_scored(&g, 0.9, q, 8);
            let kernels = std::iter::once(ResolvedKernel::reference());
            for kernel in kernels.chain(ResolvedKernel::host_bodies()) {
                let mut searcher = Searcher::with_kernel(&index, kernel);
                let got = searcher.top_k(q, 8).unwrap();
                assert_eq!(got.items.len(), truth.len());
                for (item, (_, want)) in got.items.iter().zip(&truth) {
                    assert!(
                        (item.proximity - want).abs() < 1e-9,
                        "kernel {} q {q}: {} vs ground truth {}",
                        searcher.kernel().name(),
                        item.proximity,
                        want
                    );
                }
            }
        }
    }
}

/// The certified tier holds the same contract: on a sparsified index
/// every `Ũ⁻¹` row a correction reads runs through the workspace kernel,
/// so the lane bodies answer bit for bit alike (items and stats), and the
/// one-accumulator reference returns the same sets and order with every
/// value within `VALUE_TOLERANCE`. At `c = 0.15` the first step is a
/// correction and corrections carry the loop; at `c = 0.95` every step is
/// a sweep and no row is read.
#[test]
fn certified_tier_holds_the_kernel_contract() {
    type Run = fn(&mut Searcher, NodeId, &[NodeId]) -> TopKResult;
    let runs: [(&str, Run); 3] = [
        ("top_k", |s, q, _| s.top_k(q, 20).unwrap()),
        ("from_set", |s, _, set| s.top_k_from_set(set, 20).unwrap()),
        ("nodes_above", |s, q, _| s.nodes_above(q, 1e-3).unwrap()),
    ];
    let graph = break_ties(&rmat(9, 900, RmatParams::default(), 7)).unwrap();
    let queries = (0..graph.num_nodes() as NodeId).filter(|&q| graph.out_degree(q) > 0);
    let queries: Vec<NodeId> = queries.step_by(16).collect();
    for c in [0.15, 0.95] {
        let options =
            IndexOptions { drop_tolerance: 1e-3, restart_probability: c, ..Default::default() };
        let index = KdashIndex::build(&graph, options).unwrap();
        assert!(index.needs_refinement(), "c {c}");
        let mut reference = Searcher::with_kernel(&index, ResolvedKernel::reference());
        let mut bodies: Vec<Searcher> = ResolvedKernel::host_bodies()
            .into_iter()
            .map(|kernel| Searcher::with_kernel(&index, kernel))
            .collect();
        let mut gathered = 0;
        for &q in &queries {
            // The partner takes in-flow from `q`: two sources without any
            // would tie exactly at c/2.
            let set = [q, graph.out_neighbors(q)[0]];
            for (entry, run) in runs {
                let label = format!("c {c} q {q} {entry}");
                let got: Vec<TopKResult> = bodies.iter_mut().map(|s| run(s, q, &set)).collect();
                for other in &got[1..] {
                    if let Err(msg) = assert_byte_equal(&got[0], other) {
                        panic!("{label}: lane bodies differ: {msg}");
                    }
                }
                let (got, want) = (&got[0], run(&mut reference, q, &set));
                gathered += got.stats.nnz_gathered;
                // Every row either run read went through its own kernel.
                let rows = |r: &TopKResult| (r.stats.rows_scalar, r.stats.rows_wide);
                assert_eq!(rows(got).0 + rows(&want).1, 0, "{label}: a row ran another kernel");
                assert_eq!(rows(got).1 > 0, got.stats.nnz_gathered > 0, "{label}");
                assert_eq!(rows(&want).0 > 0, want.stats.nnz_gathered > 0, "{label}");
                let nodes = |r: &TopKResult| r.items.iter().map(|i| i.node).collect::<Vec<_>>();
                assert_eq!(nodes(got), nodes(&want), "{label}: set or order");
                for (a, b) in got.items.iter().zip(&want.items) {
                    let err = (a.proximity - b.proximity).abs();
                    assert!(err <= VALUE_TOLERANCE, "{label}: node {} off by {err:e}", a.node);
                }
            }
        }
        assert_eq!(gathered > 0, c == 0.15, "c {c}: {gathered} entries gathered");
    }
}

/// The four-lane order written out over a CSR row, as one sequence: lane
/// `j` sums the row positions `≡ j (mod 4)` in order from `+0.0`, and the
/// lanes reduce as `(a0 + a2) + (a1 + a3)`.
fn four_lanes(cols: &[u32], vals: &[f64], y: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    for (i, (&c, &v)) in cols.iter().zip(vals).enumerate() {
        lanes[i % 4] += v * y[c as usize];
    }
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
}

/// The lane-carry pin. A stored row is one segment per 2¹⁶-column run,
/// and the four lanes are assigned by *row* position, so a run that does
/// not end on a multiple of four hands a partial chunk to the next one.
/// Rows spanning three runs of lengths ≢ 0 (mod 4), empty rows and rows
/// of 1–7 entries must give bit-identical results for the portable body ≡
/// the AVX2 body ≡ the four-lane order over the row's CSR columns, and the
/// scalar reference order must equal the merge join bit for bit.
#[test]
fn lanes_carry_across_run_boundaries_bit_identically() {
    use kdash_sparse::{
        CsrMatrix, GatherCounters, GatherScratch, ProximityStore, RowLayout, ScatteredColumn,
        BLOCK_COLS,
    };

    let block = BLOCK_COLS as usize;
    let ncols = 3 * block + 4_000;
    // Each row is a list of (block, entries in that block).
    let mut layouts: Vec<Vec<(usize, usize)>> = vec![vec![]];
    for len in 1..=7usize {
        // Short rows, split over two blocks where there is enough to split.
        layouts.push(if len < 3 { vec![(1, len)] } else { vec![(0, len - 2), (3, 2)] });
    }
    for runs in [[5, 7, 9], [1, 2, 3], [6, 11, 13], [3, 3, 3], [9, 1, 6], [21, 34, 19], [2, 5, 1]] {
        layouts.push(vec![(0, runs[0]), (1, runs[1]), (2, runs[2])]);
    }
    layouts.push(vec![(0, 3), (2, 6), (3, 7)]); // skips a block
    layouts.push(vec![]);

    let (mut row_ptr, mut col_idx, mut values) = (vec![0usize], Vec::new(), Vec::new());
    for (r, row) in layouts.iter().enumerate() {
        for &(blk, count) in row {
            // Distinct ascending columns inside the block (the last block
            // is the matrix's partial one), the first and last at its edges.
            let width = if blk == 3 { ncols - 3 * block } else { block };
            for j in 0..count {
                let within = match j {
                    0 => 0,
                    j if j == count - 1 => width - 1,
                    j => j * (width - 1) / count + r % 5,
                };
                col_idx.push((blk * block + within) as u32);
                let x = (col_idx.len() * 7919 + r * 104_729) % 1_000;
                values.push((x as f64 - 500.0) / 37.0);
            }
        }
        row_ptr.push(col_idx.len());
    }
    let nrows = layouts.len();
    let csr = CsrMatrix::from_raw_parts(nrows, ncols, row_ptr, col_idx.clone(), values).unwrap();
    let blocked = ProximityStore::from_csr(csr.clone(), RowLayout::Blocked).unwrap();
    assert!((8..15).all(|r| blocked.row_runs(r) == 3), "the layout must produce 3-run rows");

    // A query column meeting about half of the stored columns, plus
    // positions no row stores.
    let mut idx: Vec<u32> = col_idx.iter().copied().filter(|c| c % 3 != 0).collect();
    idx.extend((0..ncols as u32).step_by(4_099));
    idx.sort_unstable();
    idx.dedup();
    let val: Vec<f64> = idx.iter().map(|&i| ((i % 977) as f64 - 400.0) / 53.0).collect();
    let mut column = ScatteredColumn::new(ncols);
    column.load(&idx, &val);

    let scalar = ResolvedKernel::reference();
    let bodies = ResolvedKernel::host_bodies();
    let (portable, simd) = (bodies[0], bodies.get(1).copied());
    let mut scratch = GatherScratch::with_capacity(blocked.max_row_nnz());
    let mut gather = |kernel, r| {
        blocked.row_gather(kernel, r, &column, &mut scratch, &mut GatherCounters::default())
    };
    for r in 0..nrows as u32 {
        let (cols, vals) = csr.row(r);
        let lanes = gather(portable, r);
        let reference = four_lanes(cols, vals, column.as_slice());
        assert_eq!(lanes.to_bits(), reference.to_bits(), "row {r}: portable vs one sequence");
        if let Some(simd) = simd {
            assert_eq!(lanes.to_bits(), gather(simd, r).to_bits(), "row {r}: avx2");
        }
        let join = blocked.row_dot_sparse(r, &idx, &val);
        assert_eq!(join.to_bits(), csr.row_dot_sparse(r, &idx, &val).to_bits(), "row {r}");
        assert_eq!(join.to_bits(), gather(scalar, r).to_bits(), "row {r}: scalar");
        assert!((lanes - join).abs() <= 1e-12 * join.abs().max(1.0), "row {r}: {lanes} vs {join}");
    }
}
