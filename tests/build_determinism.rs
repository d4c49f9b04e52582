//! Tier-1 determinism pin for the parallel build pipeline.
//!
//! The inversion stage fans independent Gilbert–Peierls column solves out
//! over a work-stealing cursor — `U⁻¹`'s chunks claimed heavy-first, in
//! descending column order; the contract is that the gathered `L⁻¹` /
//! `U⁻¹` are **byte-identical** to the sequential inversion at every
//! thread count — same nnz, same index arrays, same value bits — on every
//! graph family, exact or sparsified, for every column or a subset.
//! A scheduling-dependent result here would silently break index
//! persistence, replication, and the exactness guarantees downstream, so
//! this suite runs in tier-1.
//!
//! The same bytes must come out wherever the kernel's **dense tail**
//! starts. The factorisation and both inversions mirror the trailing,
//! all-but-full columns of the factor (the hubs of a degree or hybrid
//! ordering) and solve them as contiguous AXPYs; that the split is "a
//! constant that cannot change a result" is the claim the second half of
//! this suite holds them to, against the sparse-only reference entry
//! points of `kdash-sparse`. Where the host has AVX-512F the LU solves its
//! tail's columns eight at a time, so the same holds wherever a panel of
//! eight ends, whichever column of a panel meets a zero pivot, and beside
//! an infinite `L` value that a zero multiplier keeps out of a lane.
//!
//! The exact inverses are the one inversion driver at `ε = 0`
//! (`sparsify_*_with`); there is no other spelling to compare them with.
//! The build inverts both triangles in one worker pool
//! (`sparsify_factors_with`), whose workers move to the other triangle
//! when theirs runs dry and hand `U⁻¹` over in row order: its bytes,
//! masses, tallies and errors are held to the per-triangle drivers'.

use kdash_core::{compute_ordering, IndexBuilder, IndexOptions, NodeOrdering};
use kdash_datagen::{barabasi_albert, erdos_renyi, rmat, DatasetProfile, RmatParams};
use kdash_graph::CsrGraph;
use kdash_sparse::inverse::invert_without_tail;
use kdash_sparse::lu::sparse_lu_without_tail;
use kdash_sparse::{
    dense_tail_columns, sparse_lu, sparse_lu_tallied, sparsify_columns_with, sparsify_factors_with,
    sparsify_lower_unit_with, sparsify_upper_with, transition_matrix, w_matrix, ColumnUpdate,
    CscMatrix, CsrMatrix, DanglingPolicy, Index, InvertOptions, LuFactors, SparseError, Triangle,
};

fn test_graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("er", erdos_renyi(300, 1200, 11)),
        ("ba", barabasi_albert(300, 3, 12)),
        ("rmat", rmat(9, 2048, RmatParams::default(), 13)),
    ]
}

/// The exact inverse of a factor at `threads` workers: the one inversion
/// driver at `ε = 0`.
fn exact(t: &CscMatrix, triangle: Triangle, threads: usize) -> Result<CscMatrix, SparseError> {
    let options = InvertOptions { threads };
    let inverted = match triangle {
        Triangle::Lower => sparsify_lower_unit_with(t, 0.0, options),
        Triangle::Upper => sparsify_upper_with(t, 0.0, options),
    };
    inverted.map(|s| s.inverse)
}

fn assert_csc_bytes_equal(label: &str, seq: &CscMatrix, par: &CscMatrix) {
    let (sp, si, sv) = seq.raw();
    let (pp, pi, pv) = par.raw();
    assert_eq!(seq.nnz(), par.nnz(), "{label}: nnz differs");
    assert_eq!(sp, pp, "{label}: col_ptr differs");
    assert_eq!(si, pi, "{label}: row indices differ");
    assert_eq!(sv.len(), pv.len(), "{label}: value count differs");
    for (i, (a, b)) in sv.iter().zip(pv).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: value {i} differs: {a} vs {b}");
    }
}

/// The sparse-kernel contract: parallel inversion of real LU factors is
/// byte-identical to the sequential inversion.
#[test]
fn parallel_inversion_matches_sequential_on_lu_factors() {
    for (name, graph) in test_graphs() {
        let a = transition_matrix(&graph, DanglingPolicy::Keep);
        let w = w_matrix(&a, 0.95).expect("valid restart probability");
        let factors = sparse_lu(&w).expect("W is diagonally dominant");
        let linv_seq = exact(&factors.l, Triangle::Lower, 1).expect("sequential L inverse");
        let uinv_seq = exact(&factors.u, Triangle::Upper, 1).expect("sequential U inverse");
        for threads in [2usize, 3, 0] {
            let linv_par = exact(&factors.l, Triangle::Lower, threads).expect("parallel L inverse");
            let uinv_par = exact(&factors.u, Triangle::Upper, threads).expect("parallel U inverse");
            assert_csc_bytes_equal(&format!("{name} L⁻¹ threads={threads}"), &linv_seq, &linv_par);
            assert_csc_bytes_equal(&format!("{name} U⁻¹ threads={threads}"), &uinv_seq, &uinv_par);
        }
    }
}

/// The descending claim order on its other two routes: a sparsified
/// `U⁻¹` (the truncating solve) and a re-solved column subset
/// carry the sequential bytes and dropped masses at every thread count.
#[test]
fn heavy_first_claims_keep_sparsified_and_subset_inversions_sequential() {
    for (name, graph) in test_graphs() {
        let a = transition_matrix(&graph, DanglingPolicy::Keep);
        let w = w_matrix(&a, 0.95).expect("valid restart probability");
        let u = sparse_lu(&w).expect("W is diagonally dominant").u;
        let sparse_seq = sparsify_upper_with(&u, 1e-4, InvertOptions::default()).unwrap();
        let uinv_seq = exact(&u, Triangle::Upper, 1).expect("sequential U inverse");
        let subset: Vec<Index> = (0..u.ncols() as Index).filter(|j| j % 3 != 0).collect();
        for threads in [2usize, 3, 0] {
            let opts = InvertOptions { threads };
            let label = format!("{name} threads={threads}");
            let sparse_par = sparsify_upper_with(&u, 1e-4, opts).expect("parallel sparsify");
            assert_csc_bytes_equal(&label, &sparse_seq.inverse, &sparse_par.inverse);
            let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sparse_seq.dropped), bits(&sparse_par.dropped), "{label}: masses");
            let updates = sparsify_columns_with(&u, Triangle::Upper, &subset, 0.0, opts).unwrap();
            let updates = updates.updates;
            assert_eq!(updates.len(), subset.len(), "{label}");
            for update in &updates {
                let (rows, vals) = uinv_seq.col(update.col);
                assert_eq!(update.rows, rows, "{label}: column {}", update.col);
                assert_eq!(bits(&update.vals), bits(vals), "{label}: column {}", update.col);
            }
        }
    }
}

/// The end-to-end contract: `IndexBuilder` at threads ∈ {1, 2, auto}
/// produces byte-identical stored inverses and identical nnz stats, for
/// every ordering family the paper evaluates.
#[test]
fn staged_build_is_thread_count_invariant() {
    for (name, graph) in test_graphs() {
        for ordering in [NodeOrdering::Natural, NodeOrdering::Degree, NodeOrdering::Hybrid] {
            let options = IndexOptions { ordering, ..Default::default() };
            let baseline = IndexBuilder::from_options(options).threads(1).build(&graph).unwrap();
            for threads in [2usize, 0] {
                let built =
                    IndexBuilder::from_options(options).threads(threads).build(&graph).unwrap();
                let label = format!("{name} {ordering:?} threads={threads}");
                assert_csc_bytes_equal(
                    &format!("{label} L⁻¹"),
                    baseline.linv_cols(),
                    built.linv_cols(),
                );
                assert_csc_bytes_equal(
                    &format!("{label} U⁻¹"),
                    &baseline.uinv_rows().to_csc(),
                    &built.uinv_rows().to_csc(),
                );
                assert_eq!(baseline.stats().nnz_l_inv, built.stats().nnz_l_inv, "{label}");
                assert_eq!(baseline.stats().nnz_u_inv, built.stats().nnz_u_inv, "{label}");
                assert_eq!(
                    baseline.stats().inverse_heap_bytes,
                    built.stats().inverse_heap_bytes,
                    "{label}"
                );
            }
        }
    }
}

/// Top-k answers (the user-visible surface) carry the same bit-exactness
/// across thread counts.
#[test]
fn queries_are_bit_identical_across_thread_counts() {
    let graph = rmat(9, 2048, RmatParams::default(), 21);
    let sequential = IndexBuilder::new().threads(1).build(&graph).unwrap();
    let parallel = IndexBuilder::new().threads(0).build(&graph).unwrap();
    for q in (0..graph.num_nodes() as u32).step_by(97) {
        let a = sequential.top_k(q, 10).unwrap();
        let b = parallel.top_k(q, 10).unwrap();
        assert_eq!(a.nodes(), b.nodes(), "query {q}");
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x.proximity.to_bits(), y.proximity.to_bits(), "query {q}");
        }
        assert_eq!(a.stats, b.stats, "query {q}: search statistics must agree");
    }
}

/// Graphs whose hybrid-ordered factors grow a dense tail of at least 64
/// columns, and two small ones whose factors cannot.
fn tail_graphs() -> Vec<(&'static str, CsrGraph, bool)> {
    vec![
        ("er", erdos_renyi(600, 4800, 31), true),
        ("ba", barabasi_albert(800, 4, 32), true),
        ("rmat", rmat(11, 8192, RmatParams::default(), 33), true),
        ("dictionary", dictionary(1000, 34), true),
        ("er-small", erdos_renyi(60, 400, 35), false),
        ("ring", rmat(5, 64, RmatParams::default(), 36), false),
    ]
}

fn dictionary(nodes: usize, seed: u64) -> CsrGraph {
    let profile = DatasetProfile::Dictionary;
    profile.generate(profile.scale_for_nodes(nodes), seed)
}

/// `W = I − 0.05·A` of `graph` under the hybrid ordering, as the build
/// pipeline forms it.
fn hybrid_w(graph: &CsrGraph) -> CscMatrix {
    let perm = compute_ordering(graph, NodeOrdering::Hybrid);
    let permuted = graph.permute(&perm).expect("ordering is a permutation");
    let a = transition_matrix(&permuted, DanglingPolicy::Keep);
    w_matrix(&a, 0.95).expect("valid restart probability")
}

/// The invariant the dense tail rests on: `sparse_lu`, and at one worker,
/// two and auto the exact inversions and the staged build, return the
/// bytes of the sparse-only kernel — on factors
/// that grow a tail and on factors too small to — and the build reports
/// the LU's own tally whatever its thread count. Where a factor grows a
/// tail, the build's inversions report it and the work done in it: those
/// are the jobs an AVX-512F host solves in panels of eight, so there the
/// bytes compared are the panels'.
#[test]
fn dense_tail_is_byte_identical_to_the_sparse_kernel() {
    for (name, graph, grows_tail) in tail_graphs() {
        let w = hybrid_w(&graph);
        let one = InvertOptions::default();
        let reference = sparse_lu_without_tail(&w).unwrap();
        let linv = invert_without_tail(&reference.l, Triangle::Lower, one).unwrap();
        let uinv = invert_without_tail(&reference.u, Triangle::Upper, one).unwrap();
        let l_tail = dense_tail_columns(&reference.l, Triangle::Lower).unwrap();
        let u_tail = dense_tail_columns(&reference.u, Triangle::Upper).unwrap();
        if grows_tail {
            assert!(l_tail >= 64 && u_tail >= 64, "{name}: tails {l_tail}/{u_tail} never formed");
            assert!(l_tail < w.ncols() && u_tail < w.ncols(), "{name}: no sparse head left");
        } else {
            assert_eq!((l_tail, u_tail), (0, 0), "{name}: too small for a tail");
        }
        let (factors, tally) = sparse_lu_tallied(&w).unwrap();
        assert_csc_bytes_equal(&format!("{name} L"), &reference.l, &factors.l);
        assert_csc_bytes_equal(&format!("{name} U"), &reference.u, &factors.u);
        assert_eq!(tally.tail_columns, l_tail, "{name}");
        for threads in [1usize, 2, 0] {
            let label = format!("{name} threads={threads}");
            let tailed = exact(&factors.l, Triangle::Lower, threads).unwrap();
            assert_csc_bytes_equal(&format!("{label} L⁻¹"), &linv, &tailed);
            let tailed = exact(&factors.u, Triangle::Upper, threads).unwrap();
            assert_csc_bytes_equal(&format!("{label} U⁻¹"), &uinv, &tailed);
            let (built, report) = IndexBuilder::new()
                .ordering(NodeOrdering::Hybrid)
                .threads(threads)
                .build_with_report(&graph)
                .unwrap();
            assert_eq!(report.factorization_solves, tally, "{label}: the LU tally moved");
            for (solves, tail, triangle) in
                [(report.linv_solves, l_tail, "L⁻¹"), (report.uinv_solves, u_tail, "U⁻¹")]
            {
                assert_eq!(solves.tail_columns, tail, "{label} {triangle}");
                let tail_work = solves.tail_multiply_subtracts > 0;
                assert_eq!(tail_work, grows_tail, "{label} {triangle}: {solves:?}");
            }
            let built_uinv = built.uinv_rows().to_csc();
            assert_csc_bytes_equal(&format!("{label} index L⁻¹"), &linv, built.linv_cols());
            assert_csc_bytes_equal(&format!("{label} index U⁻¹"), &uinv, &built_uinv);
        }
    }
}

/// A 160-column system whose trailing 128 columns are full — so all of
/// them are tail — behind a sparse chain of 32, with every value a small
/// multiple of a power of two where exactness is needed: row 35 of `W`
/// holds only `W[35,35] = 1`, `W[35,112] = W[35,132] = 1`, and row 122
/// only `W[122,35] = W[122,112] = ½` left of its diagonal, `W[122,132] =
/// ½` and small dense values right of it. Eliminating column 35 then cancels
/// `U[122,132] = ½ − ½·1` and `L[122,112] = (½ − ½·1)/pivot` to exactly
/// zero inside the tail.
fn cancelling_system() -> CscMatrix {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let (n, head) = (160u32, 32u32);
    let mut rng = StdRng::seed_from_u64(77);
    let mut trips: Vec<(Index, Index, f64)> = Vec::new();
    for j in 0..n {
        trips.push((j, j, 1.0));
        if j < head {
            trips.push((j + 1, j, -0.25)); // the chain, feeding the block
            continue;
        }
        for i in head..n {
            let quiet = i == 35 || j == 35 && i != 122 || i == 122 && (j < 122 || j == 132);
            if i != j && !quiet {
                trips.push((i, j, rng.gen_range(-0.002..0.002)));
            }
        }
    }
    trips.extend([(35, 112, 1.0), (35, 132, 1.0)]);
    trips.extend([(122, 35, 0.5), (122, 112, 0.5), (122, 132, 0.5)]);
    CscMatrix::from_triplets(n as usize, n as usize, &trips).unwrap()
}

/// The corners of the "drop exact zeros" gather and of the error path,
/// with the tail on and suppressed, the inversions at one worker and two:
/// entries that cancel to exactly zero inside the tail are dropped by both
/// kernels, an explicitly stored `0.0` in a factor is carried by both, and
/// a pivot that vanishes inside the tail is the same typed error at the
/// same — lowest — column.
#[test]
fn dense_tail_agrees_on_cancellation_stored_zeros_and_singular_pivots() {
    let w = cancelling_system();
    let reference = sparse_lu_without_tail(&w).unwrap();
    assert_eq!(dense_tail_columns(&reference.l, Triangle::Lower).unwrap(), 128);
    assert_eq!(reference.u.get(122, 132), None, "U[122,132] must cancel to an exact zero");
    assert_eq!(reference.l.get(122, 112), None, "L[122,112] must cancel to an exact zero");
    assert!(reference.l.get(122, 35).is_some() && reference.u.get(35, 132).is_some());

    // A factor carrying explicitly stored zeros: every tenth stored value
    // of L and U zeroed in place (the diagonal of U kept).
    let zeroed = |t: &CscMatrix| {
        let counter = std::cell::Cell::new(0usize);
        t.map_values(|v| {
            counter.set(counter.get() + 1);
            if counter.get() % 10 == 0 && v.abs() < 0.5 { 0.0 } else { v }
        })
    };
    let (l0, u0) = (zeroed(&reference.l), zeroed(&reference.u));
    assert_eq!((l0.nnz(), u0.nnz()), (reference.l.nnz(), reference.u.nnz()));
    assert!(l0.raw().2.iter().filter(|v| **v == 0.0).count() > 100);

    // Columns 130 and 140 of `W` emptied, and the same two pivots of `U`
    // stored as zeros: both vanish inside the tail.
    let emptied = [130, 140].map(|col| ColumnUpdate { col, rows: Vec::new(), vals: Vec::new() });
    let singular = w.splice_columns(&emptied).unwrap();
    let zero_pivots = [130, 140].map(|col| {
        let (rows, vals) = reference.u.col(col);
        let vals = rows.iter().zip(vals).map(|(&r, &v)| if r == col { 0.0 } else { v }).collect();
        ColumnUpdate { col, rows: rows.to_vec(), vals }
    });
    let singular_u = reference.u.splice_columns(&zero_pivots).unwrap();

    // The tail begins at column 32 and the LU solves its later columns in
    // panels of eight from 33: both cancellations fall inside a panel.
    let factors = sparse_lu(&w).unwrap();
    assert_csc_bytes_equal("L", &reference.l, &factors.l);
    assert_csc_bytes_equal("U", &reference.u, &factors.u);
    let expect = SparseError::SingularPivot { column: 130, value: 0.0 };
    assert_eq!(sparse_lu(&singular).unwrap_err(), expect);
    assert_eq!(sparse_lu_without_tail(&singular).unwrap_err(), expect);
    // A pivot that vanishes at the first column of a panel (129), and at
    // its third (131).
    for col in [129, 131] {
        let empty = ColumnUpdate { col, rows: Vec::new(), vals: Vec::new() };
        let singular = w.splice_columns(&[empty]).unwrap();
        let expect = SparseError::SingularPivot { column: col as usize, value: 0.0 };
        assert_eq!(sparse_lu(&singular).unwrap_err(), expect, "column {col}");
        assert_eq!(sparse_lu_without_tail(&singular).unwrap_err(), expect, "column {col}");
    }

    for threads in [1usize, 2] {
        let options = InvertOptions { threads };
        let label = format!("threads={threads}");
        for (name, l, u) in [("exact", &reference.l, &reference.u), ("stored zeros", &l0, &u0)] {
            let label = format!("{label} {name}");
            let sparse = invert_without_tail(l, Triangle::Lower, options).unwrap();
            let tailed = exact(l, Triangle::Lower, threads).unwrap();
            assert_csc_bytes_equal(&format!("{label} L⁻¹"), &sparse, &tailed);
            let sparse = invert_without_tail(u, Triangle::Upper, options).unwrap();
            let tailed = exact(u, Triangle::Upper, threads).unwrap();
            assert_csc_bytes_equal(&format!("{label} U⁻¹"), &sparse, &tailed);
        }
        assert_eq!(exact(&singular_u, Triangle::Upper, threads).unwrap_err(), expect, "{label}");
        let sparse = invert_without_tail(&singular_u, Triangle::Upper, options);
        assert_eq!(sparse.unwrap_err(), expect, "{label}");
    }
}

/// A sparse chain of `head` columns feeding a full trailing block of
/// `width` columns: unit diagonal, off-diagonal block values within
/// ±0.002. The structural rule begins the dense tail at column `head`, and
/// the LU solves the columns after it in panels of eight.
fn tailed_triplets(head: u32, width: u32, seed: u64) -> Vec<(Index, Index, f64)> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let n = head + width;
    let mut trips: Vec<(Index, Index, f64)> = (0..n).map(|j| (j, j, 1.0)).collect();
    trips.extend((0..head).map(|j| (j + 1, j, -0.25)));
    for j in head..n {
        trips.extend((head..n).filter(|&i| i != j).map(|i| (i, j, rng.gen_range(-0.002..0.002))));
    }
    trips
}

/// Factors `w` through the panel LU and through the sparse kernel alone,
/// which must agree: the same bytes, or the same error (compared as
/// printed, so that two NaN pivots agree).
fn assert_panels_match_the_sparse_kernel(label: &str, w: &CscMatrix) -> Result<LuFactors, String> {
    let reference = sparse_lu_without_tail(w);
    let panels = sparse_lu(w);
    match (&reference, &panels) {
        (Ok(reference), Ok(factors)) => {
            assert_csc_bytes_equal(&format!("{label} L"), &reference.l, &factors.l);
            assert_csc_bytes_equal(&format!("{label} U"), &reference.u, &factors.u);
        }
        _ => assert_eq!(format!("{panels:?}"), format!("{reference:?}"), "{label}"),
    }
    panels.map_err(|e| format!("{e:?}"))
}

/// The panel LU at every panel boundary: dense tails whose panel columns
/// leave every remainder mod 8 for the last panel, begun at the first
/// column or partway through the matrix, give the sparse kernel's bytes,
/// and the tail is where the rule says.
#[test]
fn panel_lu_is_byte_identical_at_every_panel_boundary() {
    for head in [0u32, 37] {
        for width in 64u32..=72 {
            let n = (head + width) as usize;
            let w = CscMatrix::from_triplets(n, n, &tailed_triplets(head, width, 7)).unwrap();
            let label = format!("head {head} width {width}");
            let factors = assert_panels_match_the_sparse_kernel(&label, &w).unwrap();
            let tail = dense_tail_columns(&factors.l, Triangle::Lower).unwrap();
            assert_eq!(tail, width as usize, "{label}");
            let (_, tally) = sparse_lu_tallied(&w).unwrap();
            assert_eq!(tally.tail_columns, width as usize, "{label}");
        }
    }
}

/// An `L` column holding ±∞ beside zero multipliers. Column 40 of a tail
/// that begins at 37 has a 1e-300 pivot and 1e10 in the rows of the panel
/// 54..62, so `L` holds ∞ there; row 40 of `W` is empty but for its
/// diagonal and `W[40, 61]`, so every later column but 61 meets that
/// column with a zero multiplier, and 61 — the last lane of its panel —
/// with a nonzero one. The lanes beside it must keep their bits (a
/// multiply through the zero would plant NaN in their pivots), and the
/// panel LU must fail as the sparse kernel does; with `W[40, 61]` zero too,
/// no lane takes the column at all, and the factors are refused for the
/// first ∞ of `L`, at row 54 of column 40.
#[test]
fn panel_lu_keeps_lanes_whose_multiplier_is_zero_beside_an_infinite_l() {
    let (head, width, k) = (37u32, 70u32, 40u32);
    let n = (head + width) as usize;
    let base = CscMatrix::from_triplets(n, n, &tailed_triplets(head, width, 9)).unwrap();
    let (_, tally) = sparse_lu_tallied(&base).unwrap();
    assert_eq!(tally.tail_columns, width as usize, "the tail begins at column {head}");
    for hit in [true, false] {
        let mut trips: Vec<(Index, Index, f64)> = tailed_triplets(head, width, 9)
            .into_iter()
            .filter(|&(i, j, _)| i != k || j == k)
            .map(|(i, j, v)| match (i, j) {
                (40, 40) => (i, j, 1e-300),
                (54..=61, 40) => (i, j, 1e10),
                _ => (i, j, v),
            })
            .collect();
        if hit {
            trips.push((k, 61, 0.5));
        }
        let w = CscMatrix::from_triplets(n, n, &trips).unwrap();
        let label = format!("W[40, 61] set: {hit}");
        let err = assert_panels_match_the_sparse_kernel(&label, &w).unwrap_err();
        if hit {
            assert!(err.starts_with("SingularPivot { column: 61,"), "{label}: {err}");
        } else {
            assert_eq!(err, r#"Malformed("non-finite value at (54, 40)")"#, "{label}");
        }
    }
}

/// `W = I − 0.05·A` of `graph` in its own node order.
fn natural_w(graph: &CsrGraph) -> CscMatrix {
    let a = transition_matrix(graph, DanglingPolicy::Keep);
    w_matrix(&a, 0.95).expect("valid restart probability")
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_csr_bytes_equal(label: &str, expect: &CsrMatrix, got: &CsrMatrix) {
    assert_eq!((expect.nrows(), expect.ncols()), (got.nrows(), got.ncols()), "{label}: shape");
    let (ep, ei, ev) = expect.clone().into_raw_parts();
    let (gp, gi, gv) = got.clone().into_raw_parts();
    assert_eq!(ep, gp, "{label}: row_ptr differs");
    assert_eq!(ei, gi, "{label}: column indices differ");
    assert_eq!(bits(&ev), bits(&gv), "{label}: values differ");
}

/// The build's one-pool inversion against the per-triangle drivers it
/// replaces: `L⁻¹`'s CSC bytes, `U⁻¹`'s row arrays against
/// `CsrMatrix::from_csc` of the `U` driver's output, both triangles'
/// dropped masses and tallies — at one worker, two, three and auto, exact
/// and sparsified, on factors with a dense tail and without.
#[test]
fn joint_inversion_matches_the_per_triangle_drivers() {
    let natural = test_graphs().into_iter().map(|(name, graph)| (name, natural_w(&graph)));
    let hybrid = tail_graphs().into_iter().map(|(name, graph, _)| (name, hybrid_w(&graph)));
    for (name, w) in natural.chain(hybrid) {
        let factors = sparse_lu(&w).expect("W is diagonally dominant");
        for eps in [0.0, 1e-4] {
            let one = InvertOptions::default();
            let linv = sparsify_lower_unit_with(&factors.l, eps, one).unwrap();
            let uinv = sparsify_upper_with(&factors.u, eps, one).unwrap();
            let urows = CsrMatrix::from_csc(&uinv.inverse);
            for threads in [1usize, 2, 3, 0] {
                let label = format!("{name} eps={eps} threads={threads}");
                let joint =
                    sparsify_factors_with(&factors, eps, InvertOptions { threads }).unwrap();
                assert_csc_bytes_equal(&format!("{label} L⁻¹"), &linv.inverse, &joint.linv.inverse);
                assert_csr_bytes_equal(&format!("{label} U⁻¹"), &urows, &joint.uinv.inverse);
                assert_eq!(bits(&linv.dropped), bits(&joint.linv.dropped), "{label}: L masses");
                assert_eq!(bits(&uinv.dropped), bits(&joint.uinv.dropped), "{label}: U masses");
                assert_eq!(linv.tally, joint.linv.tally, "{label}: L tally");
                assert_eq!(uinv.tally, joint.uinv.tally, "{label}: U tally");
            }
        }
    }
}

/// The error of the one-pool inversion is the per-triangle order's: `L`'s
/// if its inversion fails, else `U`'s lowest failing column — although
/// the pool solves both at once and claims `U`'s columns from the top.
/// `U` here carries two pivots stored as zeros, a low and a high one; `L`
/// is clean, or has a sub-diagonal whose inverse overflows.
#[test]
fn joint_inversion_reports_the_first_failing_triangles_error() {
    let per_triangle = |factors: &LuFactors, eps: f64| {
        let one = InvertOptions::default();
        sparsify_lower_unit_with(&factors.l, eps, one)
            .and_then(|_| sparsify_upper_with(&factors.u, eps, one))
            .expect_err("a planted fault must fail the inversion")
    };
    for (name, graph) in test_graphs() {
        let clean = sparse_lu(&natural_w(&graph)).expect("W is diagonally dominant");
        let n = clean.dim() as Index;
        let (low, high) = (n / 4, 3 * n / 4);
        let zero_pivots = [low, high].map(|col| {
            let (rows, vals) = clean.u.col(col);
            let vals = rows.iter().zip(vals).map(|(&r, &v)| if r == col { 0.0 } else { v });
            ColumnUpdate { col, rows: rows.to_vec(), vals: vals.collect() }
        });
        let singular_u = clean.u.splice_columns(&zero_pivots).unwrap();
        let chain: Vec<_> = (1..n).map(|j| (j, j - 1, -1e200)).collect();
        let overflowing_l = CscMatrix::from_triplets(n as usize, n as usize, &chain).unwrap();
        let cases = [
            ("clean L, singular U", clean.l.clone(), singular_u.clone()),
            ("overflowing L, singular U", overflowing_l.clone(), singular_u),
            ("overflowing L, clean U", overflowing_l, clean.u.clone()),
        ];
        for (case, l, u) in cases {
            let factors = LuFactors { l, u };
            for eps in [0.0, 1e-4] {
                let expect = per_triangle(&factors, eps);
                if case.starts_with("clean L") {
                    let pivot = SparseError::SingularPivot { column: low as usize, value: 0.0 };
                    assert_eq!(expect, pivot, "{name} {case}: the lowest zero pivot");
                } else {
                    let label = format!("{name} {case}: {expect:?}");
                    assert!(matches!(expect, SparseError::Malformed(_)), "{label}");
                }
                for threads in [1usize, 2, 3, 0] {
                    let got = sparsify_factors_with(&factors, eps, InvertOptions { threads });
                    let label = format!("{name} {case} eps={eps} threads={threads}");
                    assert_eq!(got.expect_err("must fail"), expect, "{label}");
                }
            }
        }
    }
}
