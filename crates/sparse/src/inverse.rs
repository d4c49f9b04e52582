//! Sparse inverses of triangular factors (Equations (4)–(5) of the paper).
//!
//! `L⁻¹` and `U⁻¹` are computed column by column: column `j` of `T⁻¹` is the
//! solution of `T x = e_j`, obtained with the Gilbert–Peierls sparse solve
//! so each column costs time proportional to its own nonzero count. The
//! inverse of a triangular matrix is triangular with the same orientation;
//! how *sparse* it is depends entirely on the node ordering — this is the
//! quantity the paper's reordering heuristics (degree / cluster / hybrid)
//! minimise and that Figure 5 measures.
//!
//! Columns are mutually independent (no column's solve reads another
//! column of the inverse), which makes the inversion embarrassingly
//! parallel. Every inversion in the crate — full or a dirty subset — runs
//! through one driver here, under a drop tolerance `ε` whose `0.0` is the
//! exact inverse: the public spellings are [`crate::sparsify`]'s, and
//! there is no second, exact-only one. The workers share a read-only view
//! of the factor (for a full inversion indexed once up front — strict-span
//! bounds and stored diagonal per column, so no solve searches a column,
//! and the factor's dense tail mirrored for contiguous AXPYs:
//! [`crate::triangular`]), claim chunks of columns off one cursor with one
//! [`SolveWorkspace`] each, and the solved blocks are gathered back in
//! column order — so the result is **bit-identical** to the sequential
//! inversion at every thread count.
//!
//! The factors follow the crate's convention: a `Lower` factor has an
//! implicit unit diagonal and an `Upper` one stores its own, so the
//! [`Triangle`] alone says how a column's diagonal is read.
//!
//! Claims go out **heavy-first**. A column's cost is its reach, which
//! grows towards the low columns of a `Lower` triangle and the high
//! columns of an `Upper` one (the last of 64 chunks of an RMAT `U⁻¹` holds
//! nearly half its cost), so `Upper` chunks are claimed in descending
//! order: the expensive chunks start first and the cheap ones fill the
//! tail, where an ascending order would leave one worker alone on the
//! most expensive chunk.

use crate::triangular::{FactorView, TailRule};
use crate::{
    ColumnUpdate, CscMatrix, Index, Result, SolveTally, SolveWorkspace, SparseError,
    SparsifiedColumns, SparsifiedInverse, Triangle,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Options for the triangular-inversion driver.
#[derive(Debug, Clone, Copy)]
pub struct InvertOptions {
    /// Worker threads: `0` means "one per available hardware thread"
    /// (`std::thread::available_parallelism`), `1` runs sequentially on
    /// the calling thread. Any thread count produces bit-identical output.
    pub threads: usize,
}

impl Default for InvertOptions {
    fn default() -> Self {
        InvertOptions { threads: 1 }
    }
}

impl InvertOptions {
    /// Resolves the worker count against the column count: `0` = auto,
    /// always at least 1, never more workers than columns.
    pub fn resolved_threads(&self, num_cols: usize) -> usize {
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.threads
        };
        threads.max(1).min(num_cols.max(1))
    }
}

/// The exact inverse of one triangle of `t` through the sparse kernel
/// alone — the reference `tests/build_determinism.rs` holds the dense
/// tail of the `ε = 0` inversions to, byte for byte.
#[doc(hidden)]
pub fn invert_without_tail(
    t: &CscMatrix,
    triangle: Triangle,
    options: InvertOptions,
) -> Result<CscMatrix> {
    Ok(invert_truncated(t, triangle, 0.0, options, TailRule::NEVER)?.inverse)
}

/// How many trailing columns of one triangle of `t` the structural rule
/// would solve as a dense tail ([`crate::triangular`]): from the first of
/// its last 2 048 columns (`Lower`; rows for `Upper`) whose strict part is
/// at least half full, if that leaves at least 64.
pub fn dense_tail_columns(t: &CscMatrix, triangle: Triangle) -> Result<usize> {
    FactorView::tail_columns(t, triangle, TailRule::STRUCTURAL)
}

/// Full inversion under drop tolerance `eps` (`0.0` = exact): the inverse,
/// the ℓ₁ mass truncated from each column, and what the solves did. The
/// value-driven `eps > 0` solve reads no mirror, so none is built for it.
pub(crate) fn invert_truncated(
    t: &CscMatrix,
    triangle: Triangle,
    eps: f64,
    options: InvertOptions,
    rule: TailRule,
) -> Result<SparsifiedInverse> {
    let rule = if eps > 0.0 { TailRule::NEVER } else { rule };
    let view = FactorView::indexed(t, triangle, triangle.unit_diag(), rule)?;
    let n = view.dim();
    let (mut blocks, tally) = solve_columns(&view, None, eps, options.resolved_threads(n))?;
    // Concatenate the blocks (in column order, tiling `0..n`) into the
    // flat CSC arrays a sequential loop would have appended one column at
    // a time.
    let mut col_ptr = Vec::with_capacity(n + 1);
    let mut end = 0usize;
    col_ptr.push(end);
    for block in &blocks {
        debug_assert_eq!(block.first, col_ptr.len() - 1, "blocks must tile the column range");
        for &len in &block.col_lens {
            end += len;
            col_ptr.push(end);
        }
    }
    debug_assert_eq!(col_ptr.len(), n + 1, "every column must be covered");
    let (rows, vals, dropped) = if blocks.len() == 1 {
        // A lone block (one worker) already is the flat arrays.
        blocks.pop().map(|b| (b.rows, b.vals, b.dropped)).unwrap_or_default()
    } else {
        let mut flat = (Vec::with_capacity(end), Vec::with_capacity(end), Vec::with_capacity(n));
        for block in &blocks {
            flat.0.extend_from_slice(&block.rows);
            flat.1.extend_from_slice(&block.vals);
            flat.2.extend_from_slice(&block.dropped);
        }
        flat
    };
    let inverse = CscMatrix::from_raw_parts(n, n, col_ptr, rows, vals)?;
    Ok(SparsifiedInverse { inverse, dropped, tally })
}

/// A contiguous run of solved columns, produced by one worker claim.
#[derive(Default)]
struct ColumnBlock {
    /// Position of the block's first column in the column list.
    first: usize,
    /// Nonzero count per column, in column order.
    col_lens: Vec<usize>,
    /// Concatenated sorted row indices of the block's columns.
    rows: Vec<Index>,
    /// Values parallel to `rows`.
    vals: Vec<f64>,
    /// Dropped ℓ₁ mass per column, parallel to `col_lens`.
    dropped: Vec<f64>,
}

/// Columns per cursor claim. Column costs are skewed (a column's solve is
/// proportional to its reach, which grows towards one end of the
/// triangle), so claims must stay small enough for the fast workers to
/// steal the cheap tail; large enough that the cursor isn't contended.
pub(crate) fn claim_chunk(n: usize, threads: usize) -> usize {
    (n / (threads * 32)).clamp(1, 256)
}

/// The one column driver: solves `T x = e_j` under `eps` for every `j` in
/// `columns` (sorted strictly ascending; `None` = every column) and
/// returns the solved blocks in column order.
///
/// Workers claim chunks off one cursor, heavy-first (module docs). A
/// failed solve poisons the cursor and the run is repeated on the calling
/// thread in ascending order, so the error reported is the lowest failing
/// column's at every thread count (a cold path; the repeated work buys
/// determinism). A single worker runs on the calling thread; inverting
/// every column, it takes them as one chunk, which the gather then moves.
fn solve_columns(
    view: &FactorView,
    columns: Option<&[Index]>,
    eps: f64,
    threads: usize,
) -> Result<(Vec<ColumnBlock>, SolveTally)> {
    let len = columns.map_or(view.dim(), <[Index]>::len);
    let whole = threads <= 1 && columns.is_none();
    let chunk = if whole { len.max(1) } else { claim_chunk(len, threads) };
    let claims = len.div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    let work = || -> Result<(Vec<ColumnBlock>, SolveTally)> {
        let mut ws = SolveWorkspace::new(view.dim());
        let (mut xi, mut xv) = (Vec::new(), Vec::new());
        let mut solved = Vec::new();
        loop {
            let claim = cursor.fetch_add(1, Ordering::Relaxed);
            if claim >= claims {
                let tally = SolveTally { tail_columns: view.tail.columns(), ..ws.tally };
                return Ok((solved, tally));
            }
            // Heavy-first among workers; a lone worker keeps ascending
            // order, so the first error it meets is the lowest column's.
            let first = match view.triangle {
                Triangle::Upper if threads > 1 => (claims - 1 - claim) * chunk,
                _ => claim * chunk,
            };
            let mut block = ColumnBlock { first, ..Default::default() };
            for at in first..(first + chunk).min(len) {
                let j = columns.map_or(at as Index, |columns| columns[at]);
                let mass = ws
                    .solve_view(view, &[j], &[1.0], eps, Some(j), &mut xi, &mut xv)
                    .inspect_err(|_| {
                        cursor.fetch_max(claims, Ordering::Relaxed);
                    })?;
                block.col_lens.push(xi.len());
                block.rows.extend_from_slice(&xi);
                block.vals.extend_from_slice(&xv);
                block.dropped.push(mass);
            }
            solved.push(block);
        }
    };
    if threads <= 1 {
        return work();
    }
    let outputs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
        let panicked = |_| SparseError::Malformed("a column-solve worker panicked".into());
        handles.into_iter().map(|h| h.join().map_err(panicked)).collect::<Result<Vec<_>>>()
    })?;
    let mut blocks = Vec::new();
    let mut tally = SolveTally { tail_columns: view.tail.columns(), ..Default::default() };
    for output in outputs {
        match output {
            Ok((solved, counts)) => {
                blocks.extend(solved);
                tally.absorb(counts);
            }
            Err(_) => return solve_columns(view, columns, eps, 1),
        }
    }
    blocks.sort_unstable_by_key(|b| b.first);
    Ok((blocks, tally))
}

/// Subset inversion under drop tolerance `eps` (`0.0` = exact): for each
/// `j` in `columns` (sorted strictly ascending), the solution of
/// `T x = e_j` — exactly the per-column solve the full inversion runs, so
/// every returned column is **bit-identical** to the same column of the
/// full inversion at the same `eps` — and the ℓ₁ mass truncated from it.
/// Errors report the lowest failing column at every thread count.
pub(crate) fn invert_columns_truncated(
    t: &CscMatrix,
    triangle: Triangle,
    columns: &[Index],
    eps: f64,
    options: InvertOptions,
) -> Result<SparsifiedColumns> {
    // A subset's solves reach columns nobody can name up front, so this
    // view probes a column when a solve asks for it; indexing all `n` to
    // re-solve a handful would cost more than the solves.
    let view = FactorView::new(t, triangle, triangle.unit_diag())?;
    for (k, &c) in columns.iter().enumerate() {
        if (c as usize) >= view.dim() {
            return Err(SparseError::Malformed(format!(
                "column {c} out of bounds for dimension {}",
                view.dim()
            )));
        }
        if k > 0 && columns[k - 1] >= c {
            return Err(SparseError::Malformed(
                "columns must be sorted strictly ascending".into(),
            ));
        }
    }
    let threads = options.resolved_threads(columns.len());
    let (blocks, _) = solve_columns(&view, Some(columns), eps, threads)?;
    let mut updates = Vec::with_capacity(columns.len());
    let mut dropped = Vec::with_capacity(columns.len());
    for block in blocks {
        let mut at = 0usize;
        for (&col, &len) in columns[block.first..].iter().zip(&block.col_lens) {
            updates.push(ColumnUpdate {
                col,
                rows: block.rows[at..at + len].to_vec(),
                vals: block.vals[at..at + len].to_vec(),
            });
            at += len;
        }
        dropped.extend_from_slice(&block.dropped);
    }
    Ok(SparsifiedColumns { updates, dropped })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{sparse_lu, sparsify_columns_with, sparsify_lower_unit_with, sparsify_upper_with};

    /// The exact inverse of a factor: the one driver at `ε = 0`.
    pub(crate) fn exact(t: &CscMatrix, triangle: Triangle, threads: usize) -> Result<CscMatrix> {
        let options = InvertOptions { threads };
        let inverted = match triangle {
            Triangle::Lower => sparsify_lower_unit_with(t, 0.0, options)?,
            Triangle::Upper => sparsify_upper_with(t, 0.0, options)?,
        };
        Ok(inverted.inverse)
    }

    /// Exact re-solves of a column subset.
    fn exact_columns(
        t: &CscMatrix,
        triangle: Triangle,
        columns: &[Index],
        threads: usize,
    ) -> Result<Vec<ColumnUpdate>> {
        let options = InvertOptions { threads };
        Ok(sparsify_columns_with(t, triangle, columns, 0.0, options)?.updates)
    }

    fn assert_is_identity(product: &[Vec<f64>], tol: f64) {
        for (i, row) in product.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < tol, "({i},{j}) = {v}");
            }
        }
    }

    fn dense_mul(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let n = a.len();
        let mut out = vec![vec![0.0; n]; n];
        for i in 0..n {
            for k in 0..n {
                let aik = a[i][k];
                if aik != 0.0 {
                    for j in 0..n {
                        out[i][j] += aik * b[k][j];
                    }
                }
            }
        }
        out
    }

    /// Adds an implicit unit diagonal to a dense strictly-lower matrix.
    fn with_unit_diag(mut d: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        for (i, row) in d.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        d
    }

    #[test]
    fn chain_lower_inverse_is_all_ones() {
        // L = I - subdiagonal(-1): L^{-1} is lower triangular of all ones.
        let n = 5;
        let trips: Vec<(Index, Index, f64)> =
            (0..n - 1).map(|j| (j as Index + 1, j as Index, -1.0)).collect();
        let l = CscMatrix::from_triplets(n, n, &trips).unwrap();
        let inv = exact(&l, Triangle::Lower, 1).unwrap();
        for c in 0..n as Index {
            let (rows, vals) = inv.col(c);
            assert_eq!(rows.len(), n - c as usize);
            assert!(vals.iter().all(|&v| (v - 1.0).abs() < 1e-14));
        }
    }

    #[test]
    fn lower_inverse_times_matrix_is_identity() {
        let l = CscMatrix::from_triplets(4, 4, &[(1, 0, 0.5), (2, 0, -0.25), (3, 2, 2.0), (2, 1, 1.0)])
            .unwrap();
        let inv = exact(&l, Triangle::Lower, 1).unwrap();
        let product = dense_mul(&inv.to_dense(), &with_unit_diag(l.to_dense()));
        assert_is_identity(&product, 1e-12);
    }

    #[test]
    fn upper_inverse_times_matrix_is_identity() {
        let u = CscMatrix::from_triplets(
            3,
            3,
            &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 4.0), (0, 2, -1.0), (1, 2, 0.5), (2, 2, 0.25)],
        )
        .unwrap();
        let inv = exact(&u, Triangle::Upper, 1).unwrap();
        let product = dense_mul(&inv.to_dense(), &u.to_dense());
        assert_is_identity(&product, 1e-12);
    }

    #[test]
    fn inverse_diagonals_are_explicit() {
        let l = CscMatrix::from_triplets(3, 3, &[(2, 0, 1.0)]).unwrap();
        let inv = exact(&l, Triangle::Lower, 1).unwrap();
        for j in 0..3 {
            assert_eq!(inv.get(j, j), Some(1.0));
        }
        let u = CscMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (1, 1, 8.0)]).unwrap();
        let uinv = exact(&u, Triangle::Upper, 1).unwrap();
        assert_eq!(uinv.get(0, 0), Some(0.25));
        assert_eq!(uinv.get(1, 1), Some(0.125));
    }

    #[test]
    fn singular_upper_rejected() {
        let u = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]).unwrap();
        assert!(matches!(exact(&u, Triangle::Upper, 1), Err(SparseError::SingularPivot { .. })));
    }

    #[test]
    fn inverses_reconstruct_w_inverse() {
        // Verify c * U^{-1} (L^{-1} e_q) == W^{-1} e_q * c for an RWR-like W.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let n = 12;
        let mut trips: Vec<(Index, Index, f64)> = Vec::new();
        let mut col_sum = vec![0.0f64; n];
        for j in 0..n as Index {
            for i in 0..n as Index {
                if i != j && rng.gen_bool(0.3) {
                    let v: f64 = -rng.gen_range(0.01..0.5);
                    trips.push((i, j, v));
                    col_sum[j as usize] += v.abs();
                }
            }
        }
        for (j, &cs) in col_sum.iter().enumerate() {
            trips.push((j as Index, j as Index, cs + 0.5));
        }
        let w = CscMatrix::from_triplets(n, n, &trips).unwrap();
        let f = sparse_lu(&w).unwrap();
        let linv = exact(&f.l, Triangle::Lower, 1).unwrap();
        let uinv = exact(&f.u, Triangle::Upper, 1).unwrap();
        for q in 0..n as Index {
            // x = U^{-1} (L^{-1} e_q)
            let (lq_rows, lq_vals) = linv.col(q);
            let mut y = vec![0.0; n];
            for (&r, &v) in lq_rows.iter().zip(lq_vals) {
                y[r as usize] = v;
            }
            let x = uinv.matvec(&y);
            // reference: dense solve of W x = e_q
            let mut e = vec![0.0; n];
            e[q as usize] = 1.0;
            let reference = f.solve_dense(&e).unwrap();
            for (a, b) in x.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-10, "{a} vs {b}");
            }
        }
    }

    /// Random triangular factors from RWR-like matrices: the parallel
    /// driver must reproduce the sequential arrays *bit for bit* at every
    /// thread count, including counts far above the column count, and at
    /// `ε = 0` no column drops any mass.
    #[test]
    fn parallel_inversion_is_bit_identical() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..8 {
            let n = rng.gen_range(5..60usize);
            let mut trips: Vec<(Index, Index, f64)> = Vec::new();
            let mut col_sum = vec![0.0f64; n];
            for j in 0..n as Index {
                for i in 0..n as Index {
                    if i != j && rng.gen_bool(0.25) {
                        let v: f64 = -rng.gen_range(0.01..0.6);
                        trips.push((i, j, v));
                        col_sum[j as usize] += v.abs();
                    }
                }
            }
            for (j, &cs) in col_sum.iter().enumerate() {
                trips.push((j as Index, j as Index, cs + 0.7));
            }
            let w = CscMatrix::from_triplets(n, n, &trips).unwrap();
            let f = sparse_lu(&w).unwrap();
            let linv_seq = sparsify_lower_unit_with(&f.l, 0.0, InvertOptions::default()).unwrap();
            let uinv_seq = sparsify_upper_with(&f.u, 0.0, InvertOptions::default()).unwrap();
            assert!(linv_seq.dropped.iter().chain(&uinv_seq.dropped).all(|&m| m == 0.0));
            assert_eq!((linv_seq.dropped.len(), uinv_seq.dropped.len()), (n, n));
            for threads in [0usize, 2, 3, 7, 64] {
                let linv_par = exact(&f.l, Triangle::Lower, threads).unwrap();
                let uinv_par = exact(&f.u, Triangle::Upper, threads).unwrap();
                assert_bit_identical(&linv_seq.inverse, &linv_par, trial, threads);
                assert_bit_identical(&uinv_seq.inverse, &uinv_par, trial, threads);
            }
        }
    }

    fn assert_bit_identical(a: &CscMatrix, b: &CscMatrix, trial: usize, threads: usize) {
        let (ap, ai, av) = a.raw();
        let (bp, bi, bv) = b.raw();
        assert_eq!(ap, bp, "trial {trial} threads {threads}: col_ptr differs");
        assert_eq!(ai, bi, "trial {trial} threads {threads}: row_idx differs");
        let abits: Vec<u64> = av.iter().map(|v| v.to_bits()).collect();
        let bbits: Vec<u64> = bv.iter().map(|v| v.to_bits()).collect();
        assert_eq!(abits, bbits, "trial {trial} threads {threads}: values differ");
    }

    #[test]
    fn parallel_error_is_lowest_singular_column() {
        // Diagonal missing at columns 3 and 7: every thread count must
        // report column 3, like the sequential path.
        let n = 12;
        let mut trips: Vec<(Index, Index, f64)> = Vec::new();
        for j in 0..n as Index {
            if j != 3 && j != 7 {
                trips.push((j, j, 2.0));
            }
            if j > 0 {
                trips.push((j - 1, j, 1.0));
            }
        }
        let u = CscMatrix::from_triplets(n, n, &trips).unwrap();
        for threads in [1usize, 2, 4, 16] {
            let err = exact(&u, Triangle::Upper, threads).unwrap_err();
            assert!(
                matches!(err, SparseError::SingularPivot { column: 3, .. }),
                "threads {threads}: {err:?}"
            );
        }
    }

    /// `Upper` chunks are claimed in descending order, so a high singular
    /// column is met first; the error must still be the lowest failing
    /// column's, and the same whether its diagonal is missing or stored
    /// as an explicit zero — for the full inversion and for a subset.
    #[test]
    fn missing_and_zero_diagonals_report_the_same_lowest_column() {
        let n = 12;
        let mut trips: Vec<(Index, Index, f64)> = Vec::new();
        for j in 0..n as Index {
            trips.push((j, j, if j == 3 || j == 7 { 9.0 } else { 2.0 }));
            if j > 0 {
                trips.push((j - 1, j, 1.0));
            }
        }
        let marked = CscMatrix::from_triplets(n, n, &trips).unwrap();
        let zeroed = marked.map_values(|v| if v == 9.0 { 0.0 } else { v });
        trips.retain(|&(_, _, v)| v != 9.0);
        let missing = CscMatrix::from_triplets(n, n, &trips).unwrap();
        assert_eq!((zeroed.get(3, 3), missing.get(3, 3)), (Some(0.0), None));
        let subset: Vec<Index> = (2..n as Index).collect();
        let expect = SparseError::SingularPivot { column: 3, value: 0.0 };
        for threads in [1usize, 2] {
            for u in [&zeroed, &missing] {
                assert_eq!(exact(u, Triangle::Upper, threads).unwrap_err(), expect);
                let err = exact_columns(u, Triangle::Upper, &subset, threads);
                assert_eq!(err.unwrap_err(), expect, "subset, threads {threads}");
            }
        }
    }

    #[test]
    fn invert_options_resolution() {
        assert!(InvertOptions { threads: 0 }.resolved_threads(100) >= 1);
        assert_eq!(InvertOptions::default().resolved_threads(100), 1);
        assert_eq!(InvertOptions { threads: 8 }.resolved_threads(3), 3);
        assert_eq!(InvertOptions { threads: 8 }.resolved_threads(0), 1);
        assert_eq!(InvertOptions::default().threads, 1);
    }

    #[test]
    fn claim_chunk_bounds() {
        assert_eq!(claim_chunk(10, 4), 1);
        assert!(claim_chunk(1_000_000, 2) <= 256);
        assert!(claim_chunk(0, 8) >= 1);
    }

    /// The subset driver's contract: every solved column is bit-identical
    /// to the same column of the full inversion, at every thread count.
    #[test]
    fn column_subset_solves_match_full_inversion() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..6 {
            let n = rng.gen_range(8..40usize);
            let mut trips: Vec<(Index, Index, f64)> = Vec::new();
            let mut col_sum = vec![0.0f64; n];
            for j in 0..n as Index {
                for i in 0..n as Index {
                    if i != j && rng.gen_bool(0.3) {
                        let v: f64 = -rng.gen_range(0.01..0.5);
                        trips.push((i, j, v));
                        col_sum[j as usize] += v.abs();
                    }
                }
            }
            for (j, &cs) in col_sum.iter().enumerate() {
                trips.push((j as Index, j as Index, cs + 0.6));
            }
            let w = CscMatrix::from_triplets(n, n, &trips).unwrap();
            let f = sparse_lu(&w).unwrap();
            let linv = exact(&f.l, Triangle::Lower, 1).unwrap();
            let uinv = exact(&f.u, Triangle::Upper, 1).unwrap();
            let subset: Vec<Index> = (0..n as Index).filter(|j| j % 3 != 1).collect();
            for threads in [1usize, 2, 5, 0] {
                let l_updates = exact_columns(&f.l, Triangle::Lower, &subset, threads).unwrap();
                let u_updates = exact_columns(&f.u, Triangle::Upper, &subset, threads).unwrap();
                for (updates, full) in [(&l_updates, &linv), (&u_updates, &uinv)] {
                    assert_eq!(updates.len(), subset.len());
                    for u in updates.iter() {
                        let (rows, vals) = full.col(u.col);
                        assert_eq!(u.rows.as_slice(), rows, "trial {trial} col {}", u.col);
                        for (a, b) in u.vals.iter().zip(vals) {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "trial {trial} col {} threads {threads}",
                                u.col
                            );
                        }
                    }
                }
            }
        }
    }

    /// Splicing re-solved columns into the old inverse reproduces the new
    /// full inversion exactly — the array-level core of the dynamic
    /// engine, on raw triangles.
    #[test]
    fn resolve_and_splice_reproduces_full_inversion() {
        let l_old =
            CscMatrix::from_triplets(4, 4, &[(1, 0, 0.5), (2, 1, 0.25), (3, 2, 0.125)]).unwrap();
        let l_new =
            CscMatrix::from_triplets(4, 4, &[(1, 0, 0.75), (2, 1, 0.25), (3, 2, 0.125)]).unwrap();
        let inv_old = exact(&l_old, Triangle::Lower, 1).unwrap();
        let inv_new = exact(&l_new, Triangle::Lower, 1).unwrap();
        let dirty: Vec<Index> = (0..4).filter(|&c| l_old.col(c) != l_new.col(c)).collect();
        assert_eq!(dirty, vec![0]);
        let dirty_inverse = crate::reach::inverse_dirty_columns(&l_new, &dirty);
        let updates = exact_columns(&l_new, Triangle::Lower, &dirty_inverse, 1).unwrap();
        let spliced = inv_old.splice_columns(&updates).unwrap();
        assert_eq!(spliced, inv_new);
    }

    #[test]
    fn column_subset_validation_and_errors() {
        let l = CscMatrix::from_triplets(3, 3, &[(1, 0, 1.0)]).unwrap();
        assert!(exact_columns(&l, Triangle::Lower, &[1, 0], 1).is_err());
        assert!(exact_columns(&l, Triangle::Lower, &[0, 0], 1).is_err());
        assert!(exact_columns(&l, Triangle::Lower, &[7], 1).is_err());
        assert!(exact_columns(&l, Triangle::Lower, &[], 1).unwrap().is_empty());
        // Singular column inside the subset: lowest failing column wins
        // at every thread count.
        let n = 10;
        let mut trips: Vec<(Index, Index, f64)> = Vec::new();
        for j in 0..n as Index {
            if j != 2 && j != 6 {
                trips.push((j, j, 2.0));
            }
            if j > 0 {
                trips.push((j - 1, j, 1.0));
            }
        }
        let u = CscMatrix::from_triplets(n, n, &trips).unwrap();
        let subset: Vec<Index> = (0..n as Index).collect();
        for threads in [1usize, 2, 8] {
            let err = exact_columns(&u, Triangle::Upper, &subset, threads).unwrap_err();
            assert!(
                matches!(err, SparseError::SingularPivot { column: 2, .. }),
                "threads {threads}: {err:?}"
            );
        }
    }
}
