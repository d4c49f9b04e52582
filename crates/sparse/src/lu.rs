//! Left-looking sparse LU factorisation (Gilbert–Peierls).
//!
//! Factors `W = L · U` with unit-diagonal `L` (Doolittle form), matching the
//! paper's Equations (6)–(7): each column of `L` and `U` is computed from
//! the columns to its left. The numeric core of column `j` is a sparse
//! triangular solve `L(0..j, 0..j) x = W(:, j)` on the one engine of
//! [`crate::triangular`]: its rows pop from a bitset in ascending order —
//! the one numeric order — each row left of `j` scattering its column of
//! the partially-built `L`, so the pattern comes out sorted and the whole
//! costs `O(flops)`. From the first column whose `L` part is at least half
//! full (the hubs a degree or hybrid ordering puts last) the full build
//! mirrors each solved column into a [`DenseTail`] and solves the later
//! columns in *panels* ([`solve_panel`]) — of eight where the
//! host has AVX-512F, else of one: each column's sparse head on its own,
//! then one pass of contiguous AXPYs through the mirror that loads each
//! mirrored value once for the whole panel, then the panel's own columns
//! in order. Every column receives the operations of the sparse-only
//! solve in the same order — the same bytes, the same tally and the same
//! first singular column, wherever the mirror starts and wherever a panel
//! ends.
//!
//! No pivoting is performed. The intended input `W = I − (1−c)A` with a
//! column-substochastic `A` and `0 < c < 1` is strictly column diagonally
//! dominant, for which LU without pivoting is well defined and numerically
//! stable; a zero pivot on other inputs surfaces as
//! [`SparseError::SingularPivot`].
//!
//! ## The column-dependency DAG
//!
//! The left-looking formulation makes the data flow explicit: factor
//! column `j` is produced from `W(:, j)` and the `L` columns in the
//! Gilbert–Peierls reach of `pattern(W(:, j))` — nothing else (`U`
//! columns are outputs; the solve never reads them back, and reads no
//! column past a position that cancels to zero). Every pattern
//! edge `k → i` of `L` runs strictly upward (`i > k`), so the columns
//! form a DAG ordered by column number, and a column's dependency cone
//! lies entirely to its left.
//!
//! The factorisation runs on one thread, by measurement: under the
//! orderings the index is built with, that DAG is close to a chain (work
//! ÷ critical path 1.00–1.22 on the benchmark graphs) and the dense tail,
//! where most of the multiply-subtracts are, needs every column before
//! it, so a second worker can only take turns with the first. A driver
//! that fanned columns out and waited on in-flight dependencies was
//! slower with two workers than with one on 14 of 16 paired medians over
//! the four benchmark graphs (`dict-pruned` 11.1–11.6 → 12.4–13.1 ms).
//! Within that thread the tail goes in panels: a panel's columns read
//! only the tail's columns before the panel, all solved when it starts,
//! so they sweep them together. Where the host has AVX-512F a panel is
//! eight columns, the eight lanes of one vector; on the `rmat-certified`
//! graph (RMAT scale 13, a 672-column tail holding 99.4 % of 71.9 M
//! multiply-subtracts) that took the LU from 32–36 to 16–19 ms, best of
//! 15–30, on a 2-core AVX-512 Xeon guest. Elsewhere a panel is one
//! column ([`crate::triangular::wide_axpy`] says why). The build's thread
//! parallelism is the inversion stage ([`crate::inverse`]), whose columns
//! are independent solves.
//!
//! ## Incremental refactorisation
//!
//! What the DAG does buy is [`refactor_columns`]: a column whose `W`
//! column is untouched and whose reach contains no column with
//! bitwise-changed `L` reads only bit-identical inputs, so its output is
//! provably bit-identical and is kept. Processing columns in ascending
//! order, the exact recompute set falls out of a taint propagation: when
//! a recomputed column's `L` part changes, a backward BFS over the old
//! `L`'s row-pattern adjacency taints every ancestor (column that can
//! reach it); a later column is recomputed iff its `W` column is dirty or
//! its `W` pattern holds a tainted node. Any path from a seed to a
//! *first*-changed column runs through unchanged columns only, whose old
//! and new patterns coincide — so the old adjacency covers every path
//! that matters, and stale edges from changed columns can only over-taint
//! (extra work, never a wrong bit). Note the popular "column `j` depends
//! on `k` iff `U(k, j) ≠ 0`" formulation is *not* used for the dependency
//! test: exact numeric cancellation can drop an entry from the stored `U`
//! while the symbolic reach still includes it, and the symbolic reach is
//! what bounds the inputs.

use crate::triangular::{axpy_one, wide_axpy, Axpy, DenseTail, FactorView, TailRule, PANEL};
use crate::{
    ColumnUpdate, CscMatrix, Index, InvertOptions, Result, SolveTally, SolveWorkspace,
    SparseError, Triangle,
};
use std::time::{Duration, Instant};

/// The two triangular factors of `W = L · U`.
///
/// * `l` — unit lower triangular, **diagonal not stored** (all entries are
///   strictly below the diagonal).
/// * `u` — upper triangular, diagonal stored (last entry of each column).
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// Strictly-lower part of the unit lower triangular factor.
    pub l: CscMatrix,
    /// Upper triangular factor including the diagonal.
    pub u: CscMatrix,
}

impl LuFactors {
    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.u.ncols()
    }

    /// Combined stored entries of both factors.
    pub fn nnz(&self) -> usize {
        self.l.nnz() + self.u.nnz()
    }

    /// Dense solve `W x = b` via forward then backward substitution.
    /// `O(nnz(L) + nnz(U))`.
    pub fn solve_dense(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(SparseError::Malformed(format!(
                "rhs length {} does not match dimension {n}",
                b.len()
            )));
        }
        let mut x = b.to_vec();
        // Forward: L y = b, unit diagonal, column-oriented.
        for j in 0..n as Index {
            let xj = x[j as usize];
            if xj != 0.0 {
                let (rows, vals) = self.l.col(j);
                for (&i, &v) in rows.iter().zip(vals) {
                    x[i as usize] -= v * xj;
                }
            }
        }
        // Backward: U x = y, each column's strict part and pivot found
        // the way every triangular solve finds them.
        let u = FactorView::new(&self.u, Triangle::Upper, false)?;
        for j in (0..n as Index).rev() {
            let (rows, vals, diag) = u.strict_column(j);
            if diag == 0.0 {
                return Err(SparseError::SingularPivot { column: j as usize, value: 0.0 });
            }
            let xj = x[j as usize] / diag;
            x[j as usize] = xj;
            if xj != 0.0 {
                for (&i, &v) in rows.iter().zip(vals) {
                    x[i as usize] -= v * xj;
                }
            }
        }
        Ok(x)
    }

    /// Sparse solve `W x = e_q` using two sparse triangular solves. This is
    /// the "no stored inverses" alternative benchmarked by the
    /// `ablation_solve_vs_inverse` bench; it returns the sorted sparse
    /// solution.
    pub fn solve_unit_sparse(
        &self,
        ws: &mut SolveWorkspace,
        q: Index,
    ) -> Result<(Vec<Index>, Vec<f64>)> {
        let (mut yi, mut yv) = (Vec::new(), Vec::new());
        let l = FactorView::new(&self.l, Triangle::Lower, true)?;
        ws.solve_view(&l, &[q], &[1.0], 0.0, None, &mut yi, &mut yv)?;
        let (mut xi, mut xv) = (Vec::new(), Vec::new());
        let u = FactorView::new(&self.u, Triangle::Upper, false)?;
        ws.solve_view(&u, &yi, &yv, 0.0, None, &mut xi, &mut xv)?;
        Ok((xi, xv))
    }
}

/// One solved factor column: the `U(:, j)` entries (sorted, diagonal
/// last) and the strictly-lower `L(:, j)` entries (sorted, already
/// divided by the pivot). The unit of work every factorisation driver in
/// this module produces and consumes.
#[derive(Debug, Clone)]
struct FactorColumn {
    u_rows: Vec<Index>,
    u_vals: Vec<f64>,
    l_rows: Vec<Index>,
    l_vals: Vec<f64>,
}

/// Source of already-solved `L` columns for [`eliminate`]: the
/// growing result set (full build) or a hybrid of old factors and
/// recomputed columns (incremental refactorisation).
trait LColumns {
    /// Strictly-lower pattern and values of factor column `k` — only ever
    /// requested for `k` strictly left of the column being solved.
    fn col(&self, k: Index) -> (&[Index], &[f64]);
}

/// Full factorisation: every column `k < j` is already in the result
/// vector.
struct SolvedView<'a>(&'a [FactorColumn]);

impl LColumns for SolvedView<'_> {
    fn col(&self, k: Index) -> (&[Index], &[f64]) {
        let c = &self.0[k as usize];
        (&c.l_rows, &c.l_vals)
    }
}

/// Incremental refactorisation: recomputed columns where available, the
/// old factor columns everywhere else (legal because non-recomputed
/// columns are provably bit-identical to a full rebuild).
struct HybridView<'a> {
    old_l: &'a CscMatrix,
    fresh: &'a [Option<FactorColumn>],
}

impl LColumns for HybridView<'_> {
    fn col(&self, k: Index) -> (&[Index], &[f64]) {
        match &self.fresh[k as usize] {
            Some(c) => (&c.l_rows, &c.l_vals),
            None => self.old_l.col(k),
        }
    }
}

/// Eliminates the columns left of `j` from `W(:, j)` on `ws`: the rows
/// from `head` on are live at zero (a dense tail's, which need no
/// pattern), every other row of `W(:, j)` is discovered, and the
/// discovered rows pop in ascending order into `ws.pattern` — each row
/// `r < j` whose value is nonzero scattering `L(:, r)` times it, which
/// discovers rows only below `r`; rows at or below the pivot only
/// accumulate. Returns the multiply-subtracts made.
fn eliminate_left(
    j: Index,
    (b_rows, b_vals): (&[Index], &[f64]),
    l: &impl LColumns,
    head: usize,
    ws: &mut SolveWorkspace,
) -> u64 {
    ws.begin(Triangle::Lower, head);
    ws.seed(b_rows, b_vals);
    ws.pattern.clear();
    let mut flops = 0u64;
    while let Some(r) = ws.pop() {
        ws.pattern.push(r as Index);
        let xr = ws.x[r];
        if r < j as usize && xr != 0.0 {
            let (rows, vals) = l.col(r as Index);
            ws.scatter(rows, vals, xr);
            flops += rows.len() as u64;
        }
    }
    flops
}

/// The solve for one factor column, on the `L` columns left of `j` that
/// `l` provides: [`eliminate_left`], pivot check, then emit `U(:, j)`
/// (sorted, diagonal last) and `L(:, j)` (sorted, pivot-scaled).
/// Bit-for-bit the same result whichever provider backs `l`, and the same
/// as the column of a panel ([`solve_panel`]) — the invariant every
/// driver in this module leans on.
fn eliminate(
    j: Index,
    w_col: (&[Index], &[f64]),
    l: &impl LColumns,
    ws: &mut SolveWorkspace,
) -> Result<FactorColumn> {
    let head_flops = eliminate_left(j, w_col, l, ws.dim(), ws);
    ws.tally.count(head_flops, 0);
    let SolveWorkspace { stamps, x, pattern, .. } = ws;
    let pivot_row = j as usize;
    let pivot = if stamps.is_marked(pivot_row) { x[pivot_row] } else { 0.0 };
    check_pivot(pivot_row, pivot)?;

    // Emit U(:, j): rows < j, ascending, then the diagonal last.
    let (left, rest) = pattern.split_at(pattern.partition_point(|&r| r < j));
    let mut u_rows = Vec::with_capacity(left.len() + 1);
    let mut u_vals = Vec::with_capacity(left.len() + 1);
    for &r in left {
        let v = x[r as usize];
        if v != 0.0 {
            u_rows.push(r);
            u_vals.push(v);
        }
    }
    u_rows.push(j);
    u_vals.push(pivot);

    // Emit L(:, j): rows > j, ascending, divided by the pivot.
    let below = &rest[(rest.first() == Some(&j)) as usize..];
    let mut l_rows = Vec::with_capacity(below.len());
    let mut l_vals = Vec::with_capacity(below.len());
    for &r in below {
        let v = x[r as usize];
        if v != 0.0 {
            l_rows.push(r);
            l_vals.push(v / pivot);
        }
    }

    Ok(FactorColumn { u_rows, u_vals, l_rows, l_vals })
}

/// Refuses the pivots an LU without pivoting cannot divide by: zero and
/// non-finite ones.
fn check_pivot(column: usize, pivot: f64) -> Result<()> {
    if pivot == 0.0 || !pivot.is_finite() {
        return Err(SparseError::SingularPivot { column, value: pivot });
    }
    Ok(())
}

/// Solves the next `lanes` (≤ `P`) columns, all right of the tail's
/// first, as one panel of `rows` (reused from panel to panel). Each column
/// runs its sparse head — [`eliminate_left`] with the tail's rows live —
/// and is pushed with its `U` entries above the tail,
/// which are final: the tail's columns write only rows inside it. Its tail
/// rows go to its lane of the panel. One sweep through the tail's columns
/// so far then loads each of their values once for every lane. Last,
/// column by column, the pivot is checked, the column's `U` is completed
/// and its `L` filled and mirrored, and the lanes after it take its AXPY.
/// Every column so receives the operations of a one-column solve through
/// the tail, in the same order: the bytes, the tally and the first
/// singular column reported are the sparse kernel's, and each column's
/// arrays are allocated as [`eliminate`] allocates them, in the same
/// order.
fn solve_panel<const P: usize>(
    w: &CscMatrix,
    lanes: usize,
    cols: &mut Vec<FactorColumn>,
    tail: &mut DenseTail,
    ws: &mut SolveWorkspace,
    rows: &mut Vec<[f64; P]>,
    axpy: impl Axpy<P>,
) -> Result<()> {
    let (n, start, j0) = (w.nrows(), tail.start(), cols.len());
    debug_assert!(tail.columns() > 0 && start + tail.columns() == j0 && lanes <= P);
    rows.clear();
    rows.resize(n - start, [0.0; P]);
    let mut head_flops = 0u64;
    for p in 0..lanes {
        let j = j0 + p;
        head_flops += eliminate_left(j as Index, w.col(j as Index), &SolvedView(cols), start, ws);
        let (x, pattern) = (&ws.x, &ws.pattern);
        let capacity = pattern.len() + (j - start) + 1;
        let (mut u_rows, mut u_vals) = (Vec::with_capacity(capacity), Vec::with_capacity(capacity));
        for &r in pattern.iter().filter(|&&r| x[r as usize] != 0.0) {
            u_rows.push(r);
            u_vals.push(x[r as usize]);
        }
        let below = n - 1 - j;
        let (l_rows, l_vals) = (Vec::with_capacity(below), Vec::with_capacity(below));
        cols.push(FactorColumn { u_rows, u_vals, l_rows, l_vals });
        for (row, &v) in rows.iter_mut().zip(&x[start..]) {
            row[p] = v;
        }
    }

    let mut tail_flops = tail.sweep_panel(rows, 0..j0 - start, 0, axpy);
    for p in 0..lanes {
        let j = j0 + p;
        let pivot = rows[j - start][p];
        check_pivot(j, pivot)?;
        let FactorColumn { u_rows, u_vals, l_rows, l_vals } = &mut cols[j];
        for (r, row) in (start..j).zip(&rows[..j - start]) {
            if row[p] != 0.0 {
                u_rows.push(r as Index);
                u_vals.push(row[p]);
            }
        }
        u_rows.push(j as Index);
        u_vals.push(pivot);
        for (r, row) in (j + 1..n).zip(&rows[j + 1 - start..]) {
            if row[p] != 0.0 {
                l_rows.push(r as Index);
                l_vals.push(row[p] / pivot);
            }
        }
        tail.push_lower(j, l_rows, l_vals);
        tail_flops += tail.sweep_panel(rows, j - start..j + 1 - start, p + 1, axpy);
    }
    ws.tally.count(head_flops, tail_flops);
    Ok(())
}

/// Concatenates solved columns into the flat CSC factor pair.
fn assemble(n: usize, cols: Vec<FactorColumn>) -> Result<LuFactors> {
    let mut l_ptr: Vec<usize> = Vec::with_capacity(n + 1);
    let mut u_ptr: Vec<usize> = Vec::with_capacity(n + 1);
    l_ptr.push(0);
    u_ptr.push(0);
    let l_nnz: usize = cols.iter().map(|c| c.l_rows.len()).sum();
    let u_nnz: usize = cols.iter().map(|c| c.u_rows.len()).sum();
    let mut l_rows: Vec<Index> = Vec::with_capacity(l_nnz);
    let mut l_vals: Vec<f64> = Vec::with_capacity(l_nnz);
    let mut u_rows: Vec<Index> = Vec::with_capacity(u_nnz);
    let mut u_vals: Vec<f64> = Vec::with_capacity(u_nnz);
    for c in &cols {
        l_rows.extend_from_slice(&c.l_rows);
        l_vals.extend_from_slice(&c.l_vals);
        l_ptr.push(l_rows.len());
        u_rows.extend_from_slice(&c.u_rows);
        u_vals.extend_from_slice(&c.u_vals);
        u_ptr.push(u_rows.len());
    }
    let l = CscMatrix::from_raw_parts(n, n, l_ptr, l_rows, l_vals)?;
    let u = CscMatrix::from_raw_parts(n, n, u_ptr, u_rows, u_vals)?;
    debug_assert!(l.is_strictly_lower());
    debug_assert!(u.is_upper());
    Ok(LuFactors { l, u })
}

/// The full-build driver: columns left to right, each reading the columns
/// already solved — one at a time until a column `rule` lets begin the
/// dense tail, then in panels: of [`PANEL`] through the host's
/// [`wide_axpy`], else of one.
fn solve_all_sequential(w: &CscMatrix, rule: TailRule) -> Result<(Vec<FactorColumn>, SolveTally)> {
    match wide_axpy() {
        Some(axpy) => solve_columns::<PANEL>(w, rule, axpy),
        None => solve_columns::<1>(w, rule, axpy_one),
    }
}

/// [`solve_all_sequential`] with the tail solved `P` columns at a time
/// through `axpy`.
fn solve_columns<const P: usize>(
    w: &CscMatrix,
    rule: TailRule,
    axpy: impl Axpy<P>,
) -> Result<(Vec<FactorColumn>, SolveTally)> {
    let n = w.nrows();
    let mut cols: Vec<FactorColumn> = Vec::with_capacity(n);
    let mut ws = SolveWorkspace::new(n);
    let mut tail = DenseTail::none(n);
    while cols.len() < n && tail.columns() == 0 {
        let j = cols.len();
        let col = eliminate(j as Index, w.col(j as Index), &SolvedView(&cols), &mut ws)?;
        if rule.begins(col.l_rows.len(), n - 1 - j) {
            tail.push_lower(j, &col.l_rows, &col.l_vals);
        }
        cols.push(col);
    }
    let mut rows = Vec::new();
    while cols.len() < n {
        let lanes = P.min(n - cols.len());
        solve_panel(w, lanes, &mut cols, &mut tail, &mut ws, &mut rows, axpy)?;
    }
    Ok((cols, SolveTally { tail_columns: tail.columns(), ..ws.tally }))
}

/// Factors a square matrix with the left-looking sparse LU algorithm, on
/// the calling thread (module docs: the column DAG is a chain). A singular
/// input reports its lowest failing column.
pub fn sparse_lu(w: &CscMatrix) -> Result<LuFactors> {
    Ok(factor(w, TailRule::STRUCTURAL)?.0)
}

/// [`sparse_lu`] under the name `benchmark/src/setup.rs` spells; the
/// worker count is ignored.
#[doc(hidden)]
pub fn sparse_lu_with(w: &CscMatrix, _options: InvertOptions) -> Result<LuFactors> {
    sparse_lu(w)
}

/// [`sparse_lu`], and what its column solves did — like the factors, a
/// function of `w` alone.
pub fn sparse_lu_tallied(w: &CscMatrix) -> Result<(LuFactors, SolveTally)> {
    factor(w, TailRule::STRUCTURAL)
}

/// [`sparse_lu`] through the sparse kernel alone — the reference
/// `tests/build_determinism.rs` holds the dense tail to, byte for byte.
#[doc(hidden)]
pub fn sparse_lu_without_tail(w: &CscMatrix) -> Result<LuFactors> {
    Ok(factor(w, TailRule::NEVER)?.0)
}

fn factor(w: &CscMatrix, rule: TailRule) -> Result<(LuFactors, SolveTally)> {
    if w.nrows() != w.ncols() {
        return Err(SparseError::NotSquare { nrows: w.nrows(), ncols: w.ncols() });
    }
    let (cols, tally) = solve_all_sequential(w, rule)?;
    Ok((assemble(w.nrows(), cols)?, tally))
}

/// What an incremental refactorisation did: how much of the factor it
/// recomputed, which columns actually changed (the dirty sets the
/// inverse reach analysis consumes), and where the time went.
#[derive(Debug, Clone, Default)]
pub struct RefactorReport {
    /// Matrix dimension (columns per factor).
    pub dim: usize,
    /// In-bounds distinct dirty `W` columns the caller declared.
    pub dirty_w_columns: usize,
    /// Factor columns re-run through the column solve: the exact
    /// taint closure of the module docs, a subset of the pattern-only
    /// candidates [`crate::refactor_candidates`] predicts.
    pub recomputed_columns: usize,
    /// Columns of `L` that changed bitwise (sorted ascending).
    pub changed_l_columns: Vec<Index>,
    /// Columns of `U` that changed bitwise (sorted ascending).
    pub changed_u_columns: Vec<Index>,
    /// Reach/taint analysis + bit-diff time (everything except the
    /// solves and the splice).
    pub analysis_time: Duration,
    /// Column solve time over the recomputed columns.
    pub solve_time: Duration,
    /// Time splicing the changed columns into the old factors.
    pub splice_time: Duration,
}

/// Incrementally refactors `w_new = L · U` given the factors of a
/// previous `w_old` that differs from `w_new` only in the `dirty_w`
/// columns: re-runs the per-column solve on exactly the columns whose
/// inputs can differ (the taint closure of the module docs) and splices
/// the changed columns into the old factors. The result is
/// **bit-identical** to `sparse_lu(w_new)` — pinned by
/// `tests/incremental_lu_equivalence.rs` across graph families,
/// orderings and edit classes.
///
/// `dirty_w` must cover every column where `w_new` differs from the
/// matrix `old` factors (extra or out-of-bounds entries are harmless);
/// an incomplete set silently produces stale factors — the same
/// contract as the inverse-side [`crate::inverse_dirty_columns`].
pub fn refactor_columns(
    old: &LuFactors,
    w_new: &CscMatrix,
    dirty_w: &[Index],
) -> Result<(LuFactors, RefactorReport)> {
    let n = w_new.nrows();
    if w_new.nrows() != w_new.ncols() {
        return Err(SparseError::NotSquare { nrows: w_new.nrows(), ncols: w_new.ncols() });
    }
    if old.dim() != n || old.l.nrows() != n || old.l.ncols() != n {
        return Err(SparseError::Malformed(format!(
            "refactor of a {n}×{n} matrix against {}×{} factors",
            old.l.nrows(),
            old.u.ncols()
        )));
    }

    let started = Instant::now();
    let mut report = RefactorReport { dim: n, ..Default::default() };
    let mut dirty = vec![false; n];
    for &d in dirty_w {
        if (d as usize) < n && !dirty[d as usize] {
            dirty[d as usize] = true;
            report.dirty_w_columns += 1;
        }
    }
    if report.dirty_w_columns == 0 {
        report.analysis_time = started.elapsed();
        return Ok((old.clone(), report));
    }

    let mut fresh: Vec<Option<FactorColumn>> = (0..n).map(|_| None).collect();
    let mut solve_time = Duration::ZERO;

    // Exact taint propagation (see the module docs): ascending over the
    // columns, recompute iff dirty-W or a tainted seed, and when the
    // recomputed L part changed bitwise, taint every ancestor via the old
    // L's row-pattern adjacency.
    let (adj_ptr, adj_cols) = crate::reach::pattern_row_adjacency(&old.l);
    let mut taint = vec![false; n];
    let mut bfs: Vec<Index> = Vec::new();
    // A refactor touches few columns and mirrors no tail; its solves are
    // the full build's all the same (module docs).
    let mut ws = SolveWorkspace::new(n);
    for j in 0..n as Index {
        let seeds = w_new.col(j).0;
        let recompute =
            dirty[j as usize] || seeds.iter().any(|&s| (s as usize) < n && taint[s as usize]);
        if !recompute {
            continue;
        }
        report.recomputed_columns += 1;
        let t = Instant::now();
        let col =
            eliminate(j, w_new.col(j), &HybridView { old_l: &old.l, fresh: &fresh }, &mut ws)?;
        solve_time += t.elapsed();
        let l_changed = column_changed(&old.l, j, &col.l_rows, &col.l_vals);
        if column_changed(&old.u, j, &col.u_rows, &col.u_vals) {
            report.changed_u_columns.push(j);
        }
        if l_changed {
            report.changed_l_columns.push(j);
            if !taint[j as usize] {
                // Ancestors-or-self of a changed column: backward BFS over
                // the row adjacency (predecessors of v are the columns
                // whose L holds row v).
                taint[j as usize] = true;
                bfs.push(j);
                while let Some(v) = bfs.pop() {
                    for &k in &adj_cols[adj_ptr[v as usize]..adj_ptr[v as usize + 1]] {
                        if !taint[k as usize] {
                            taint[k as usize] = true;
                            bfs.push(k);
                        }
                    }
                }
            }
        }
        fresh[j as usize] = Some(col);
    }

    report.solve_time = solve_time;
    report.analysis_time = started.elapsed().saturating_sub(solve_time);

    // Splice only the bitwise-changed columns into the old factors.
    let t = Instant::now();
    let mut l_updates: Vec<ColumnUpdate> = Vec::with_capacity(report.changed_l_columns.len());
    for &j in &report.changed_l_columns {
        if let Some(c) = fresh[j as usize].as_mut() {
            l_updates.push(ColumnUpdate {
                col: j,
                rows: std::mem::take(&mut c.l_rows),
                vals: std::mem::take(&mut c.l_vals),
            });
        }
    }
    let mut u_updates: Vec<ColumnUpdate> = Vec::with_capacity(report.changed_u_columns.len());
    for &j in &report.changed_u_columns {
        if let Some(c) = fresh[j as usize].as_mut() {
            u_updates.push(ColumnUpdate {
                col: j,
                rows: std::mem::take(&mut c.u_rows),
                vals: std::mem::take(&mut c.u_vals),
            });
        }
    }
    let l = old.l.splice_columns(&l_updates)?;
    let u = old.u.splice_columns(&u_updates)?;
    report.splice_time = t.elapsed();
    debug_assert!(l.is_strictly_lower());
    debug_assert!(u.is_upper());
    Ok((LuFactors { l, u }, report))
}

/// Bit-level comparison of a freshly solved column against the stored
/// column `j` of `t` (pattern and value bits).
fn column_changed(t: &CscMatrix, j: Index, rows: &[Index], vals: &[f64]) -> bool {
    let (or, ov) = t.col(j);
    rows != or || vals.iter().zip(ov).any(|(a, b)| a.to_bits() != b.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangular::tests::{
        eager_tail_rules, oracle_systems, reference_reach, take_summary_words,
    };

    /// Dense multiply of the stored factors (adding L's implicit diagonal).
    fn dense_lu_product(f: &LuFactors) -> Vec<Vec<f64>> {
        let n = f.dim();
        let ld = f.l.to_dense();
        let ud = f.u.to_dense();
        let mut out = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    let l_ik = if i == k { 1.0 } else { ld[i][k] };
                    acc += l_ik * ud[k][j];
                }
                out[i][j] = acc;
            }
        }
        out
    }

    fn assert_matrix_close(a: &[Vec<f64>], b: &[Vec<f64>], tol: f64) {
        for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
            for (j, (x, y)) in ra.iter().zip(rb).enumerate() {
                assert!((x - y).abs() <= tol * (1.0 + y.abs()), "({i},{j}): {x} vs {y}");
            }
        }
    }

    fn assert_factors_bit_identical(a: &LuFactors, b: &LuFactors) {
        for (x, y) in [(&a.l, &b.l), (&a.u, &b.u)] {
            let (xp, xi, xv) = x.raw();
            let (yp, yi, yv) = y.raw();
            assert_eq!(xp, yp, "column pointers differ");
            assert_eq!(xi, yi, "row patterns differ");
            assert!(xv.iter().zip(yv).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
    }

    fn random_dominant(n: usize, density: f64, seed: u64) -> CscMatrix {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trips: Vec<(Index, Index, f64)> = Vec::new();
        let mut col_sum = vec![0.0f64; n];
        for j in 0..n as Index {
            for i in 0..n as Index {
                if i != j && rng.gen_bool(density) {
                    let v: f64 = rng.gen_range(-1.0..1.0);
                    trips.push((i, j, v));
                    col_sum[j as usize] += v.abs();
                }
            }
        }
        for (j, &cs) in col_sum.iter().enumerate() {
            trips.push((j as Index, j as Index, cs + 1.0));
        }
        CscMatrix::from_triplets(n, n, &trips).unwrap()
    }

    /// The per-edge factorisation: the per-edge DFS ([`reference_reach`])
    /// names each column's pattern, sorted, and the column is eliminated
    /// and emitted over it in ascending order; no tail anywhere.
    fn reference_lu(w: &CscMatrix) -> LuFactors {
        let n = w.nrows();
        let mut cols: Vec<FactorColumn> = Vec::with_capacity(n);
        let mut ws = SolveWorkspace::new(n);
        for j in 0..n as Index {
            let children = |k: Index| if k < j { &cols[k as usize].l_rows[..] } else { &[] };
            let mut pattern = reference_reach(&mut ws, w.col(j).0, children);
            pattern.sort_unstable();
            let (b_rows, b_vals) = w.col(j);
            for (&r, &v) in b_rows.iter().zip(b_vals) {
                ws.x[r as usize] = v;
            }
            for &r in pattern.iter().filter(|&&r| r < j) {
                let xr = ws.x[r as usize];
                if xr != 0.0 {
                    let c = &cols[r as usize];
                    for (&i, &v) in c.l_rows.iter().zip(&c.l_vals) {
                        ws.x[i as usize] -= v * xr;
                    }
                }
            }
            let pivot = if pattern.contains(&j) { ws.x[j as usize] } else { 0.0 };
            check_pivot(j as usize, pivot).unwrap();
            let mut col =
                FactorColumn { u_rows: vec![], u_vals: vec![], l_rows: vec![], l_vals: vec![] };
            for &r in pattern.iter().filter(|&&r| r != j && ws.x[r as usize] != 0.0) {
                let v = ws.x[r as usize];
                if r < j {
                    col.u_rows.push(r);
                    col.u_vals.push(v);
                } else {
                    col.l_rows.push(r);
                    col.l_vals.push(v / pivot);
                }
            }
            col.u_rows.push(j);
            col.u_vals.push(pivot);
            cols.push(col);
        }
        assemble(n, cols).unwrap()
    }

    /// Full and incremental factorisation through the bitset solve match
    /// the per-edge factorisation byte for byte, with no tail, the
    /// structural one and tails begun at other columns.
    #[test]
    fn reach_kernel_factors_are_bit_identical_to_the_per_edge_factors() {
        for (name, w) in oracle_systems() {
            let expect = reference_lu(&w);
            let dirty: Vec<Index> = vec![3, 40, 200];
            let updates: Vec<ColumnUpdate> = dirty
                .iter()
                .map(|&col| {
                    let (rows, vals) = w.col(col);
                    let bump = |(&r, &v): (&Index, &f64)| if r == col { v + 1.0 } else { v * 0.5 };
                    let vals = rows.iter().zip(vals).map(bump).collect();
                    ColumnUpdate { col, rows: rows.to_vec(), vals }
                })
                .collect();
            let w_new = w.splice_columns(&updates).unwrap();
            let expect_new = reference_lu(&w_new);
            assert_factors_bit_identical(&expect, &sparse_lu(&w).unwrap());
            assert_factors_bit_identical(&expect, &sparse_lu_without_tail(&w).unwrap());
            for rule in eager_tail_rules() {
                let (factors, tally) = factor(&w, rule).unwrap();
                assert_factors_bit_identical(&expect, &factors);
                assert!(tally.tail_columns > 0, "{name}: {rule:?} began no tail");
                // As generated, RMAT's last nodes are its emptiest.
                let idle = tally.tail_multiply_subtracts == 0;
                assert!(!idle || name == "rmat", "{name}: {rule:?} idle tail");
            }
            let (inc, _) = refactor_columns(&expect, &w_new, &dirty).unwrap();
            assert_factors_bit_identical(&expect_new, &inc);
        }
    }

    /// The count that holds a column solve to its pattern, not to `n`:
    /// every LU column solve — through both `L` providers, and a panel's
    /// head with the tail's rows live — touches at most three summary
    /// words per popped position (its insert, the pop that empties its
    /// word, the scan that leaves it) plus the summary words its pattern
    /// spans.
    #[test]
    fn column_solves_touch_a_constant_number_of_summary_words_per_pattern_position() {
        fn check(label: &str, j: Index, ws: &SolveWorkspace) {
            let (touched, pattern) = (take_summary_words(), &ws.pattern);
            let spanned = match (pattern.first(), pattern.last()) {
                (Some(&first), Some(&last)) => (last / 4096 - first / 4096) as usize + 1,
                _ => 0,
            };
            let bound = 3 * pattern.len() + spanned;
            assert!(touched <= bound, "{label} column {j}: {touched} words, bound {bound}");
        }
        for (name, w) in oracle_systems() {
            let n = w.nrows();
            let (cols, _) = solve_all_sequential(&w, TailRule::STRUCTURAL).unwrap();
            let old = assemble(n, cols.clone()).unwrap();
            let fresh = vec![None; n];
            let hybrid = HybridView { old_l: &old.l, fresh: &fresh };
            let mut ws = SolveWorkspace::new(n);
            for j in 0..n as Index {
                take_summary_words();
                eliminate(j, w.col(j), &SolvedView(&cols), &mut ws).unwrap();
                check(&format!("{name} solved"), j, &ws);
                eliminate(j, w.col(j), &hybrid, &mut ws).unwrap();
                check(&format!("{name} hybrid"), j, &ws);
                for head in [n / 2, n - 7].into_iter().filter(|&head| head <= j as usize) {
                    eliminate_left(j, w.col(j), &SolvedView(&cols), head, &mut ws);
                    check(&format!("{name} panel head {head}"), j, &ws);
                }
            }
        }
    }

    #[test]
    fn factors_small_dense_matrix() {
        // W = [4 1 0; 1 4 1; 0 1 4]
        let w = CscMatrix::from_triplets(
            3,
            3,
            &[(0, 0, 4.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 4.0), (2, 1, 1.0), (1, 2, 1.0), (2, 2, 4.0)],
        )
        .unwrap();
        let f = sparse_lu(&w).unwrap();
        assert!(f.l.is_strictly_lower());
        assert!(f.u.is_upper());
        assert_matrix_close(&dense_lu_product(&f), &w.to_dense(), 1e-12);
    }

    #[test]
    fn identity_factors_trivially() {
        let w = CscMatrix::identity(4);
        let f = sparse_lu(&w).unwrap();
        assert_eq!(f.l.nnz(), 0);
        assert_eq!(f.u.nnz(), 4);
        assert_eq!(f.solve_dense(&[1.0, 2.0, 3.0, 4.0]).unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn singular_matrix_rejected() {
        // second column identically zero
        let w = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]).unwrap();
        assert!(matches!(sparse_lu(&w), Err(SparseError::SingularPivot { column: 1, .. })));
    }

    #[test]
    fn non_square_rejected() {
        let w = CscMatrix::zeros(2, 3);
        assert!(matches!(sparse_lu(&w), Err(SparseError::NotSquare { .. })));
    }

    #[test]
    fn solve_dense_matches_reference() {
        let w = CscMatrix::from_triplets(
            3,
            3,
            &[(0, 0, 4.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 4.0), (2, 1, 1.0), (1, 2, 1.0), (2, 2, 4.0)],
        )
        .unwrap();
        let f = sparse_lu(&w).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = f.solve_dense(&b).unwrap();
        let recon = w.matvec(&x);
        for (r, e) in recon.iter().zip(&b) {
            assert!((r - e).abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_and_dense_solves_agree() {
        let w = CscMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 5.0),
                (1, 1, 5.0),
                (2, 2, 5.0),
                (3, 3, 5.0),
                (1, 0, -1.0),
                (2, 1, -1.0),
                (3, 2, -1.0),
                (0, 3, -1.0),
            ],
        )
        .unwrap();
        let f = sparse_lu(&w).unwrap();
        let mut ws = SolveWorkspace::new(4);
        for q in 0..4 as Index {
            let (xi, xv) = f.solve_unit_sparse(&mut ws, q).unwrap();
            let mut e = vec![0.0; 4];
            e[q as usize] = 1.0;
            let dense = f.solve_dense(&e).unwrap();
            let mut sparse = [0.0; 4];
            for (&i, &v) in xi.iter().zip(&xv) {
                sparse[i as usize] = v;
            }
            for (a, b) in sparse.iter().zip(&dense) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn random_diag_dominant_roundtrip() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..20 {
            let n = rng.gen_range(2..30usize);
            let w = random_dominant(n, 0.25, 1000 + trial);
            let f = sparse_lu(&w).unwrap();
            assert_matrix_close(&dense_lu_product(&f), &w.to_dense(), 1e-10);
            // Solve against a random RHS and verify the residual.
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let x = f.solve_dense(&b).unwrap();
            let recon = w.matvec(&x);
            for (r, e) in recon.iter().zip(&b) {
                assert!((r - e).abs() < 1e-8, "{r} vs {e}");
            }
        }
    }

    /// The tally is a function of `w` alone, and so is the error: the
    /// lowest failing column.
    #[test]
    fn tally_and_singular_column_are_functions_of_the_matrix() {
        for (name, w) in oracle_systems() {
            let (first, tally) = sparse_lu_tallied(&w).unwrap();
            let (again, same) = sparse_lu_tallied(&w).unwrap();
            assert_factors_bit_identical(&first, &again);
            assert_eq!(tally, same, "{name}");
            assert!(tally.multiply_subtracts > 0, "{name}");
        }
        // Columns 2 and 5 are identically zero.
        let mut trips: Vec<(Index, Index, f64)> = vec![(3, 0, 0.5), (7, 1, 0.5)];
        trips.extend((0..8u32).filter(|&j| j != 2 && j != 5).map(|j| (j, j, 1.0)));
        let w = CscMatrix::from_triplets(8, 8, &trips).unwrap();
        assert!(matches!(sparse_lu(&w), Err(SparseError::SingularPivot { column: 2, .. })));
    }

    /// Both tail drivers — a column at a time through the one-lane body,
    /// and in panels through the host's wide body where it has one — give
    /// the sparse kernel's bytes and its first singular column, and the
    /// same tally as each other: the host picks the driver, so each must
    /// hold on every host.
    #[test]
    fn one_lane_and_panel_tails_give_the_sparse_kernels_bytes() {
        let run = |w: &CscMatrix, columns: Result<(Vec<FactorColumn>, SolveTally)>| {
            columns.and_then(|(cols, tally)| Ok((assemble(w.nrows(), cols)?, tally)))
        };
        let dense = random_dominant(150, 0.5, 11);
        let empty = ColumnUpdate { col: 141, rows: Vec::new(), vals: Vec::new() };
        let singular = dense.splice_columns(&[empty]).unwrap();
        let sparse = random_dominant(203, 0.3, 12);
        for (name, w) in [("sparse", sparse), ("dense", dense), ("singular", singular)] {
            let reference = run(&w, solve_columns::<1>(&w, TailRule::NEVER, axpy_one));
            let one_lane = run(&w, solve_columns::<1>(&w, TailRule::STRUCTURAL, axpy_one));
            let panels = wide_axpy()
                .map(|axpy| run(&w, solve_columns::<PANEL>(&w, TailRule::STRUCTURAL, axpy)));
            for got in [Some(&one_lane), panels.as_ref()].into_iter().flatten() {
                match (&reference, got) {
                    (Ok((want, _)), Ok((got, tally))) => {
                        assert_factors_bit_identical(want, got);
                        assert!(tally.tail_columns >= 64, "{name}: {tally:?}");
                        assert_eq!(Some(tally), one_lane.as_ref().ok().map(|r| &r.1), "{name}");
                    }
                    (want, got) => assert_eq!(
                        want.as_ref().err(),
                        got.as_ref().err(),
                        "{name}: the same first singular column"
                    ),
                }
            }
            if name == "singular" {
                let expect = SparseError::SingularPivot { column: 141, value: 0.0 };
                assert_eq!(reference.unwrap_err(), expect);
            }
        }
    }

    #[test]
    fn refactor_matches_full_lu_bitwise() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..12u64 {
            let n = rng.gen_range(8..40usize);
            let w_old = random_dominant(n, 0.15, 100 + trial);
            let old = sparse_lu(&w_old).unwrap();
            // Perturb a few columns (keep dominance: bump the diagonal).
            let mut dirty: Vec<Index> = (0..rng.gen_range(1..4usize))
                .map(|_| rng.gen_range(0..n) as Index)
                .collect();
            dirty.sort_unstable();
            dirty.dedup();
            let mut updates = Vec::new();
            for &j in &dirty {
                let (rows, vals) = w_old.col(j);
                let mut rows = rows.to_vec();
                let mut vals = vals.to_vec();
                if let Some(at) = rows.iter().position(|&r| r == j) {
                    vals[at] += 1.0 + rng.gen_range(0.0..1.0);
                } else {
                    rows.push(j);
                    vals.push(5.0);
                    let mut pairs: Vec<(Index, f64)> =
                        rows.iter().copied().zip(vals.iter().copied()).collect();
                    pairs.sort_unstable_by_key(|&(r, _)| r);
                    rows = pairs.iter().map(|&(r, _)| r).collect();
                    vals = pairs.iter().map(|&(_, v)| v).collect();
                }
                updates.push(ColumnUpdate { col: j, rows, vals });
            }
            let w_new = w_old.splice_columns(&updates).unwrap();
            let full = sparse_lu(&w_new).unwrap();
            let (inc, report) = refactor_columns(&old, &w_new, &dirty).unwrap();
            assert_factors_bit_identical(&full, &inc);
            assert_eq!(report.dirty_w_columns, dirty.len());
            assert!(report.recomputed_columns >= report.changed_l_columns.len());
        }
    }

    #[test]
    fn refactor_with_no_dirty_columns_is_a_clone() {
        let w = random_dominant(20, 0.2, 9);
        let old = sparse_lu(&w).unwrap();
        let (same, report) = refactor_columns(&old, &w, &[]).unwrap();
        assert_factors_bit_identical(&old, &same);
        assert_eq!(report.recomputed_columns, 0);
        assert!(report.changed_l_columns.is_empty() && report.changed_u_columns.is_empty());
        // Out-of-bounds dirty indices are ignored, like the reach API.
        let (same2, report2) = refactor_columns(&old, &w, &[999]).unwrap();
        assert_factors_bit_identical(&old, &same2);
        assert_eq!(report2.dirty_w_columns, 0);
    }

    #[test]
    fn refactor_rejects_mismatched_shapes() {
        let w = random_dominant(6, 0.3, 3);
        let old = sparse_lu(&w).unwrap();
        let bigger = random_dominant(7, 0.3, 4);
        assert!(matches!(
            refactor_columns(&old, &bigger, &[0]),
            Err(SparseError::Malformed(_))
        ));
        let rect = CscMatrix::zeros(6, 7);
        assert!(matches!(refactor_columns(&old, &rect, &[0]), Err(SparseError::NotSquare { .. })));
    }

    #[test]
    fn refactor_surfaces_singular_columns_deterministically() {
        // Dirtying a column to all-zeros must fail with that column's
        // SingularPivot.
        let w = random_dominant(10, 0.2, 11);
        let old = sparse_lu(&w).unwrap();
        let zeroed = w
            .splice_columns(&[ColumnUpdate { col: 4, rows: Vec::new(), vals: Vec::new() }])
            .unwrap();
        match refactor_columns(&old, &zeroed, &[4]) {
            Err(SparseError::SingularPivot { column: 4, .. }) => {}
            other => panic!("expected singular pivot at 4, got {other:?}"),
        }
    }
}
