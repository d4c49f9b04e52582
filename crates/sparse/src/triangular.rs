//! Sparse triangular solves with sparse right-hand sides — the kernel
//! under the crate's numeric operations, not an operation of its own.
//!
//! Solving `T x = b` for triangular `T` and sparse `b` is the workhorse of
//! both the left-looking LU factorisation ([`crate::lu`]) and the triangular
//! inversion ([`crate::inverse`]). The solve is crate-private: a caller
//! inverts or re-solves columns through [`crate::sparsify`] (at `ε = 0` for
//! the exact inverse) and solves `W x = e_q` through
//! [`crate::LuFactors::solve_unit_sparse`]; a [`SolveWorkspace`] is only
//! the opaque scratch the latter takes. The classic observation of Gilbert &
//! Peierls (1988) is that the nonzero pattern of `x` lies within the set of
//! nodes *reachable* from `pattern(b)` in the directed graph of `T`
//! (an edge `j -> i` for every stored `T_ij`, `i != j`), so a solve need
//! cost `O(flops)`, not `O(n)`.
//!
//! ## One order, one engine
//!
//! Every solve in this crate runs in **index order** — ascending for
//! `Lower`, descending for `Upper` — which is a topological order of a
//! triangle whatever the pattern. Row `r` therefore receives its updates
//! `x_r -= T_ri · x_i` in the order of `i`, and an update through a
//! *stored or imagined zero* is `x_r − 0·x_i = x_r`: it changes no bit
//! (values are finite, and a zero of either sign is dropped at the
//! gather).
//!
//! The same order finds the pattern. A position is discovered when its
//! right-hand side entry or its first update lands, and waits in a
//! two-level bitset ([`PendingSet`]) until it is popped, in index order,
//! by a cursor that never turns back: every position a pop discovers lies
//! ahead of it, so a popped value is final. A position whose value is
//! zero — exactly cancelled, or under a drop tolerance `ε > 0` truncated —
//! propagates nothing, and what only it would have discovered never is.
//! A solve so costs the pattern that carries values, plus the bitset
//! words between its positions, whatever `n` is; there is no symbolic
//! phase and no sort. The LU pops its column solves from the same set
//! ([`crate::lu`]), and the tests hold the engine to a per-edge DFS
//! oracle of the reach, byte for byte.
//!
//! ## The dense tail
//!
//! Index order is what lets the trailing columns of a factor — under a
//! degree or hybrid ordering the hubs, whose block is all but full — be
//! mirrored as a packed column-major triangle ([`DenseTail`]) and solved
//! with no pattern at all. Their positions are live from the start of a
//! solve, at zero: they take updates and are never pending. For `Lower`
//! the head pops into the tail's rows, then every nonzero `x_i` of the
//! tail is one contiguous AXPY, `x[i+1..n] -= T[i+1..n, i] · x_i`. For
//! `Upper` the tail is upstream: a right-hand side that enters it is
//! swept there first, descending, and the head rows of the tail's columns
//! are scattered as any column's are, discovering the head positions the
//! pops then take; a right-hand side that stays clear of the tail never
//! touches it. An `ε > 0` solve reads no tail ([`TailRule::under`]):
//! truncation acts where positions pop, and a tail's never do. Where the
//! tail starts ([`TailRule`]) **cannot change a result**: with the tail at
//! any column, or absent, every solve returns the same bytes —
//! `tests/build_determinism.rs` holds the drivers to that.
//!
//! One body makes every tail sweep, forward ([`DenseTail::sweep_panel`])
//! and backward. It sweeps a *panel* of right-hand sides at once, stored
//! lane by lane in each row, so that each mirrored value is loaded once
//! for all of them, and a single solve is its one-lane call
//! ([`axpy_one`]). A lane whose `x_i` is zero is skipped, as a single
//! solve skips the column: every lane receives the operations, in the
//! order, that it would alone. Each active lane is one multiply and one
//! subtract, each rounded, so every body returns the same bits.
//!
//! ## Panels
//!
//! The solve is written once, for `P` right-hand sides at once, and a
//! single solve is its `P = 1` instance. The positions are the union of
//! the lanes': one stamp and one pending bit per position, its `P` values
//! side by side (one cache line at `P = 8`), and a mask of the lanes live
//! there. A pop divides every lane by the diagonal — a lane not live
//! holds `0.0` — and the lanes left nonzero go through one masked scatter
//! of the column: a live lane takes `x − t·x_j`, a newly discovered one
//! `−(t·x_j)`, any other keeps every bit. One pass through each factor
//! column so serves every lane it reaches, and each lane receives exactly
//! the operations of its own solve, in their order. Where the host has
//! AVX-512F ([`wide_axpy`]) two drivers solve in panels of [`PANEL`]: the
//! LU, its tail columns ([`crate::lu`]), and an exact full inversion
//! whose factor has a dense tail, all its columns
//! ([`SolveWorkspace::solve_panel`], [`crate::inverse`]). Elsewhere, and
//! for every other solve — the LU's heads, `ε > 0`, probing views —
//! right-hand sides go one at a time.
//!
//! Supports lower (forward substitution) and upper (backward substitution)
//! triangles, with either an implicit unit diagonal or an explicitly stored
//! one. Entries on the "wrong" side of the diagonal are ignored, which lets
//! the factor `L` (stored without its diagonal) and the inverse `L⁻¹`
//! (stored with it) share this code.

use crate::{CscMatrix, Index, Result, SparseError};
use kdash_graph::EpochStamps;
use std::ops::Range;

/// Which triangle a matrix is solved as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Triangle {
    /// Forward substitution; dependencies flow from low to high indices.
    Lower,
    /// Backward substitution; dependencies flow from high to low indices.
    Upper,
}

impl Triangle {
    /// Whether a factor of this triangle has an implicit unit diagonal —
    /// the crate's convention: `L` (Doolittle) does, `U` stores its own.
    pub(crate) fn unit_diag(self) -> bool {
        self == Triangle::Lower
    }
}

/// Where a dense tail starts: at the first of the last `max_columns`
/// columns whose strict part is at least half full, if that leaves at
/// least `min_columns` — the LU asks as each column is solved, a view of
/// a finished factor asks once. Half full is where a contiguous AXPY
/// through explicit zeros (≈ 0.3–0.4 ns per entry) is safely ahead of an
/// indexed scatter through the stored ones (1.5–2.4 ns); measured LU and
/// inversion times are flat, within the host's noise, from a half down
/// to an eighth. The bounds are sized for
/// cost, not for correctness — a tail at any column, or none, **cannot
/// change a result** (module docs) — so they are constants, not options.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TailRule {
    /// A narrower tail saves less than mirroring it costs.
    pub(crate) min_columns: usize,
    /// Bounds the mirror (`4·max²` bytes) and the arithmetic spent on
    /// zeros when the columns behind a full one are not.
    pub(crate) max_columns: usize,
}

impl TailRule {
    /// The rule every build uses: between 64 and 2 048 trailing columns
    /// (≤ 16 MiB mirrored).
    pub(crate) const STRUCTURAL: TailRule = TailRule { min_columns: 64, max_columns: 2048 };
    /// No tail: the sparse-only kernel, kept as the reference the
    /// structural rule is tested against.
    pub(crate) const NEVER: TailRule = TailRule { min_columns: usize::MAX, max_columns: 0 };

    /// The rule a solve under drop tolerance `eps` may be given: this one
    /// at `eps = 0`, none above it. An `ε > 0` solve reads no dense tail —
    /// it truncates each position as it pops, and a tail's positions never
    /// pop — so its drivers mirror none.
    pub(crate) fn under(self, eps: f64) -> TailRule {
        if eps > 0.0 {
            TailRule::NEVER
        } else {
            self
        }
    }

    /// Whether a column whose strict part stores `stored` of the `below`
    /// positions past its diagonal begins the tail.
    pub(crate) fn begins(&self, stored: usize, below: usize) -> bool {
        (self.min_columns..=self.max_columns).contains(&(below + 1)) && stored * 2 >= below
    }

    /// Width of the tail of an `n`-column factor, `filled(j)` giving the
    /// stored strict entries of column `j`; `0` for none.
    fn width(&self, n: usize, filled: impl Fn(usize) -> usize) -> usize {
        let first = (n.saturating_sub(self.max_columns)..n)
            .find(|&j| self.begins(filled(j), n - 1 - j));
        first.map_or(0, |j| n - j)
    }
}

/// Right-hand sides solved at once where the host has a [`wide_axpy`],
/// one vector per row: the LU's tail columns ([`crate::lu`]) and the
/// columns of an exact inversion whose factor has a dense tail
/// ([`SolveWorkspace::solve_panel`]), each mirrored value loaded once for
/// all of them ([`DenseTail::sweep_panel`]). An LU panel of a 2 048-column
/// tail holds 128 KiB; an inversion's panel of an `n`-column factor,
/// `64·n` bytes.
pub(crate) const PANEL: usize = 8;

/// Columns `start..n` of a triangular factor, mirrored as a packed
/// column-major triangle with explicit zeros: column `start + k` holds
/// rows `start+k+1..n` of a `Lower` factor (`n−1−start−k` values) or rows
/// `start..start+k` of an `Upper` one (`k` values). Built once from a
/// finished factor by [`FactorView::indexed`], or grown a column at a
/// time by the LU as it solves them.
#[derive(Debug, Clone)]
pub(crate) struct DenseTail {
    n: usize,
    start: usize,
    vals: Vec<f64>,
    /// Column `k` ends at `vals[ends[k]]` and starts where `k − 1` ends.
    ends: Vec<usize>,
    /// Stored diagonal per tail column; empty under a unit diagonal.
    diag: Vec<f64>,
    /// `Upper` only: absolute span, in the factor's flat arrays, of each
    /// tail column's rows above the tail.
    head_rows: Vec<(usize, usize)>,
}

impl DenseTail {
    /// The empty tail of an `n × n` factor (allocates nothing: probing
    /// views carry one per solve).
    pub(crate) fn none(n: usize) -> DenseTail {
        DenseTail {
            n,
            start: n,
            vals: Vec::new(),
            ends: Vec::new(),
            diag: Vec::new(),
            head_rows: Vec::new(),
        }
    }

    /// First mirrored column; `n` when there is no tail.
    #[inline]
    pub(crate) fn start(&self) -> usize {
        self.start
    }

    /// Mirrored columns.
    pub(crate) fn columns(&self) -> usize {
        self.ends.len()
    }

    /// The mirrored values of tail column `k`.
    #[inline]
    fn column(&self, k: usize) -> &[f64] {
        &self.vals[k.checked_sub(1).map_or(0, |before| self.ends[before])..self.ends[k]]
    }

    /// Appends a column of `len` values: zeros, but for the given
    /// `(position, value)` pairs.
    fn push(&mut self, len: usize, stored: impl Iterator<Item = (usize, f64)>) {
        let at = self.vals.len();
        self.vals.resize(at + len, 0.0);
        for (position, v) in stored {
            self.vals[at + position] = v;
        }
        self.ends.push(self.vals.len());
    }

    /// Appends the next column of a `Lower` factor — `start + columns()`,
    /// or `j` itself when this begins the tail — from its strict entries.
    pub(crate) fn push_lower(&mut self, j: usize, rows: &[Index], vals: &[f64]) {
        if self.columns() == 0 {
            self.start = j;
        }
        debug_assert_eq!(j, self.start + self.columns(), "tail columns arrive in order");
        self.push(self.n - 1 - j, rows.iter().zip(vals).map(|(&r, &v)| (r as usize - j - 1, v)));
    }

    /// Forward substitution of a panel of `P` right-hand sides at once
    /// through tail columns `start + ks`, ascending: lane `p` of `rows[r]`
    /// is the `p`-th solution's value at row `start + r`. Each column's
    /// values are loaded once for every lane. A lane from `from_lane` on
    /// whose `x_i` (divided by a stored diagonal, if any) is nonzero takes
    /// the AXPY `x[i+1..n] -= T[i+1..n, i] · x_i`, through `axpy`; any
    /// other lane keeps every bit it holds — its product is never written,
    /// so an infinite `T` beside a zero `x_i` leaves it alone, as the
    /// one-lane sweep's skip does. Every lane thus receives exactly the
    /// operations, in exactly the order, that the one-lane call
    /// (`P = 1`, [`axpy_one`]) would make on it. Returns the
    /// multiply-subtracts made, summed over the lanes.
    pub(crate) fn sweep_panel<const P: usize>(
        &self,
        rows: &mut [[f64; P]],
        ks: Range<usize>,
        from_lane: usize,
        axpy: impl Axpy<P>,
    ) -> u64 {
        let mut flops = 0u64;
        for k in ks {
            let (upto, below) = rows.split_at_mut(k + 1);
            flops += self.sweep_column(k, &mut upto[k], below, from_lane, axpy);
        }
        flops
    }

    /// Backward substitution of a panel through the whole tail, highest
    /// column first, rows as [`DenseTail::sweep_panel`] lays them out: in
    /// each lane whose `x_i` (divided by its diagonal) is nonzero, one
    /// AXPY up `x[start..i]`, and every other lane left alone. The rows
    /// above the tail are the caller's. A single solve's sweep is its
    /// one-lane call.
    fn sweep_upper_panel<const P: usize>(&self, rows: &mut [[f64; P]], axpy: impl Axpy<P>) -> u64 {
        let mut flops = 0u64;
        for k in (0..self.columns()).rev() {
            let (above, from) = rows.split_at_mut(k);
            flops += self.sweep_column(k, &mut from[0], above, 0, axpy);
        }
        flops
    }

    /// One tail column `k` of a sweep: each lane of `at` from `from_lane`
    /// on is divided by the column's diagonal, and the lanes left nonzero
    /// take the column's AXPY into `rest` — the rows below it (`Lower`) or
    /// above it (`Upper`), which its mirrored values line up with. Returns
    /// the multiply-subtracts made.
    #[inline]
    fn sweep_column<const P: usize>(
        &self,
        k: usize,
        at: &mut [f64; P],
        rest: &mut [[f64; P]],
        from_lane: usize,
        axpy: impl Axpy<P>,
    ) -> u64 {
        let mut active = [false; P];
        for (p, xi) in at.iter_mut().enumerate().skip(from_lane) {
            active[p] = self.pivot(xi, k);
        }
        let lanes = active.iter().filter(|&&a| a).count();
        if lanes == 0 {
            return 0;
        }
        let col = self.column(k);
        note_factor_reads(col.len());
        axpy(rest, col, at, &active);
        (lanes * col.len()) as u64
    }

    /// Divides `x_i` of tail column `k` by its stored diagonal if there
    /// is one (a zero stays the zero it is); whether it is nonzero then.
    #[inline]
    fn pivot(&self, xi: &mut f64, k: usize) -> bool {
        if let (true, Some(&d)) = (*xi != 0.0, self.diag.get(k)) {
            *xi /= d;
        }
        *xi != 0.0
    }
}

/// One column's AXPY into the active lanes of a run of rows: `row[p] -=
/// t · xi[p]` for every `(row, t)` of `rows` and the column, where
/// `active[p]`, and no write to any other lane. Called with at least one
/// lane active.
pub(crate) trait Axpy<const P: usize>:
    Fn(&mut [[f64; P]], &[f64], &[f64; P], &[bool; P]) + Copy
{
}

impl<const P: usize, F> Axpy<P> for F where
    F: Fn(&mut [[f64; P]], &[f64], &[f64; P], &[bool; P]) + Copy
{
}

/// The host's panel body, chosen at run time ([`wide_axpy`]).
pub(crate) type PanelAxpy = fn(&mut [[f64; PANEL]], &[f64], &[f64; PANEL], &[bool; PANEL]);

/// The one-lane body, a plain AXPY: every sweep of a single solve, and the
/// LU's tail where the host has no [`wide_axpy`].
pub(crate) fn axpy_one(rows: &mut [[f64; 1]], col: &[f64], xi: &[f64; 1], _active: &[bool; 1]) {
    for ([row], &t) in rows.iter_mut().zip(col) {
        *row -= t * xi[0];
    }
}

/// The body of a panel of [`PANEL`] lanes where the host has one that
/// outruns one lane at a time: AVX-512F's, a row of the panel being one
/// vector. Elsewhere `None`, and the LU and the inversions solve a column
/// at a time, through [`axpy_one`]: compiled for any other target, a panel's
/// plain-arithmetic AXPY vectorises across rows, not lanes, and measured
/// slower than [`axpy_one`]. The body makes one multiply and one subtract
/// per active lane, each rounded (no FMA), so it returns the bits of the
/// one-lane sweep — `tests::the_wide_body_is_bit_identical_to_one_lane_sweeps`.
pub(crate) fn wide_axpy() -> Option<PanelAxpy> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: AVX-512F is detected.
        return Some(|rows, col, xi, on| unsafe { axpy_avx512(rows, col, xi, on) });
    }
    None
}

/// The AVX-512 body: a row is one 8-lane vector, `vmulpd` + a `vsubpd`
/// masked to the active lanes. Its callers must have detected AVX-512F
/// ([`wide_axpy`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn axpy_avx512(rows: &mut [[f64; PANEL]], col: &[f64], xi: &[f64; PANEL], active: &[bool; PANEL]) {
    use std::arch::x86_64::*;
    let mask = active.iter().rev().fold(0u8, |m, &a| m << 1 | a as u8);
    // SAFETY: each load and store is of eight in-bounds `f64`s.
    let xi = unsafe { _mm512_loadu_pd(&xi[0]) };
    for (row, &t) in rows.iter_mut().zip(col) {
        // SAFETY: as above, one eight-lane row.
        unsafe {
            let old = _mm512_loadu_pd(&row[0]);
            let product = _mm512_mul_pd(_mm512_set1_pd(t), xi);
            _mm512_storeu_pd(&mut row[0], _mm512_mask_sub_pd(old, mask, old, product));
        }
    }
}

/// A square CSC matrix read as one triangle: where each column's strict
/// part (strictly below the diagonal for `Lower`, strictly above for
/// `Upper`) and its stored diagonal sit in the matrix's flat arrays.
/// Relies on columns being sorted.
pub(crate) struct FactorView<'a> {
    col_ptr: &'a [usize],
    rows: &'a [Index],
    vals: &'a [f64],
    pub(crate) triangle: Triangle,
    unit_diag: bool,
    /// `(start, end, diagonal)` per column, when resolved up front.
    index: Option<Vec<(usize, usize, f64)>>,
    /// The mirrored trailing columns; empty on a probing view.
    pub(crate) tail: DenseTail,
}

impl<'a> FactorView<'a> {
    /// A view that probes a column each time it is asked (one comparison
    /// on an LU factor, a binary search otherwise) and mirrors nothing —
    /// for a single solve or a subset of them, which touch few columns.
    pub(crate) fn new(t: &'a CscMatrix, triangle: Triangle, unit_diag: bool) -> Result<Self> {
        if t.nrows() != t.ncols() {
            return Err(SparseError::NotSquare { nrows: t.nrows(), ncols: t.ncols() });
        }
        let (col_ptr, rows, vals) = t.raw();
        let tail = DenseTail::none(t.ncols());
        Ok(FactorView { col_ptr, rows, vals, triangle, unit_diag, index: None, tail })
    }

    /// A view with every column resolved once, here, and the dense tail
    /// `rule` gives it mirrored — for a full inversion, whose workers then
    /// share it read-only and search no column inside a solve.
    pub(crate) fn indexed(
        t: &'a CscMatrix,
        triangle: Triangle,
        unit_diag: bool,
        rule: TailRule,
    ) -> Result<Self> {
        let mut view = FactorView::new(t, triangle, unit_diag)?;
        let index: Vec<_> = (0..t.ncols() as Index).map(|j| view.search(j)).collect();
        view.tail = view.mirror_tail(&index, view.tail_width(&index, rule));
        view.index = Some(index);
        Ok(view)
    }

    /// How many trailing columns `rule` would mirror of this triangle of
    /// `t` (what [`crate::dense_tail_columns`] reports), without mirroring
    /// them.
    pub(crate) fn tail_columns(
        t: &'a CscMatrix,
        triangle: Triangle,
        rule: TailRule,
    ) -> Result<usize> {
        let view = FactorView::new(t, triangle, true)?;
        let index: Vec<_> = (0..t.ncols() as Index).map(|j| view.search(j)).collect();
        Ok(view.tail_width(&index, rule))
    }

    /// Width of the tail `rule` gives this factor — by its columns for
    /// `Lower`, by its rows for `Upper` (a row of `U` is what a column of
    /// `L` is). A stored-diagonal factor with a zero pivot anywhere gets
    /// none, so that no solve through a tail can meet one: which singular
    /// column a solve reports then never depends on the rule.
    fn tail_width(&self, index: &[(usize, usize, f64)], rule: TailRule) -> usize {
        let n = self.dim();
        if !self.unit_diag && index.iter().any(|&(_, _, diag)| diag == 0.0) {
            return 0;
        }
        match self.triangle {
            Triangle::Lower => rule.width(n, |j| index[j].1 - index[j].0),
            Triangle::Upper => {
                // Count the strict entries of the rows a tail could hold.
                let floor = n.saturating_sub(rule.max_columns);
                let mut filled = vec![0usize; n - floor];
                for &(start, end, _) in &index[floor..] {
                    let rows = &self.rows[start..end];
                    for &r in &rows[rows.partition_point(|&r| (r as usize) < floor)..] {
                        filled[r as usize - floor] += 1;
                    }
                }
                rule.width(n, |r| filled[r - floor])
            }
        }
    }

    /// The trailing `width` columns, mirrored.
    fn mirror_tail(&self, index: &[(usize, usize, f64)], width: usize) -> DenseTail {
        let n = self.dim();
        let mut tail = DenseTail::none(n);
        if width == 0 {
            return tail;
        }
        let first = n - width;
        tail.start = first;
        for (j, &(start, end, diag)) in index.iter().enumerate().skip(first) {
            match self.triangle {
                Triangle::Lower => {
                    tail.push_lower(j, &self.rows[start..end], &self.vals[start..end])
                }
                Triangle::Upper => {
                    let rows = &self.rows[start..end];
                    let split = start + rows.partition_point(|&r| (r as usize) < first);
                    tail.head_rows.push((start, split));
                    let inside = self.rows[split..end].iter().zip(&self.vals[split..end]);
                    tail.push(j - first, inside.map(|(&r, &v)| (r as usize - first, v)));
                }
            }
            if !self.unit_diag {
                tail.diag.push(diag);
            }
        }
        tail
    }

    /// Dimension of the viewed matrix.
    pub(crate) fn dim(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Absolute `[start, end)` of column `j`'s strict part in the flat
    /// arrays, and its stored diagonal (`0.0` when absent: a missing and
    /// an explicitly zero diagonal are the same singular pivot).
    #[inline]
    fn column(&self, j: Index) -> (usize, usize, f64) {
        match &self.index {
            Some(index) => index[j as usize],
            None => self.search(j),
        }
    }

    /// Rows and values of column `j`'s strict part, and its diagonal.
    pub(crate) fn strict_column(&self, j: Index) -> (&[Index], &[f64], f64) {
        let (start, end, diag) = self.column(j);
        (&self.rows[start..end], &self.vals[start..end], diag)
    }

    fn search(&self, j: Index) -> (usize, usize, f64) {
        let (start, end) = (self.col_ptr[j as usize], self.col_ptr[j as usize + 1]);
        let col = &self.rows[start..end];
        // The LU factors need no search: `L` stores nothing up to its
        // diagonal and `U` ends on it.
        let at = match self.triangle {
            Triangle::Lower if col.first().is_none_or(|&r| r > j) => start,
            Triangle::Upper if col.last() == Some(&j) => end - 1,
            _ => start + col.partition_point(|&r| r < j),
        };
        let stored = at < end && self.rows[at] == j;
        let diag = if stored { self.vals[at] } else { 0.0 };
        match self.triangle {
            Triangle::Lower => (at + stored as usize, end, diag),
            Triangle::Upper => (start, at, diag),
        }
    }
}

/// Reusable scratch space for repeated sparse solves on matrices of the same
/// dimension. Reuse amortises the `O(n)` allocations away: each solve then
/// touches only the nonzero pattern it produces. Outside this crate it is
/// opaque: the scratch [`crate::LuFactors::solve_unit_sparse`] takes.
#[derive(Debug, Clone)]
pub struct SolveWorkspace {
    n: usize,
    /// Live marks: a position holds a value of the current solve iff
    /// marked — discovered, or in a dense tail.
    pub(crate) stamps: EpochStamps,
    /// Dense value accumulator, valid only on marked positions.
    pub(crate) x: Vec<f64>,
    /// The positions the last LU column solve popped, ascending: the
    /// pattern its column is emitted from ([`crate::lu`]).
    pub(crate) pattern: Vec<Index>,
    /// Positions discovered and not yet popped, popped in index order.
    pending: PendingSet,
    /// Multiply-subtracts made by the solves run on this workspace, and
    /// how many of them ran inside a dense tail.
    pub(crate) tally: SolveTally,
    /// The panel solves' scratch, allocated by the first of them and
    /// reused by every later one.
    panel: PanelScratch,
}

/// What a panel of [`PANEL`] solves needs beyond a single solve's state:
/// the lanes' values, which lanes are live where, and each lane's
/// solution.
#[derive(Debug, Clone, Default)]
struct PanelScratch {
    /// `n` rows of [`PANEL`] values from `buf[at]` on, lane `p` of row `i`
    /// being the `p`-th solution's value at position `i`; `at` aligns the
    /// rows to 64 bytes, so that a row is one cache line.
    buf: Vec<f64>,
    at: usize,
    /// The lanes live at each marked position — discovered there, or in
    /// a dense tail. A lane that is not holds `0.0`.
    live: Vec<u8>,
    /// Each lane's sorted solution.
    out_idx: [Vec<Index>; PANEL],
    out_val: [Vec<f64>; PANEL],
}

/// What a run of column solves did, counted inside the kernel: the answer
/// to "where did the build's time go" that needs no profiler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveTally {
    /// Trailing columns of the factor that were solved as a dense tail
    /// (`0`: the sparse kernel alone).
    pub tail_columns: usize,
    /// Multiply-subtracts `x_r -= T_ri · x_i` made, the dense tail's
    /// updates through its explicit zeros included.
    pub multiply_subtracts: u64,
    /// The part of [`SolveTally::multiply_subtracts`] made as contiguous
    /// AXPYs inside the tail.
    pub tail_multiply_subtracts: u64,
}

impl SolveTally {
    /// Share of the multiply-subtracts that ran in the tail, in `[0, 1]`.
    pub fn tail_share(&self) -> f64 {
        self.tail_multiply_subtracts as f64 / self.multiply_subtracts.max(1) as f64
    }

    /// Adds another worker's counts (the tail width is the run's, not a
    /// sum).
    pub(crate) fn absorb(&mut self, other: SolveTally) {
        self.multiply_subtracts += other.multiply_subtracts;
        self.tail_multiply_subtracts += other.tail_multiply_subtracts;
    }

    pub(crate) fn count(&mut self, head: u64, tail: u64) {
        self.multiply_subtracts += head + tail;
        self.tail_multiply_subtracts += tail;
    }
}

/// The positions a solve has discovered and not yet popped:
/// one bit per position, and one summary bit per 64-bit word saying that
/// the word holds any. Pops run one way only — ascending for `Lower`,
/// descending for `Upper`, the triangle's dependency order — so a cursor
/// that never turns back finds them, and a solve costs its pattern plus
/// the words it crosses, whatever `n` is: every position it inserts lies
/// ahead of the one it popped last (module docs).
#[derive(Debug, Clone)]
struct PendingSet {
    words: Vec<u64>,
    /// Bit `w % 64` of `summary[w / 64]` is set iff `words[w] != 0`.
    summary: Vec<u64>,
    len: usize,
    /// The word pops resume from: at or behind every pending position in
    /// the pop direction.
    cursor: usize,
    ascending: bool,
}

impl PendingSet {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        PendingSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            len: 0,
            cursor: 0,
            ascending: true,
        }
    }

    /// Empties the set — walking only the summary bits that are set, from
    /// the cursor on, as a solve cut short by an error leaves them — and
    /// readies it for pops in `triangle`'s order.
    fn restart(&mut self, triangle: Triangle) {
        let mut s = self.cursor / 64;
        while self.len > 0 {
            note_summary_word();
            let mut live = std::mem::take(&mut self.summary[s]);
            while live != 0 {
                let w = s * 64 + live.trailing_zeros() as usize;
                self.len -= self.words[w].count_ones() as usize;
                self.words[w] = 0;
                live &= live - 1;
            }
            s = if self.ascending { s + 1 } else { s.wrapping_sub(1) };
        }
        self.ascending = triangle == Triangle::Lower;
        self.cursor = if self.ascending { self.words.len() } else { 0 };
    }

    /// Adds position `i`, not already pending; a right-hand side entry
    /// moves the cursor back to it.
    #[inline(always)]
    fn insert(&mut self, i: usize) {
        let w = i / 64;
        debug_assert_eq!(self.words[w] >> (i % 64) & 1, 0, "position already pending");
        self.words[w] |= 1 << (i % 64);
        note_summary_word();
        self.summary[w / 64] |= 1 << (w % 64);
        self.len += 1;
        self.cursor = if self.ascending { self.cursor.min(w) } else { self.cursor.max(w) };
    }

    /// Removes and returns the first pending position in pop order.
    #[inline(always)]
    fn pop(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        loop {
            let word = self.words[self.cursor];
            if word != 0 {
                let bit = self.first_bit(word);
                let rest = word & !(1 << bit);
                self.words[self.cursor] = rest;
                if rest == 0 {
                    note_summary_word();
                    self.summary[self.cursor / 64] &= !(1 << (self.cursor % 64));
                }
                self.len -= 1;
                return Some(self.cursor * 64 + bit);
            }
            self.cursor = self.next_word();
        }
    }

    /// The first set bit of `word` in pop order.
    #[inline]
    fn first_bit(&self, word: u64) -> usize {
        (if self.ascending { word.trailing_zeros() } else { 63 - word.leading_zeros() }) as usize
    }

    /// The nearest word past the (empty) cursor word that holds a pending
    /// position; one exists while `len > 0`.
    fn next_word(&self) -> usize {
        let (mut s, at) = (self.cursor / 64, self.cursor % 64);
        let mut mask = if self.ascending { !0u64 << at } else { !0u64 >> (63 - at) };
        loop {
            note_summary_word();
            let live = self.summary[s] & mask;
            if live != 0 {
                return s * 64 + self.first_bit(live);
            }
            s = if self.ascending { s + 1 } else { s - 1 };
            mask = !0;
        }
    }
}

impl SolveWorkspace {
    /// Workspace for `n x n` solves.
    pub fn new(n: usize) -> Self {
        SolveWorkspace {
            n,
            stamps: EpochStamps::new(n),
            x: vec![0.0; n],
            pattern: Vec::new(),
            pending: PendingSet::new(n),
            tally: SolveTally::default(),
            panel: PanelScratch::default(),
        }
    }

    /// Dimension this workspace serves.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The workspace's single-solve state, as the one-lane instance of
    /// the engine.
    fn one_lane(&mut self) -> Lanes<'_, 1> {
        let (x, _) = self.x.as_chunks_mut::<1>();
        Lanes { stamps: &mut self.stamps, pending: &mut self.pending, x, live: &mut [] }
    }

    /// Readies a solve that pops in `triangle`'s order: nothing pending,
    /// and nothing live but the positions from `head` on — a dense
    /// tail's, which take updates from zero and are never pending.
    pub(crate) fn begin(&mut self, triangle: Triangle, head: usize) {
        self.one_lane().begin(triangle, head);
    }

    /// Adds a right-hand side (indices need not be sorted; duplicates
    /// accumulate): a live position takes `+= v`, any other is discovered
    /// at `v`.
    pub(crate) fn seed(&mut self, b_idx: &[Index], b_val: &[f64]) {
        self.one_lane().seed(0, b_idx, b_val);
    }

    /// The next pending position in the order [`SolveWorkspace::begin`]
    /// set, removed: final, for every position that could still update
    /// it lies behind it.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<usize> {
        self.pending.pop()
    }

    /// `x -= T(:, j) · xj` over one column's `rows` and `vals`: a live
    /// position takes the update, any other is discovered at `−t·xj`.
    #[inline]
    pub(crate) fn scatter(&mut self, rows: &[Index], vals: &[f64], xj: f64) {
        self.one_lane().scatter(rows, vals, &[xj], 1);
    }

    /// Solves `T x = b` for the triangle `view` reads and appends the
    /// sorted sparse solution to `out_idx` / `out_val` (cleared first); the
    /// one-lane instance of the crate's one solve (module docs). `b_idx` /
    /// `b_val` is a sparse right-hand side (indices need not be sorted;
    /// duplicates accumulate).
    ///
    /// Under a drop tolerance `eps > 0` the solve truncates *during*
    /// substitution: once a solution entry `x_j` is final — when it pops —
    /// if `|x_j| < eps` it is zeroed before it propagates to any dependent
    /// entry, and `|x_j|` is added to the returned dropped ℓ₁ mass. Killing
    /// the entry before propagation (rather than pruning afterwards) also
    /// means what only it would have discovered is never visited, so
    /// truncation cuts solve time as well as output size — what makes
    /// sparsified builds tractable on graphs whose *exact* inverses are
    /// the memory/time wall. Such a solve is given no dense tail
    /// ([`TailRule::under`]).
    ///
    /// `protect` names one position that is never truncated regardless of
    /// magnitude — inversion drivers protect the diagonal seed so `L⁻¹`
    /// keeps its unit diagonal and `U⁻¹` its explicit diagonal.
    ///
    /// With `eps == 0.0` nothing can be truncated (`|x_j| < 0.0` is false
    /// for every float): the exact solve, and a dropped mass of exactly
    /// `0.0`.
    #[allow(clippy::too_many_arguments)] // mirrors the mathematical signature
    pub(crate) fn solve_view(
        &mut self,
        view: &FactorView,
        b_idx: &[Index],
        b_val: &[f64],
        eps: f64,
        protect: Option<Index>,
        out_idx: &mut Vec<Index>,
        out_val: &mut Vec<f64>,
    ) -> Result<f64> {
        debug_assert_eq!(b_idx.len(), b_val.len());
        debug_assert!(eps >= 0.0 && eps.is_finite(), "drop tolerance must be finite and >= 0");
        self.check_dim(view)?;
        debug_assert!(eps == 0.0 || view.tail.columns() == 0, "see TailRule::under");
        let (out_idx, out_val) = (std::array::from_mut(out_idx), std::array::from_mut(out_val));
        let mut lanes = self.one_lane();
        let solve = lanes.solve(view, [(b_idx, b_val)], eps, [protect], out_idx, out_val, axpy_one);
        let ([dropped], flops) = solve?;
        self.tally.count(flops.0, flops.1);
        Ok(dropped)
    }

    /// Solves `T x = e_j` exactly for the `lanes` (at most [`PANEL`])
    /// columns `j` from `first` on as one panel, through `axpy`: one pass
    /// through each factor column the panel reaches serves every lane
    /// that it reaches. Lane `p`'s solution is then
    /// [`SolveWorkspace::panel_column`]`(p)`. Each lane receives exactly
    /// the operations, in exactly the order, of its own
    /// [`SolveWorkspace::solve_view`] at `ε = 0` with its seed protected,
    /// so it returns that solve's bytes, and the tally counts what the
    /// lanes' own solves would.
    pub(crate) fn solve_panel(
        &mut self,
        view: &FactorView,
        first: Index,
        lanes: usize,
        axpy: impl Axpy<PANEL>,
    ) -> Result<()> {
        debug_assert!((1..=PANEL).contains(&lanes));
        self.check_dim(view)?;
        let n = self.n;
        let PanelScratch { buf, at, live, out_idx, out_val } = &mut self.panel;
        if buf.is_empty() {
            buf.resize(n * PANEL + PANEL, 0.0);
            *at = buf.as_ptr().align_offset(64).min(PANEL);
            live.resize(n, 0);
        }
        let (x, _) = buf[*at..*at + n * PANEL].as_chunks_mut::<PANEL>();
        let live = live.as_mut_slice();
        let mut lanes_of = Lanes { stamps: &mut self.stamps, pending: &mut self.pending, x, live };
        let seeds: [Index; PANEL] = std::array::from_fn(|p| first + p as Index);
        let used = |p: usize| if p < lanes { p..p + 1 } else { p..p };
        let rhs = std::array::from_fn(|p| (&seeds[used(p)], &[1.0][..used(p).len()]));
        let protect = seeds.map(Some);
        let (_, flops) = lanes_of.solve(view, rhs, 0.0, protect, out_idx, out_val, axpy)?;
        self.tally.count(flops.0, flops.1);
        Ok(())
    }

    /// Lane `p`'s sorted solution from the last [`SolveWorkspace::solve_panel`].
    pub(crate) fn panel_column(&self, p: usize) -> (&[Index], &[f64]) {
        (&self.panel.out_idx[p], &self.panel.out_val[p])
    }

    fn check_dim(&self, view: &FactorView) -> Result<()> {
        if view.dim() != self.n {
            return Err(SparseError::Malformed(format!(
                "workspace dimension {} does not match matrix dimension {}",
                self.n,
                view.dim()
            )));
        }
        Ok(())
    }
}

/// One solve of `P` right-hand sides at once, over a workspace's state:
/// the positions stamped live and pending are the union of the lanes',
/// and `x` holds each position's `P` values side by side.
struct Lanes<'w, const P: usize> {
    stamps: &'w mut EpochStamps,
    pending: &'w mut PendingSet,
    x: &'w mut [[f64; P]],
    /// The lanes live at each marked position (bit `p` for lane `p`).
    /// Empty when `P = 1`: a marked position's one lane is live.
    live: &'w mut [u8],
}

impl<const P: usize> Lanes<'_, P> {
    /// Every lane.
    const ALL: u8 = u8::MAX >> (8 - P);

    /// The lanes live at marked position `i`.
    #[inline]
    fn live(&self, i: usize) -> u8 {
        if P == 1 {
            1
        } else {
            self.live[i]
        }
    }

    /// [`SolveWorkspace::begin`], in every lane.
    fn begin(&mut self, triangle: Triangle, head: usize) {
        self.stamps.advance();
        // Drained fully on success; an early error (singular pivot)
        // leaves the rest of the set behind, and this clears it.
        self.pending.restart(triangle);
        self.x[head..].fill([0.0; P]);
        for i in head..self.x.len() {
            self.stamps.mark(i);
        }
        if P > 1 {
            self.live[head..].fill(Self::ALL);
        }
    }

    /// [`SolveWorkspace::seed`] in lane `lane`: a position live in it
    /// takes `+= v`, any other is discovered in it at `v`.
    fn seed(&mut self, lane: usize, b_idx: &[Index], b_val: &[f64]) {
        let bit = 1u8 << lane;
        for (&r, &v) in b_idx.iter().zip(b_val) {
            let r = r as usize;
            debug_assert!(r < self.x.len(), "rhs index out of bounds");
            if !self.stamps.is_marked(r) {
                self.stamps.mark(r);
                self.x[r] = [0.0; P];
                if P > 1 {
                    self.live[r] = 0;
                }
                self.pending.insert(r);
            } else if self.live(r) & bit != 0 {
                self.x[r][lane] += v;
                continue;
            }
            self.x[r][lane] = v;
            if P > 1 {
                self.live[r] |= bit;
            }
        }
    }

    /// `x -= T(:, j) · xj` over one column's `rows` and `vals`, in the
    /// `active` lanes: [`scatter_lanes`].
    #[inline]
    fn scatter(&mut self, rows: &[Index], vals: &[f64], xj: &[f64; P], active: u8) {
        let Lanes { stamps, pending, x, live } = self;
        scatter_lanes(stamps, pending, x, live, rows, vals, xj, active);
    }

    /// The crate's one solve, of `T x = b_p` for the `P` right-hand sides
    /// `rhs` at once (module docs; [`SolveWorkspace::solve_view`] says
    /// what `eps` and `protect` do to each lane): lane `p`'s sorted
    /// solution goes to `out_idx[p]` / `out_val[p]` (cleared first). The
    /// positions pop once, in index order, for every lane: at each, every
    /// lane is divided by the diagonal — a lane not live there holds `0.0`
    /// — and the lanes left nonzero and untruncated go through one masked
    /// scatter of the position's column. The dense tail is swept through
    /// `axpy`, one pass for every lane. Each lane so receives exactly the
    /// operations, in exactly the order, of its own one-lane solve.
    /// Returns each lane's dropped ℓ₁ mass and the multiply-subtracts made
    /// in the head and in the tail, summed over the lanes.
    #[allow(clippy::too_many_arguments)] // the one-lane call's, per lane
    fn solve(
        &mut self,
        view: &FactorView,
        rhs: [(&[Index], &[f64]); P],
        eps: f64,
        protect: [Option<Index>; P],
        out_idx: &mut [Vec<Index>; P],
        out_val: &mut [Vec<f64>; P],
        axpy: impl Axpy<P>,
    ) -> Result<([f64; P], (u64, u64))> {
        out_idx.iter_mut().for_each(Vec::clear);
        out_val.iter_mut().for_each(Vec::clear);

        // An `Upper` tail is upstream of everything: a panel whose
        // right-hand sides enter it is swept there first, and its columns'
        // head rows discover the head positions; one that stays clear of
        // it never touches it. A lane that stays clear holds zeros there.
        let (n, tail, triangle) = (self.x.len(), &view.tail, view.triangle);
        let lower = triangle == Triangle::Lower;
        let enters =
            |(b_idx, _): &(&[Index], &[f64])| b_idx.iter().any(|&r| r as usize >= tail.start());
        let head = if lower || rhs.iter().any(enters) { tail.start() } else { n };
        self.begin(triangle, head);
        for (p, &(b_idx, b_val)) in rhs.iter().enumerate() {
            self.seed(p, b_idx, b_val);
        }
        let (mut head_flops, mut tail_flops) = (0u64, 0u64);
        if !lower && head < n {
            tail_flops += tail.sweep_upper_panel(&mut self.x[head..], axpy);
            for (i, &(start, end)) in (head..n).zip(&tail.head_rows).rev() {
                let xi = self.x[i];
                let active = (0..P).fold(0u8, |m, p| m | ((xi[p] != 0.0) as u8) << p);
                if active != 0 {
                    self.scatter(&view.rows[start..end], &view.vals[start..end], &xi, active);
                    head_flops += (end - start) as u64 * u64::from(active.count_ones());
                }
            }
        }

        let mut dropped = [0.0f64; P];
        while let Some(j) = self.pending.pop() {
            let (start, end, diag) = view.column(j as Index);
            let mut xj = self.x[j];
            if !view.unit_diag {
                if diag == 0.0 {
                    return Err(SparseError::SingularPivot { column: j, value: 0.0 });
                }
                xj = xj.map(|v| v / diag);
            }
            let mut active = 0u8;
            for p in 0..P {
                let v = xj[p];
                if v == 0.0 {
                    continue; // exact cancellation: not stored, nothing propagates
                }
                if v.abs() < eps && protect[p] != Some(j as Index) {
                    dropped[p] += v.abs();
                    continue; // truncated: what only it reaches is never discovered
                }
                active |= 1 << p;
                out_idx[p].push(j as Index);
                out_val[p].push(v);
            }
            if active != 0 {
                self.scatter(&view.rows[start..end], &view.vals[start..end], &xj, active);
                head_flops += (end - start) as u64 * u64::from(active.count_ones());
            }
        }
        if lower {
            tail_flops += tail.sweep_panel(&mut self.x[head..], 0..tail.columns(), 0, axpy);
        } else {
            // Upper pops descend; callers get ascending indices either way.
            out_idx.iter_mut().for_each(|idx| idx.reverse());
            out_val.iter_mut().for_each(|val| val.reverse());
        }

        // The tail's positions, after the head's; exact zeros dropped.
        for p in 0..P {
            for (i, row) in self.x.iter().enumerate().skip(head) {
                if row[p] != 0.0 {
                    out_idx[p].push(i as Index);
                    out_val[p].push(row[p]);
                }
            }
        }
        Ok((dropped, (head_flops, tail_flops)))
    }
}

/// `x -= T(:, j) · xj` over one column's `rows` and `vals`, in the
/// `active` lanes of a [`Lanes`] solve's state: a lane live at a row takes
/// `x − t·xj`, any other is discovered there at `−(t·xj)` — a position no
/// lane held before is discovered, its other lanes at `0.0` — and a lane
/// not active keeps every bit. At `P = 1` the one lane is active. Each
/// piece of the state is its own `&mut` argument, so that the compiler
/// may keep their addresses in registers across the loop's stores.
#[allow(clippy::too_many_arguments)] // the state, taken apart
#[inline(always)]
fn scatter_lanes<const P: usize>(
    stamps: &mut EpochStamps,
    pending: &mut PendingSet,
    x: &mut [[f64; P]],
    live: &mut [u8],
    rows: &[Index],
    vals: &[f64],
    xj: &[f64; P],
    active: u8,
) {
    note_factor_reads(rows.len());
    for (&i, &t) in rows.iter().zip(vals) {
        let i = i as usize;
        if stamps.is_marked(i) {
            let was = if P == 1 { 1 } else { live[i] };
            let row = &mut x[i];
            for p in 0..P {
                let product = t * xj[p];
                if P == 1 || active >> p & 1 != 0 {
                    row[p] = if was >> p & 1 != 0 { row[p] - product } else { -product };
                }
            }
            if P > 1 {
                live[i] = was | active;
            }
        } else {
            stamps.mark(i);
            x[i] = std::array::from_fn(|p| {
                if P == 1 || active >> p & 1 != 0 {
                    -(t * xj[p])
                } else {
                    0.0
                }
            });
            if P > 1 {
                live[i] = active;
            }
            pending.insert(i);
        }
    }
}

#[cfg(not(test))]
fn note_summary_word() {}

// Summary words of a `PendingSet` read or written on this thread: the
// count that holds a solve to its pattern, not to `n`.
#[cfg(test)]
thread_local! {
    static SUMMARY_WORDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn note_summary_word() {
    SUMMARY_WORDS.with(|c| c.set(c.get() + 1));
}

#[cfg(not(test))]
fn note_factor_reads(_entries: usize) {}

// Stored factor entries the solves on this thread read — a scatter's
// column, a tail sweep's mirrored column — each time one is read: the
// count that shows a panel reads a column once for all its lanes.
#[cfg(test)]
thread_local! {
    static FACTOR_READS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn note_factor_reads(entries: usize) {
    FACTOR_READS.with(|c| c.set(c.get() + entries));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The per-edge DFS, kept as the oracle of the pattern every solve
    /// pops: the Gilbert–Peierls reach of `seeds` over the graph
    /// `children` describes, its child slice re-resolved on every edge
    /// step. Leaves the reached set stamped and its `x` slots zeroed, and
    /// returns it in DFS postorder.
    pub(crate) fn reference_reach<'a>(
        ws: &mut SolveWorkspace,
        seeds: &[Index],
        children: impl Fn(Index) -> &'a [Index],
    ) -> Vec<Index> {
        ws.stamps.advance();
        let mut reached = Vec::new();
        let mut stack: Vec<(Index, usize)> = Vec::new();
        for &r in seeds {
            if ws.stamps.is_marked(r as usize) {
                continue;
            }
            ws.stamps.mark(r as usize);
            ws.x[r as usize] = 0.0;
            stack.push((r, 0));
            while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
                let kids = children(node);
                if *cursor < kids.len() {
                    let child = kids[*cursor];
                    *cursor += 1;
                    if !ws.stamps.is_marked(child as usize) {
                        ws.stamps.mark(child as usize);
                        ws.x[child as usize] = 0.0;
                        stack.push((child, 0));
                    }
                } else {
                    reached.push(node);
                    stack.pop();
                }
            }
        }
        reached
    }

    /// The per-edge ε = 0 solve: [`reference_reach`], then the numeric
    /// phase in index order with a binary search per column and per
    /// diagonal, and no tail anywhere.
    fn reference_solve(
        t: &CscMatrix,
        triangle: Triangle,
        unit_diag: bool,
        b_idx: &[Index],
        b_val: &[f64],
    ) -> (Vec<Index>, Vec<f64>) {
        let strict = |j: Index| {
            let (rows, vals) = t.col(j);
            let span = match triangle {
                Triangle::Lower => rows.partition_point(|&r| r <= j)..rows.len(),
                Triangle::Upper => 0..rows.partition_point(|&r| r < j),
            };
            (&rows[span.clone()], &vals[span])
        };
        let mut ws = SolveWorkspace::new(t.nrows());
        let mut idx = reference_reach(&mut ws, b_idx, |j| strict(j).0);
        for (&r, &v) in b_idx.iter().zip(b_val) {
            ws.x[r as usize] += v;
        }
        idx.sort_unstable();
        let mut order = idx.clone();
        if triangle == Triangle::Upper {
            order.reverse();
        }
        for j in order {
            if !unit_diag {
                ws.x[j as usize] /= t.get(j, j).expect("the oracle systems store their diagonals");
            }
            let xj = ws.x[j as usize];
            if xj != 0.0 {
                let (rows, vals) = strict(j);
                for (&i, &v) in rows.iter().zip(vals) {
                    ws.x[i as usize] -= v * xj;
                }
            }
        }
        idx.retain(|&j| ws.x[j as usize] != 0.0);
        let val = idx.iter().map(|&j| ws.x[j as usize]).collect();
        (idx, val)
    }

    /// `W = I − 0.05·A` of one ER, one BA and one RMAT graph as generated,
    /// and of the RMAT graph with its nodes in ascending degree — hubs
    /// last, the order that grows a dense tail: the systems the
    /// bit-identity oracles of this module and of `lu` run on.
    pub(crate) fn oracle_systems() -> Vec<(&'static str, CscMatrix)> {
        use kdash_datagen::{barabasi_albert, erdos_renyi, rmat, RmatParams};
        let skewed = rmat(9, 2048, RmatParams::default(), 13);
        let mut by_degree: Vec<Index> = (0..skewed.num_nodes() as Index).collect();
        let in_degrees = skewed.in_degrees();
        by_degree.sort_by_key(|&v| skewed.out_degree(v) + in_degrees[v as usize]);
        let hubs_last = kdash_graph::Permutation::from_new_order(by_degree).unwrap();
        [
            ("er", erdos_renyi(300, 1200, 11)),
            ("ba", barabasi_albert(300, 3, 12)),
            ("rmat-hubs-last", skewed.permute(&hubs_last).unwrap()),
            ("rmat", skewed),
        ]
        .into_iter()
        .map(|(name, g)| {
            let a = crate::transition_matrix(&g, crate::DanglingPolicy::Keep);
            (name, crate::w_matrix(&a, 0.95).unwrap())
        })
        .collect()
    }

    /// Summary words the solves on this thread read or wrote since the
    /// last call.
    pub(crate) fn take_summary_words() -> usize {
        SUMMARY_WORDS.with(|c| c.replace(0))
    }

    /// Stored factor entries the solves on this thread read since the
    /// last call, each time one was read.
    pub(crate) fn take_factor_reads() -> usize {
        FACTOR_READS.with(|c| c.replace(0))
    }

    /// The plain panel body, one lane after another: every host has it,
    /// so the panel drivers run under test where the host has no wide one.
    pub(crate) fn per_lane_axpy(
        rows: &mut [[f64; PANEL]],
        col: &[f64],
        xi: &[f64; PANEL],
        on: &[bool; PANEL],
    ) {
        for (row, &t) in rows.iter_mut().zip(col) {
            for p in (0..PANEL).filter(|&p| on[p]) {
                row[p] -= t * xi[p];
            }
        }
    }

    /// The panel bodies this host runs: the per-lane one, and the wide one
    /// where it has it.
    pub(crate) fn panel_bodies() -> Vec<PanelAxpy> {
        [Some(per_lane_axpy as PanelAxpy), wide_axpy()].into_iter().flatten().collect()
    }

    /// A unit-lower `L` and an upper `U` (diagonal 2) of `n` columns whose
    /// solves cancel to exact zeros, all values dyadic: `L` stores `½` and
    /// `¼` one and two rows below its diagonal (`¼ = ½²`), so the solve
    /// of `e_a` holds `x_{a+2} = −¼ + ½·½ = 0` exactly — a live lane at
    /// zero, beside the lanes of `a + 1` and `a + 2`, which are not — and
    /// `U` mirrors it (`⅛ = ½²/2`, so `x_{a−2} = 0`). The last 24 columns
    /// of each are full past the band, with small dyadic values, so that
    /// both grow dense tails.
    pub(crate) fn cancelling_factors(n: usize) -> [(CscMatrix, Triangle); 2] {
        let (mut lower, mut upper) = (Vec::new(), Vec::new());
        for a in 0..n as Index {
            upper.push((a, a, 2.0));
            for (gap, l, u) in [(1, 0.5, 0.5), (2, 0.25, 0.125)] {
                if (a + gap) < n as Index {
                    lower.push((a + gap, a, l));
                    upper.push((a, a + gap, u));
                }
            }
            for i in (a + 3..n as Index).filter(|_| a as usize + 24 >= n) {
                let v = [0.5, -0.25, 0.125, -0.5][(i + a) as usize % 4];
                lower.push((i, a, v));
                upper.push((a, i, v / 4.0));
            }
        }
        [
            (CscMatrix::from_triplets(n, n, &lower).unwrap(), Triangle::Lower),
            (CscMatrix::from_triplets(n, n, &upper).unwrap(), Triangle::Upper),
        ]
    }

    /// The structural rule with its bounds moved — any width down to one
    /// column, capped at all, 40 or 7 — so that small systems grow tails,
    /// and at several columns.
    pub(crate) fn eager_tail_rules() -> [TailRule; 3] {
        [usize::MAX, 40, 7].map(|max_columns| TailRule { min_columns: 1, max_columns })
    }

    /// Lower/Upper × unit/stored diagonal × unit, multi-entry, unsorted
    /// and duplicate-index right-hand sides, on real factors: the kernel
    /// returns the per-edge reference's index and value arrays byte for
    /// byte, through a searching view and indexed ones with no tail, the
    /// structural tail and tails at other columns.
    #[test]
    fn reach_kernel_is_bit_identical_to_the_per_edge_solve() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for (name, w) in oracle_systems() {
            let n = w.nrows();
            let f = crate::sparse_lu(&w).unwrap();
            let linv = crate::inverse::tests::exact(&f.l, Triangle::Lower, 1).unwrap();
            let cases = [
                (&f.l, Triangle::Lower, true),
                (&linv, Triangle::Lower, false),
                (&f.u, Triangle::Upper, false),
                (&f.u, Triangle::Upper, true),
            ];
            let mut ws = SolveWorkspace::new(n);
            for (t, triangle, unit) in cases {
                let mut views = vec![FactorView::new(t, triangle, unit).unwrap()];
                let rules = [TailRule::NEVER, TailRule::STRUCTURAL];
                for rule in rules.into_iter().chain(eager_tail_rules()) {
                    views.push(FactorView::indexed(t, triangle, unit, rule).unwrap());
                }
                assert_eq!(views[1].tail.columns(), 0, "{name}: NEVER mirrors nothing");
                if name != "rmat" {
                    // As generated, RMAT's last nodes are its emptiest.
                    assert!(views[3].tail.columns() > 7, "{name} {triangle:?}: no eager tail");
                    assert_eq!(views[5].tail.columns(), 7, "{name} {triangle:?}: capped tail");
                }
                for trial in 0..24 {
                    let k = if trial < 8 { 1 } else { rng.gen_range(2..12usize) };
                    let mut b_idx: Vec<Index> =
                        (0..k).map(|_| rng.gen_range(0..n) as Index).collect();
                    b_idx.push(b_idx[0]); // a duplicate index, out of order
                    let b_val: Vec<f64> = b_idx.iter().map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let (ei, ev) = reference_solve(t, triangle, unit, &b_idx, &b_val);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let (mut oi, mut ov) = (Vec::new(), Vec::new());
                    for view in &views {
                        let tail = view.tail.columns();
                        let tag =
                            format!("{name} {triangle:?} unit={unit} trial {trial} tail {tail}");
                        let dropped =
                            ws.solve_view(view, &b_idx, &b_val, 0.0, None, &mut oi, &mut ov);
                        assert_eq!(dropped, Ok(0.0), "{tag}");
                        assert_eq!(oi, ei, "{tag}: pattern");
                        assert_eq!(bits(&ov), bits(&ev), "{tag}: values");
                    }
                }
            }
        }
    }

    /// Dense reference forward substitution for unit-lower `L` (diag absent).
    fn dense_lower_unit_solve(l: &CscMatrix, b: &[f64]) -> Vec<f64> {
        let n = l.nrows();
        let d = l.to_dense();
        let mut x = b.to_vec();
        for j in 0..n {
            let xj = x[j];
            for i in j + 1..n {
                x[i] -= d[i][j] * xj;
            }
        }
        x
    }

    fn dense_upper_solve(u: &CscMatrix, b: &[f64]) -> Vec<f64> {
        let n = u.nrows();
        let d = u.to_dense();
        let mut x = b.to_vec();
        for j in (0..n).rev() {
            x[j] /= d[j][j];
            let xj = x[j];
            for i in 0..j {
                x[i] -= d[i][j] * xj;
            }
        }
        x
    }

    fn to_dense_vec(n: usize, idx: &[Index], val: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; n];
        for (&i, &v) in idx.iter().zip(val) {
            x[i as usize] = v;
        }
        x
    }

    /// The exact solve of `T x = b` through a probing view, as the subset
    /// driver runs it: the sorted solution.
    fn solve(
        ws: &mut SolveWorkspace,
        t: &CscMatrix,
        triangle: Triangle,
        unit_diag: bool,
        b_idx: &[Index],
        b_val: &[f64],
    ) -> Result<(Vec<Index>, Vec<f64>)> {
        let view = FactorView::new(t, triangle, unit_diag)?;
        let (mut oi, mut ov) = (Vec::new(), Vec::new());
        ws.solve_view(&view, b_idx, b_val, 0.0, None, &mut oi, &mut ov)?;
        Ok((oi, ov))
    }

    /// `T x = e_j` under drop tolerance `eps` with the seed `j` protected,
    /// as the inversion drivers solve a column: the sorted solution and
    /// the dropped mass.
    fn solve_column(
        ws: &mut SolveWorkspace,
        t: &CscMatrix,
        triangle: Triangle,
        unit_diag: bool,
        j: Index,
        eps: f64,
    ) -> Result<(Vec<Index>, Vec<f64>, f64)> {
        let view = FactorView::new(t, triangle, unit_diag)?;
        let (mut oi, mut ov) = (Vec::new(), Vec::new());
        let dropped = ws.solve_view(&view, &[j], &[1.0], eps, Some(j), &mut oi, &mut ov)?;
        Ok((oi, ov, dropped))
    }

    fn approx_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= 1e-12 * (1.0 + y.abs()), "idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn lower_unit_sparse_rhs() {
        // L (diag implicit):
        // [.    ]
        // [2 .  ]
        // [0 3 .]
        let l = CscMatrix::from_triplets(3, 3, &[(1, 0, 2.0), (2, 1, 3.0)]).unwrap();
        let mut ws = SolveWorkspace::new(3);
        let (oi, ov) = solve(&mut ws, &l, Triangle::Lower, true, &[0], &[1.0]).unwrap();
        let x = to_dense_vec(3, &oi, &ov);
        approx_eq(&x, &dense_lower_unit_solve(&l, &[1.0, 0.0, 0.0]));
        assert_eq!(oi, vec![0, 1, 2]); // reach of node 0 is everything
    }

    #[test]
    fn lower_unit_pattern_is_reachability() {
        // chain 0 -> 1, isolated 2
        let l = CscMatrix::from_triplets(3, 3, &[(1, 0, 1.0)]).unwrap();
        let mut ws = SolveWorkspace::new(3);
        let (oi, ov) = solve(&mut ws, &l, Triangle::Lower, true, &[2], &[5.0]).unwrap();
        assert_eq!(oi, vec![2]);
        assert_eq!(ov, vec![5.0]);
    }

    #[test]
    fn upper_with_diag() {
        // U:
        // [2 1 0]
        // [0 4 5]
        // [0 0 8]
        let u = CscMatrix::from_triplets(
            3,
            3,
            &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 4.0), (1, 2, 5.0), (2, 2, 8.0)],
        )
        .unwrap();
        let mut ws = SolveWorkspace::new(3);
        let (oi, ov) = solve(&mut ws, &u, Triangle::Upper, false, &[2], &[8.0]).unwrap();
        let x = to_dense_vec(3, &oi, &ov);
        approx_eq(&x, &dense_upper_solve(&u, &[0.0, 0.0, 8.0]));
    }

    #[test]
    fn singular_pivot_detected() {
        // upper matrix missing diagonal at column 1
        let u = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0)]).unwrap();
        let mut ws = SolveWorkspace::new(2);
        let err = solve(&mut ws, &u, Triangle::Upper, false, &[1], &[1.0]).unwrap_err();
        assert!(matches!(err, SparseError::SingularPivot { column: 1, .. }));
    }

    #[test]
    fn duplicate_rhs_indices_accumulate() {
        let l = CscMatrix::from_triplets(2, 2, &[(1, 0, 1.0)]).unwrap();
        let mut ws = SolveWorkspace::new(2);
        let (oi, ov) = solve(&mut ws, &l, Triangle::Lower, true, &[0, 0], &[1.0, 2.0]).unwrap();
        let x = to_dense_vec(2, &oi, &ov);
        approx_eq(&x, &[3.0, -3.0]);
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let l = CscMatrix::from_triplets(3, 3, &[(1, 0, 2.0), (2, 1, 3.0)]).unwrap();
        let mut ws = SolveWorkspace::new(3);
        solve(&mut ws, &l, Triangle::Lower, true, &[0], &[1.0]).unwrap();
        // Second solve with a different RHS must not see stale state.
        let (oi, ov) = solve(&mut ws, &l, Triangle::Lower, true, &[1], &[1.0]).unwrap();
        let x = to_dense_vec(3, &oi, &ov);
        approx_eq(&x, &dense_lower_unit_solve(&l, &[0.0, 1.0, 0.0]));
    }

    #[test]
    fn explicit_diagonal_ignored_under_unit_flag() {
        // Same matrix with and without stored unit diagonal must solve alike.
        let no_diag = CscMatrix::from_triplets(2, 2, &[(1, 0, 2.0)]).unwrap();
        let with_diag =
            CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 2.0), (1, 1, 1.0)]).unwrap();
        let mut ws = SolveWorkspace::new(2);
        let (i1, v1) = solve(&mut ws, &no_diag, Triangle::Lower, true, &[0], &[3.0]).unwrap();
        let (i2, v2) = solve(&mut ws, &with_diag, Triangle::Lower, true, &[0], &[3.0]).unwrap();
        assert_eq!(i1, i2);
        assert_eq!(v1, v2);
    }

    #[test]
    fn zero_tolerance_truncated_solve_is_bit_identical() {
        let l = CscMatrix::from_triplets(4, 4, &[(1, 0, 0.5), (2, 1, 0.25), (3, 2, 2.0)]).unwrap();
        let mut ws = SolveWorkspace::new(4);
        let (i1, v1) = solve(&mut ws, &l, Triangle::Lower, true, &[0], &[1.0]).unwrap();
        let (i2, v2, dropped) = solve_column(&mut ws, &l, Triangle::Lower, true, 0, 0.0).unwrap();
        assert_eq!(dropped, 0.0);
        assert_eq!(i1, i2);
        let b1: Vec<u64> = v1.iter().map(|v| v.to_bits()).collect();
        let b2: Vec<u64> = v2.iter().map(|v| v.to_bits()).collect();
        assert_eq!(b1, b2);
    }

    #[test]
    fn truncation_drops_small_entries_and_records_mass() {
        // chain: x = [1, -0.5, 0.25, -0.125] for L with subdiagonal 0.5.
        let l = CscMatrix::from_triplets(
            4,
            4,
            &[(1, 0, 0.5), (2, 1, 0.5), (3, 2, 0.5)],
        )
        .unwrap();
        let mut ws = SolveWorkspace::new(4);
        // eps = 0.3 kills x_2 = 0.25 before it propagates, so x_3 (which
        // only depends on x_2) never appears at all.
        let (oi, ov, dropped) = solve_column(&mut ws, &l, Triangle::Lower, true, 0, 0.3).unwrap();
        assert_eq!(oi, vec![0, 1]);
        assert_eq!(ov, vec![1.0, -0.5]);
        assert!((dropped - 0.25).abs() < 1e-15, "dropped {dropped}");
    }

    #[test]
    fn truncation_protects_the_seed_entry() {
        // U with large diagonal: the seed x_1 = 1/8 is far below eps but
        // must survive because it is the protected diagonal entry.
        let u = CscMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 1, 8.0)]).unwrap();
        let mut ws = SolveWorkspace::new(2);
        let (oi, ov, dropped) = solve_column(&mut ws, &u, Triangle::Upper, false, 1, 0.5).unwrap();
        assert_eq!(oi, vec![1]);
        assert_eq!(ov, vec![0.125]);
        // x_0 = -(U_01 * x_1) / U_00 = -1/32 was dropped.
        assert!((dropped - 1.0 / 32.0).abs() < 1e-15, "dropped {dropped}");
    }

    #[test]
    fn worklist_solve_matches_dfs_solve_when_nothing_drops() {
        // No entry of these well-scaled systems can fall below 1e-300, so
        // a solve under it truncates nothing and must carry the exact
        // solve's pattern and value bits: the tolerance only ever removes.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..30 {
            let n = rng.gen_range(2..24usize);
            let mut lo = Vec::new();
            let mut up = Vec::new();
            for j in 0..n as Index {
                up.push((j, j, rng.gen_range(1.0..2.0)));
                for i in (j + 1)..n as Index {
                    if rng.gen_bool(0.3) {
                        lo.push((i, j, rng.gen_range(-2.0..2.0)));
                        up.push((j, i, rng.gen_range(-2.0..2.0)));
                    }
                }
            }
            let l = CscMatrix::from_triplets(n, n, &lo).unwrap();
            let u = CscMatrix::from_triplets(n, n, &up).unwrap();
            let mut ws = SolveWorkspace::new(n);
            for (m, tri, unit) in [(&l, Triangle::Lower, true), (&u, Triangle::Upper, false)] {
                let seed = rng.gen_range(0..n) as Index;
                let (ei, ev) = solve(&mut ws, m, tri, unit, &[seed], &[1.0]).unwrap();
                let (wi, wv, dropped) = solve_column(&mut ws, m, tri, unit, seed, 1e-300).unwrap();
                assert_eq!(dropped, 0.0, "trial {trial}");
                assert_eq!(ei, wi, "trial {trial} {tri:?}: pattern diverged");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&ev), bits(&wv), "trial {trial} {tri:?}: values diverged");
            }
        }
    }

    #[test]
    fn random_lower_matches_dense_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..30 {
            let n = rng.gen_range(1..24usize);
            let mut trips = Vec::new();
            for j in 0..n as Index {
                for i in (j + 1)..n as Index {
                    if rng.gen_bool(0.3) {
                        trips.push((i, j, rng.gen_range(-2.0..2.0)));
                    }
                }
            }
            let l = CscMatrix::from_triplets(n, n, &trips).unwrap();
            let k = rng.gen_range(1..=n);
            let mut b_idx: Vec<Index> = (0..n as Index).collect();
            // random subset as RHS
            for i in (1..b_idx.len()).rev() {
                let j = rng.gen_range(0..=i);
                b_idx.swap(i, j);
            }
            b_idx.truncate(k);
            let b_val: Vec<f64> = (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut dense_b = vec![0.0; n];
            for (&i, &v) in b_idx.iter().zip(&b_val) {
                dense_b[i as usize] += v;
            }
            let mut ws = SolveWorkspace::new(n);
            let (oi, ov) = solve(&mut ws, &l, Triangle::Lower, true, &b_idx, &b_val).unwrap();
            let x = to_dense_vec(n, &oi, &ov);
            let expect = dense_lower_unit_solve(&l, &dense_b);
            for (i, (a, e)) in x.iter().zip(&expect).enumerate() {
                assert!((a - e).abs() < 1e-9, "trial {trial} idx {i}: {a} vs {e}");
            }
        }
    }

    /// The truncated solve as it ran over a `BinaryHeap` of encoded
    /// positions, kept as the oracle of the bitset's pop order: the
    /// solution, the dropped mass and the multiply-subtracts.
    fn heap_worklist(
        view: &FactorView,
        b_idx: &[Index],
        b_val: &[f64],
        eps: f64,
        protect: Option<Index>,
    ) -> Result<(Vec<Index>, Vec<f64>, f64, u64)> {
        use std::collections::BinaryHeap;
        let n = view.dim();
        let (mut x, mut seen) = (vec![0.0; n], vec![false; n]);
        let mut pending = BinaryHeap::new();
        let triangle = view.triangle;
        let enc = |i: Index| match triangle {
            Triangle::Lower => -(i as i64),
            Triangle::Upper => i as i64,
        };
        let dec = |key: i64| match triangle {
            Triangle::Lower => (-key) as Index,
            Triangle::Upper => key as Index,
        };
        for (&r, &v) in b_idx.iter().zip(b_val) {
            if seen[r as usize] {
                x[r as usize] += v;
            } else {
                seen[r as usize] = true;
                x[r as usize] = v;
                pending.push(enc(r));
            }
        }
        let (mut out_idx, mut out_val, mut dropped, mut flops) = (vec![], vec![], 0.0f64, 0u64);
        while let Some(key) = pending.pop() {
            let j = dec(key);
            let (start, end, diag) = view.column(j);
            let mut xj = x[j as usize];
            if !view.unit_diag {
                if diag == 0.0 {
                    return Err(SparseError::SingularPivot { column: j as usize, value: 0.0 });
                }
                xj /= diag;
            }
            if xj == 0.0 {
                continue;
            }
            if xj.abs() < eps && protect != Some(j) {
                dropped += xj.abs();
                continue;
            }
            out_idx.push(j);
            out_val.push(xj);
            flops += (end - start) as u64;
            for (&i, &v) in view.rows[start..end].iter().zip(&view.vals[start..end]) {
                if seen[i as usize] {
                    x[i as usize] -= v * xj;
                } else {
                    seen[i as usize] = true;
                    x[i as usize] = -v * xj;
                    pending.push(enc(i));
                }
            }
        }
        if triangle == Triangle::Upper {
            out_idx.reverse();
            out_val.reverse();
        }
        Ok((out_idx, out_val, dropped, flops))
    }

    /// The bitset worklist against the heap oracle: both orientations of
    /// real and random factors, through probing and indexed views, at
    /// ε ∈ {1e-8, 1e-4, 1e-2}, for protected unit seeds and unsorted
    /// multi-entry right-hand sides — the same index and value bits, the
    /// same dropped mass bits and the same multiply-subtracts.
    #[test]
    fn bitset_worklist_is_bit_identical_to_the_heap_worklist() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(43);
        let mut triangles: Vec<(String, CscMatrix, Triangle, bool)> = Vec::new();
        for (name, w) in oracle_systems() {
            let f = crate::sparse_lu(&w).unwrap();
            triangles.push((format!("{name} L"), f.l, Triangle::Lower, true));
            triangles.push((format!("{name} U"), f.u, Triangle::Upper, false));
        }
        for trial in 0..6 {
            let n = rng.gen_range(100..400usize);
            let (mut lo, mut up) = (Vec::new(), Vec::new());
            for j in 0..n as Index {
                up.push((j, j, rng.gen_range(0.5..2.0)));
                for _ in 0..rng.gen_range(0..6) {
                    let i = rng.gen_range(0..n as Index);
                    if i > j {
                        lo.push((i, j, rng.gen_range(-0.5..0.5)));
                    } else if i < j {
                        up.push((i, j, rng.gen_range(-0.5..0.5)));
                    }
                }
            }
            lo.sort_by_key(|&(i, j, _)| (j, i));
            lo.dedup_by_key(|&mut (i, j, _)| (i, j));
            up.sort_by_key(|&(i, j, _)| (j, i));
            up.dedup_by_key(|&mut (i, j, _)| (i, j));
            let l = CscMatrix::from_triplets(n, n, &lo).unwrap();
            let u = CscMatrix::from_triplets(n, n, &up).unwrap();
            triangles.push((format!("random {trial} L"), l, Triangle::Lower, true));
            triangles.push((format!("random {trial} U"), u, Triangle::Upper, false));
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (name, t, triangle, unit) in &triangles {
            let n = t.ncols();
            let mut ws = SolveWorkspace::new(n);
            let (mut oi, mut ov) = (Vec::new(), Vec::new());
            for eps in [1e-8, 1e-4, 1e-2] {
                let rule = TailRule::STRUCTURAL.under(eps);
                let views = [
                    FactorView::new(t, *triangle, *unit).unwrap(),
                    FactorView::indexed(t, *triangle, *unit, rule).unwrap(),
                ];
                for trial in 0..20 {
                    let (b_idx, b_val, protect): (Vec<Index>, Vec<f64>, _) = if trial < 12 {
                        let j = rng.gen_range(0..n) as Index;
                        (vec![j], vec![1.0], Some(j))
                    } else {
                        let k = rng.gen_range(2..8usize);
                        let idx: Vec<Index> =
                            (0..k).map(|_| rng.gen_range(0..n) as Index).collect();
                        let val = idx.iter().map(|_| rng.gen_range(-1.0..1.0)).collect();
                        let protect = (trial % 2 == 0).then_some(idx[0]);
                        (idx, val, protect)
                    };
                    let (ei, ev, em, ef) =
                        heap_worklist(&views[0], &b_idx, &b_val, eps, protect).unwrap();
                    for (v, view) in views.iter().enumerate() {
                        let tag = format!("{name} ε {eps} trial {trial} view {v}");
                        let before = ws.tally.multiply_subtracts;
                        let mass = ws
                            .solve_view(view, &b_idx, &b_val, eps, protect, &mut oi, &mut ov)
                            .unwrap();
                        assert_eq!(oi, ei, "{tag}: pattern");
                        assert_eq!(bits(&ov), bits(&ev), "{tag}: values");
                        assert_eq!(mass.to_bits(), em.to_bits(), "{tag}: dropped mass");
                        assert_eq!(ws.tally.multiply_subtracts - before, ef, "{tag}: tally");
                    }
                }
            }
        }
    }

    /// A value-driven solve cut short by a singular pivot leaves positions
    /// pending; the next solve on the same workspace clears them and
    /// returns what a fresh workspace returns.
    #[test]
    fn a_solve_after_a_singular_pivot_is_clean() {
        // `U` with a zero pivot at column 150, reached from 299 long before
        // the positions 0..150 that 299's column also discovers are popped.
        let n = 300u32;
        let mut trips: Vec<(Index, Index, f64)> =
            (0..n).filter(|&j| j != 150).map(|j| (j, j, 2.0)).collect();
        trips.extend((0..n - 1).step_by(3).map(|i| (i, n - 1, 0.5)));
        trips.extend((0..150).step_by(7).map(|i| (i, 150, 0.25)));
        let u = CscMatrix::from_triplets(n as usize, n as usize, &trips).unwrap();
        let view = FactorView::new(&u, Triangle::Upper, false).unwrap();
        let mut ws = SolveWorkspace::new(n as usize);
        let (mut oi, mut ov) = (Vec::new(), Vec::new());
        let err = ws.solve_view(&view, &[n - 1], &[1.0], 1e-6, Some(n - 1), &mut oi, &mut ov);
        assert_eq!(err, Err(SparseError::SingularPivot { column: 150, value: 0.0 }));
        assert!(ws.pending.len > 0, "the failed solve left positions pending");
        // Lower, after an Upper solve that stopped half way: the set turns
        // round and starts from nothing.
        let l = CscMatrix::from_triplets(
            n as usize,
            n as usize,
            &(0..n - 1).map(|j| (j + 1, j, -0.5)).collect::<Vec<_>>(),
        )
        .unwrap();
        for (t, triangle, unit, seed) in
            [(&l, Triangle::Lower, true, 10), (&u, Triangle::Upper, false, 140)]
        {
            let view = FactorView::new(t, triangle, unit).unwrap();
            ws.solve_view(&view, &[n - 1], &[1.0], 1e-6, None, &mut oi, &mut ov).ok();
            let mass = ws.solve_view(&view, &[seed], &[1.0], 1e-6, Some(seed), &mut oi, &mut ov);
            let mut fresh = SolveWorkspace::new(n as usize);
            let (mut fi, mut fv) = (Vec::new(), Vec::new());
            let expect =
                fresh.solve_view(&view, &[seed], &[1.0], 1e-6, Some(seed), &mut fi, &mut fv);
            assert_eq!(mass, expect, "{triangle:?}");
            assert_eq!((&oi, &ov), (&fi, &fv), "{triangle:?}");
            assert_eq!(ws.pending.len, 0, "{triangle:?}: a finished solve leaves nothing");
        }
    }

    /// A one-entry solve on a 2²⁰-node triangle touches a handful of
    /// summary words, not `n / 4096` of them — exact or truncated, at
    /// either end of the matrix, in either orientation, and when its next
    /// pending position is a whole summary word away.
    #[test]
    fn a_one_entry_solve_touches_a_constant_number_of_summary_words() {
        let n = 1usize << 20;
        let far = (n / 2) as Index;
        let mut trips: Vec<(Index, Index, f64)> = (0..n as Index).map(|j| (j, j, 1.0)).collect();
        // Two strict entries, 4 097 and 8 192 positions away from their
        // columns: the cursor crosses a summary word to reach them.
        trips.extend([(far + 4097, far, 0.5), (far - 8192, far + 1, 0.5)]);
        let t = CscMatrix::from_triplets(n, n, &trips).unwrap();
        let mut ws = SolveWorkspace::new(n);
        let (mut oi, mut ov) = (Vec::new(), Vec::new());
        for (triangle, j) in [
            (Triangle::Lower, 0),
            (Triangle::Lower, n as Index - 1),
            (Triangle::Lower, far),
            (Triangle::Upper, 0),
            (Triangle::Upper, n as Index - 1),
            (Triangle::Upper, far + 1),
        ] {
            let view = FactorView::new(&t, triangle, triangle.unit_diag()).unwrap();
            for eps in [0.0, 1e-4] {
                take_summary_words();
                ws.solve_view(&view, &[j], &[1.0], eps, Some(j), &mut oi, &mut ov).unwrap();
                let touched = take_summary_words();
                assert!(touched <= 8, "{triangle:?} from {j} ε {eps}: {touched} summary words");
                let len = 1 + (j == far || j == far + 1) as usize;
                assert_eq!(oi.len(), len, "{triangle:?} {j} ε {eps}");
            }
        }
    }

    /// A lower tail of `width` columns with a stored diagonal (so that a
    /// sweep also divides), random values, ±∞ among them and a quarter of
    /// them zero.
    fn random_tail(width: usize, rng: &mut impl rand::Rng) -> DenseTail {
        let mut tail = DenseTail::none(width);
        for j in 0..width {
            let rows: Vec<Index> = (j as Index + 1..width as Index).collect();
            let vals: Vec<f64> = rows
                .iter()
                .map(|_| match rng.gen_range(0..40) {
                    0 => f64::INFINITY,
                    1 => f64::NEG_INFINITY,
                    2..=11 => 0.0,
                    _ => rng.gen_range(-0.5..0.5),
                })
                .collect();
            tail.push_lower(j, &rows, &vals);
            tail.diag.push(if rng.gen_bool(0.9) { rng.gen_range(0.5..2.0) } else { 1.0 });
        }
        tail
    }

    /// A panel sweep gives each lane the bits and the multiply-subtracts
    /// of a one-lane sweep of it, through the host's wide body if it has
    /// one and through a plain per-lane one: panels with zero lanes, zero
    /// multipliers beside infinite tail values, and sweeps from a later
    /// lane on or over a later range of columns.
    #[test]
    fn the_wide_body_is_bit_identical_to_one_lane_sweeps() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        let bodies = panel_bodies();
        let bits = |rows: &[[f64; PANEL]]| {
            rows.iter().flat_map(|r| r.map(f64::to_bits)).collect::<Vec<_>>()
        };
        for trial in 0..40 {
            let width = rng.gen_range(1..70usize);
            let tail = random_tail(width, &mut rng);
            assert_eq!(tail.columns(), width);
            let mut rows = vec![[0.0; PANEL]; width];
            for row in rows.iter_mut() {
                for v in row.iter_mut() {
                    *v = if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(-1.0..1.0) };
                }
            }
            let from = rng.gen_range(0..width);
            let ks = if trial % 3 == 0 { from..width } else { 0..from };
            let from_lane = if trial % 4 == 0 { rng.gen_range(0..PANEL) } else { 0 };
            // Each lane on its own, through the one-lane call.
            let mut expect = rows.clone();
            let mut expect_flops = 0u64;
            for p in from_lane..PANEL {
                let mut x: Vec<f64> = rows.iter().map(|r| r[p]).collect();
                let (lane, _) = x.as_chunks_mut::<1>();
                expect_flops += tail.sweep_panel(lane, ks.clone(), 0, axpy_one);
                for (row, v) in expect.iter_mut().zip(&x) {
                    row[p] = *v;
                }
            }
            for (b, &body) in bodies.iter().enumerate() {
                let mut got = rows.clone();
                let flops = tail.sweep_panel(&mut got, ks.clone(), from_lane, body);
                assert_eq!(bits(&got), bits(&expect), "trial {trial} body {b}");
                assert_eq!(flops, expect_flops, "trial {trial} body {b}");
            }
        }
    }

    /// A panel solve gives each lane the bytes of its own one-lane solve,
    /// and the panel the sum of their tallies, through every panel body
    /// the host runs: `Lower` and `Upper` factors, real ones and ones that
    /// cancel to exact zeros, with tails begun at several columns, and
    /// panels that start anywhere — across an `Upper` tail's start among
    /// them — or run past the last column.
    #[test]
    fn panel_solves_give_each_lane_its_one_lane_bytes() {
        let mut cases: Vec<(String, CscMatrix, Triangle)> = Vec::new();
        for (t, triangle) in cancelling_factors(61) {
            cases.push((format!("cancelling {triangle:?}"), t, triangle));
        }
        for (name, w) in oracle_systems() {
            let f = crate::sparse_lu(&w).unwrap();
            cases.push((format!("{name} L"), f.l, Triangle::Lower));
            cases.push((format!("{name} U"), f.u, Triangle::Upper));
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut straddled, mut cancelled) = (false, false);
        for (name, t, triangle) in &cases {
            let n = t.ncols();
            let (mut ws, mut alone) = (SolveWorkspace::new(n), SolveWorkspace::new(n));
            let (mut oi, mut ov) = (Vec::new(), Vec::new());
            for rule in [TailRule::STRUCTURAL].into_iter().chain(eager_tail_rules()) {
                let view = FactorView::indexed(t, *triangle, triangle.unit_diag(), rule).unwrap();
                let start = view.tail.start();
                let mut firsts = vec![0, 1, start.saturating_sub(3), start, n - 5, n - 1];
                firsts.retain(|&first| first < n);
                firsts.sort_unstable();
                firsts.dedup();
                for first in firsts {
                    let lanes = PANEL.min(n - first);
                    straddled |=
                        *triangle == Triangle::Upper && first < start && start < first + lanes;
                    let tag = format!("{name} tail {} from {first}", view.tail.columns());
                    alone.tally = SolveTally::default();
                    let mut expect = Vec::new();
                    for j in (first..first + lanes).map(|j| j as Index) {
                        alone
                            .solve_view(&view, &[j], &[1.0], 0.0, Some(j), &mut oi, &mut ov)
                            .unwrap();
                        cancelled |= name.starts_with("cancelling") && oi.len() < n - j as usize;
                        expect.push((oi.clone(), bits(&ov)));
                    }
                    for body in panel_bodies() {
                        ws.tally = SolveTally::default();
                        ws.solve_panel(&view, first as Index, lanes, body).unwrap();
                        for (p, (want_idx, want_bits)) in expect.iter().enumerate() {
                            let (idx, val) = ws.panel_column(p);
                            assert_eq!(idx, &want_idx[..], "{tag} lane {p}: pattern");
                            assert_eq!(&bits(val), want_bits, "{tag} lane {p}: values");
                        }
                        assert_eq!(ws.tally, alone.tally, "{tag}: tally");
                    }
                }
            }
        }
        assert!(straddled, "no panel started across an Upper tail's start");
        assert!(cancelled, "no lane cancelled to an exact zero");
    }

    /// The mechanism, not only the bytes: a panel of eight columns that
    /// share one pattern reads each stored factor entry it reaches once,
    /// where the columns' eight one-lane solves read each shared entry
    /// eight times — in an `Upper` head, popped once for the union of the
    /// lanes, and in a `Lower` tail, swept once for all of them.
    #[test]
    fn a_panel_reads_each_factor_entry_once_for_all_its_lanes() {
        let value = |i: Index, j: Index| 1.0 / f64::from(i + j + 3);
        // `U`, 16 columns, no tail: a full upper triangle on columns 0..8,
        // and columns 8..16 each storing one entry, in row 7.
        let mut upper: Vec<(Index, Index, f64)> = (0..16).map(|j| (j, j, 2.0)).collect();
        upper.extend((0..8).flat_map(|j| (0..j).map(move |i| (i, j, value(i, j)))));
        upper.extend((8..16).map(|j| (7, j, value(7, j))));
        // `L`, 64 columns: columns 0..8 each store one entry, in row 8,
        // and columns 8..64 are full below their diagonal — the tail.
        let mut lower: Vec<(Index, Index, f64)> = (0..8).map(|j| (8, j, value(8, j))).collect();
        lower.extend((8..64).flat_map(|j| (j + 1..64).map(move |i| (i, j, value(i, j)))));
        let (upper, lower) = (
            CscMatrix::from_triplets(16, 16, &upper).unwrap(),
            CscMatrix::from_triplets(64, 64, &lower).unwrap(),
        );
        let cases = [
            (upper, Triangle::Upper, 8, TailRule::NEVER),
            (lower, Triangle::Lower, 0, eager_tail_rules()[0]),
        ];
        for (t, triangle, first, rule) in cases {
            let n = t.ncols();
            let view = FactorView::indexed(&t, triangle, triangle.unit_diag(), rule).unwrap();
            let tail = if triangle == Triangle::Lower { 56 } else { 0 };
            assert_eq!(view.tail.columns(), tail, "{triangle:?}");
            let strict = t.nnz() - if triangle == Triangle::Upper { n } else { 0 };
            let mut ws = SolveWorkspace::new(n);
            let (mut oi, mut ov) = (Vec::new(), Vec::new());
            take_factor_reads();
            for j in first as Index..(first + PANEL) as Index {
                ws.solve_view(&view, &[j], &[1.0], 0.0, Some(j), &mut oi, &mut ov).unwrap();
            }
            // Each lone solve reads its own column's entry and every
            // shared one.
            assert_eq!(take_factor_reads(), PANEL * (strict - PANEL) + PANEL, "{triangle:?} alone");
            for body in panel_bodies() {
                ws.solve_panel(&view, first as Index, PANEL, body).unwrap();
                assert_eq!(take_factor_reads(), strict, "{triangle:?} as a panel");
            }
        }
    }
}
