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
//! Peierls (1988) is that the nonzero pattern of `x` is exactly the set of
//! nodes *reachable* from `pattern(b)` in the directed graph of `T`
//! (an edge `j -> i` for every stored `T_ij`, `i != j`), which a DFS
//! finds — so the whole solve costs `O(flops)` instead of `O(n)`.
//!
//! That DFS is one kernel, [`SolveWorkspace::reach`], shared with the
//! per-column LU solve. Its frames *own* their child span: a node's
//! children are resolved to a slice when its frame is pushed and when the
//! DFS returns to it — at most twice per pattern node, never per edge.
//! Where the children sit is the caller's business: a [`FactorView`] of a
//! CSC triangle (every column's bounds and diagonal looked up once per
//! full inversion by [`FactorView::indexed`], probed per resolution
//! otherwise), or a column provider for the half-built `L` of the LU.
//!
//! ## One numeric order, and the dense tail it allows
//!
//! The reach only names the pattern. The arithmetic of every exact solve
//! in this crate runs in **index order** — ascending for `Lower`,
//! descending for `Upper` — which is a topological order of a triangle
//! whatever the pattern, and is the order the `ε > 0` worklist solve pops
//! in. Row `r` therefore receives its updates `x_r -= T_ri · x_i` in the
//! order of `i`, and an update through a *stored or imagined zero* is
//! `x_r − 0·x_i = x_r`: it changes no bit (values are finite, and a zero
//! of either sign is dropped at the gather).
//!
//! That is what lets the trailing columns of a factor — under a degree or
//! hybrid ordering the hubs, whose block is all but full — be mirrored as
//! a packed column-major triangle ([`DenseTail`]) and solved without a
//! DFS: the sparse head runs in index order and scatters into the tail's
//! rows, then every nonzero `x_i` of the tail is one contiguous AXPY,
//! `x[i+1..n] -= T[i+1..n, i] · x_i`. For `Upper` the tail is upstream:
//! a right-hand side that enters it is swept there first, descending, the
//! head rows of the tail's columns are scattered as any column's are, and
//! the head below — which a hub's solution all but fills — takes every
//! column in descending order with no DFS and no sort, a column whose `x`
//! was never touched holding the zero that skips it; a right-hand side
//! that stays clear of the tail is the plain sparse solve. Where the
//! tail starts ([`TailRule`])
//! **cannot change a result**: with the tail at any column, or absent,
//! every solve returns the same bytes — `tests/build_determinism.rs`
//! holds the drivers to that.
//!
//! Supports lower (forward substitution) and upper (backward substitution)
//! triangles, with either an implicit unit diagonal or an explicitly stored
//! one. Entries on the "wrong" side of the diagonal are ignored, which lets
//! the factor `L` (stored without its diagonal) and the inverse `L⁻¹`
//! (stored with it) share this code.

use crate::{CscMatrix, Index, Result, SparseError};
use kdash_graph::EpochStamps;
use std::collections::BinaryHeap;

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

    /// Tail column `k`'s value, divided by its stored diagonal if there is
    /// one (a zero stays the zero it is).
    #[inline]
    fn pivoted(&self, x: &mut [f64], k: usize) -> f64 {
        let i = self.start + k;
        if let (true, Some(&d)) = (x[i] != 0.0, self.diag.get(k)) {
            x[i] /= d;
        }
        x[i]
    }

    /// Forward substitution through tail columns `start..upto`: each
    /// nonzero `x_i` is one AXPY down the whole of `x[i+1..n]`. Returns
    /// the multiply-subtracts made.
    pub(crate) fn sweep_lower(&self, x: &mut [f64], upto: usize) -> u64 {
        let mut flops = 0u64;
        for k in 0..upto.saturating_sub(self.start) {
            let xi = self.pivoted(x, k);
            if xi != 0.0 {
                let col = self.column(k);
                for (xr, &t) in x[self.start + k + 1..].iter_mut().zip(col) {
                    *xr -= t * xi;
                }
                flops += col.len() as u64;
            }
        }
        flops
    }

    /// Backward substitution through the whole tail, highest column
    /// first: each nonzero `x_i` is one AXPY up `x[start..i]`. The rows
    /// above the tail are the caller's.
    fn sweep_upper(&self, x: &mut [f64]) -> u64 {
        let mut flops = 0u64;
        for k in (0..self.columns()).rev() {
            let xi = self.pivoted(x, k);
            if xi != 0.0 {
                let col = self.column(k);
                for (xr, &t) in x[self.start..].iter_mut().zip(col) {
                    *xr -= t * xi;
                }
                flops += col.len() as u64;
            }
        }
        flops
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
    /// Visit marks: a position is in the current pattern iff marked.
    pub(crate) stamps: EpochStamps,
    /// Dense value accumulator, valid only on stamped positions.
    pub(crate) x: Vec<f64>,
    /// The current pattern: DFS postorder out of [`SolveWorkspace::reach`],
    /// in numeric (index) order once a solve has sorted it.
    pub(crate) topo: Vec<Index>,
    /// Suspended DFS frames, `(node, next-child cursor)`; the running
    /// frame lives in locals of [`SolveWorkspace::reach`].
    stack: Vec<(Index, usize)>,
    /// Pending-node queue for the value-driven truncated solve, holding
    /// indices encoded so the max-heap pops them in dependency order
    /// (negated for `Lower`, plain for `Upper`).
    pending: BinaryHeap<i64>,
    /// Multiply-subtracts made by the solves run on this workspace, and
    /// how many of them ran inside a dense tail.
    pub(crate) tally: SolveTally,
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

impl SolveWorkspace {
    /// Workspace for `n x n` solves.
    pub fn new(n: usize) -> Self {
        SolveWorkspace {
            n,
            stamps: EpochStamps::new(n),
            x: vec![0.0; n],
            topo: Vec::new(),
            stack: Vec::new(),
            pending: BinaryHeap::new(),
            tally: SolveTally::default(),
        }
    }

    /// Dimension this workspace serves.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The Gilbert–Peierls reach kernel: an iterative DFS from every seed
    /// over the graph `children` describes, leaving the reached set
    /// stamped, its `x` slots zeroed and listed in `topo`. Nodes at or
    /// past `head` are not entered, as seeds or as children (child slices
    /// are ascending, so the first such child ends its slice): they
    /// belong to a dense tail, which needs no pattern.
    ///
    /// `children` is asked for a node's child slice when the node is
    /// first reached and when the DFS returns to it.
    pub(crate) fn reach<'a>(
        &mut self,
        seeds: &[Index],
        head: usize,
        mut children: impl FnMut(Index) -> &'a [Index],
    ) {
        let mut resolve = |node: Index| {
            note_span_resolution();
            children(node)
        };
        self.stamps.advance();
        self.topo.clear();
        for &seed in seeds {
            debug_assert!((seed as usize) < self.n, "rhs index out of bounds");
            if seed as usize >= head || self.stamps.is_marked(seed as usize) {
                continue;
            }
            self.stamps.mark(seed as usize);
            self.x[seed as usize] = 0.0;
            let (mut node, mut span, mut cursor) = (seed, resolve(seed), 0usize);
            loop {
                match span.get(cursor) {
                    Some(&child) if (child as usize) < head => {
                        cursor += 1;
                        if !self.stamps.is_marked(child as usize) {
                            self.stamps.mark(child as usize);
                            self.x[child as usize] = 0.0;
                            self.stack.push((node, cursor));
                            (node, span, cursor) = (child, resolve(child), 0);
                        }
                    }
                    _ => {
                        self.topo.push(node);
                        let Some((parent, resume)) = self.stack.pop() else { break };
                        (node, span, cursor) = (parent, resolve(parent), resume);
                    }
                }
            }
        }
    }

    /// Solves `T x = b` for the triangle `view` reads and appends the
    /// sorted sparse solution to `out_idx` / `out_val` (cleared first); the
    /// one solve of the crate. `b_idx` / `b_val` is a sparse right-hand
    /// side (indices need not be sorted; duplicates accumulate).
    ///
    /// Under a drop tolerance `eps > 0` the solve truncates *during*
    /// substitution: once a solution entry `x_j` is final, if `|x_j| < eps`
    /// it is zeroed before it propagates to any dependent entry, and
    /// `|x_j|` is added to the returned dropped ℓ₁ mass. Killing the entry
    /// before propagation (rather than pruning afterwards) also skips all
    /// downstream work it would have caused, so truncation cuts solve time
    /// as well as output size.
    ///
    /// With `eps > 0` the solve runs *value-driven*: instead of the
    /// Gilbert–Peierls symbolic DFS (whose cost is the full exact reach of
    /// the pattern, truncated or not) it processes discovered positions
    /// from a heap in dependency order — ascending indices for `Lower`,
    /// descending for `Upper`. Substitution dependencies only flow in that
    /// direction and scattering a popped node discovers only nodes further
    /// along it, so pops are monotone and a popped value is final; a
    /// truncated entry's downstream subtree is therefore never *visited*,
    /// and the whole solve costs `O(s log s)` in the surviving pattern
    /// plus its one-hop frontier rather than the exact reach. Index order
    /// is also the numeric order of the exact solve (module docs), so the
    /// two strategies differ only in how they find the pattern: while no
    /// entry falls below `eps` they return the same bits.
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
        if view.dim() != self.n {
            return Err(SparseError::Malformed(format!(
                "workspace dimension {} does not match matrix dimension {}",
                self.n,
                view.dim()
            )));
        }
        out_idx.clear();
        out_val.clear();
        if eps > 0.0 {
            return self.solve_worklist(view, b_idx, b_val, eps, protect, out_idx, out_val);
        }

        // The tail needs no pattern: its slots are all live, and a
        // right-hand side entry inside it lands at once. For `Upper` the
        // tail is upstream of everything, so it is solved here — unless
        // the right-hand side stays clear of it, and then so does the
        // solve.
        let (n, tail) = (self.n, &view.tail);
        let lower = view.triangle == Triangle::Lower;
        let enters_tail = lower || b_idx.iter().any(|&r| r as usize >= tail.start());
        let head = if enters_tail { tail.start() } else { n };
        self.x[head..].fill(0.0);
        for (&r, &v) in b_idx.iter().zip(b_val) {
            if r as usize >= head {
                self.x[r as usize] += v;
            }
        }
        let upstream_tail = !lower && head < n;
        let upstream = if upstream_tail { tail.sweep_upper(&mut self.x) } else { 0 };

        // Symbolic phase: the reach of the right-hand side within the
        // head. Below an `Upper` tail there is none: a hub's solution
        // fills most of the head, so every head column takes its turn,
        // and those the solve never touches hold the zero that skips them.
        if upstream_tail {
            self.x[..head].fill(0.0);
            self.topo.clear();
            self.topo.extend((0..head as Index).rev());
        } else {
            self.reach(b_idx, head, |j| {
                let (start, end, _) = view.column(j);
                &view.rows[start..end]
            });
            self.topo.sort_unstable();
            if !lower {
                self.topo.reverse();
            }
        }

        // Scatter the rest of the right-hand side (the DFS has zeroed
        // every pattern slot), then what the tail's columns hold above it.
        for (&r, &v) in b_idx.iter().zip(b_val) {
            if (r as usize) < head {
                self.x[r as usize] += v;
            }
        }
        let mut head_flops = 0u64;
        if !lower {
            for (i, &(start, end)) in (head..n).zip(&tail.head_rows).rev() {
                let xi = self.x[i];
                if xi != 0.0 {
                    for (&r, &v) in view.rows[start..end].iter().zip(&view.vals[start..end]) {
                        self.x[r as usize] -= v * xi;
                    }
                    head_flops += (end - start) as u64;
                }
            }
        }

        // Numeric phase over the head, in index order (module docs).
        for &j in &self.topo {
            let mut xj = self.x[j as usize];
            if upstream_tail && xj == 0.0 {
                continue; // not in the pattern, or cancelled: nothing to do
            }
            let (start, end, diag) = view.column(j);
            if !view.unit_diag {
                if diag == 0.0 {
                    return Err(SparseError::SingularPivot { column: j as usize, value: 0.0 });
                }
                xj /= diag;
                self.x[j as usize] = xj;
            }
            if xj != 0.0 {
                for (&i, &v) in view.rows[start..end].iter().zip(&view.vals[start..end]) {
                    self.x[i as usize] -= v * xj;
                }
                head_flops += (end - start) as u64;
            }
        }
        let downstream = if lower { tail.sweep_lower(&mut self.x, n) } else { 0 };
        self.tally.count(head_flops, upstream + downstream);

        // Gather in index order; drop exact zeros (cancellation).
        let nonzero = |j: &Index| self.x[*j as usize] != 0.0;
        if lower {
            out_idx.extend(self.topo.iter().copied().filter(nonzero));
        } else {
            out_idx.extend(self.topo.iter().rev().copied().filter(nonzero));
        }
        out_idx.extend((head as Index..n as Index).filter(nonzero));
        out_val.extend(out_idx.iter().map(|&j| self.x[j as usize]));
        Ok(0.0)
    }

    /// The `eps > 0` engine of [`SolveWorkspace::solve_view`]:
    /// index-ordered substitution over a pending-node heap. A position is
    /// final when popped (see its doc for the monotonicity argument), so
    /// truncation prunes discovery itself — the symbolic cost of the exact
    /// reach, which the DFS pays regardless of ε, never arises. This is what makes sparsified builds tractable on graphs
    /// whose *exact* inverses are the memory/time wall.
    #[allow(clippy::too_many_arguments)] // mirrors the mathematical signature
    fn solve_worklist(
        &mut self,
        view: &FactorView,
        b_idx: &[Index],
        b_val: &[f64],
        eps: f64,
        protect: Option<Index>,
        out_idx: &mut Vec<Index>,
        out_val: &mut Vec<f64>,
    ) -> Result<f64> {
        self.stamps.advance();
        // Drained fully on success; an early error (singular pivot) can
        // leave residue behind, so clear defensively.
        self.pending.clear();
        // Encode so the max-heap pops in dependency order: ascending
        // indices for Lower, descending for Upper.
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
            debug_assert!((r as usize) < self.n, "rhs index out of bounds");
            if self.stamps.is_marked(r as usize) {
                self.x[r as usize] += v;
            } else {
                self.stamps.mark(r as usize);
                self.x[r as usize] = v;
                self.pending.push(enc(r));
            }
        }
        let mut dropped = 0.0f64;
        while let Some(key) = self.pending.pop() {
            let j = dec(key);
            let (start, end, diag) = view.column(j);
            let mut xj = self.x[j as usize];
            if !view.unit_diag {
                if diag == 0.0 {
                    return Err(SparseError::SingularPivot { column: j as usize, value: 0.0 });
                }
                xj /= diag;
            }
            if xj == 0.0 {
                continue; // exact cancellation: not stored, nothing propagates
            }
            if xj.abs() < eps && protect != Some(j) {
                dropped += xj.abs();
                continue; // truncated: the downstream subtree is never discovered
            }
            out_idx.push(j);
            out_val.push(xj);
            self.tally.count((end - start) as u64, 0);
            for (&i, &v) in view.rows[start..end].iter().zip(&view.vals[start..end]) {
                if self.stamps.is_marked(i as usize) {
                    self.x[i as usize] -= v * xj;
                } else {
                    self.stamps.mark(i as usize);
                    self.x[i as usize] = -v * xj;
                    self.pending.push(enc(i));
                }
            }
        }
        if triangle == Triangle::Upper {
            // Upper pops descend; callers get ascending indices either way.
            out_idx.reverse();
            out_val.reverse();
        }
        Ok(dropped)
    }
}

#[cfg(not(test))]
fn note_span_resolution() {}

// Child-span resolutions made by `SolveWorkspace::reach` on this thread:
// the count the regression tests hold to `2 · |pattern|` per solve, so
// that per-edge re-resolution cannot come back unnoticed.
#[cfg(test)]
thread_local! {
    static SPAN_RESOLUTIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn note_span_resolution() {
    SPAN_RESOLUTIONS.with(|c| c.set(c.get() + 1));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The per-edge DFS, kept as the oracle: same visiting order as
    /// [`SolveWorkspace::reach`] without a tail, but the child slice is
    /// re-resolved on every edge step.
    pub(crate) fn reference_reach<'a>(
        ws: &mut SolveWorkspace,
        seeds: &[Index],
        children: impl Fn(Index) -> &'a [Index],
    ) {
        ws.stamps.advance();
        ws.topo.clear();
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
                    ws.topo.push(node);
                    stack.pop();
                }
            }
        }
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
        reference_reach(&mut ws, b_idx, |j| strict(j).0);
        for (&r, &v) in b_idx.iter().zip(b_val) {
            ws.x[r as usize] += v;
        }
        let mut idx = ws.topo.clone();
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

    /// Child spans the reach kernel resolved on this thread since the
    /// last call.
    pub(crate) fn take_span_resolutions() -> usize {
        SPAN_RESOLUTIONS.with(|c| c.replace(0))
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
    /// structural tail and tails at other columns, and never resolves more
    /// than two child spans per pattern node.
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
                        take_span_resolutions();
                        let dropped =
                            ws.solve_view(view, &b_idx, &b_val, 0.0, None, &mut oi, &mut ov);
                        assert_eq!(dropped, Ok(0.0), "{tag}");
                        assert!(take_span_resolutions() <= 2 * ws.topo.len(), "{tag}: resolutions");
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
        // eps = 1e-300 routes the value-driven worklist engine, but no
        // entry of these well-scaled systems can fall below it — and both
        // engines substitute in index order, so the result must carry the
        // DFS solve's pattern and value bits.
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
}
