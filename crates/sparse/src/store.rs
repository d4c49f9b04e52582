//! The proximity read path: one store, one row encoding, one kernel.
//!
//! [`ProximityStore`] is what the query engine holds for `U⁻¹`: its rows
//! in the bandwidth-lean blocked encoding (`u16` column deltas against
//! aligned `u32` block anchors, `blocked.rs`), plus what is derived
//! from them — the largest row's entry count, and the column sums `1ᵀU⁻¹`
//! the search's stop rule takes a query's mass from. Both are filled where
//! a store comes into being and nowhere else. A row's [`RowStat`] (entry
//! count and column span) is no table: the encoding holds all three
//! facts, and [`ProximityStore::row_stat`] reads them off it. (The file
//! format still persists the stats beside the rows, written from and
//! checked against the encoding, as a redundancy check.)
//!
//! One type, two files. This one holds the type, with its arrays private:
//! every function that sets them is here, beside the gather's `unsafe`
//! block that relies on what they hold, and so is everything that reads
//! them — decoder, gather, prefetch hooks, byte accounting. `blocked.rs`
//! holds the format and the algorithms the constructors run on it: the
//! encoder, the validation of raw arrays and the splice's row merge.
//!
//! A store is immutable. The dynamic engine's one way to change `U⁻¹` is
//! [`ProximityStore::splice_columns`]: re-solved columns in (the form the
//! solver emits and `L⁻¹` takes as is), the next store out, column sums
//! refreshed for exactly the columns replaced. How rows are encoded stays
//! this crate's business.
//!
//! Every gather funnels through [`ProximityStore::row_dot_dense`]: a row
//! hands its runs to the kernel as segments, and the lanes carry across
//! run boundaries ([`crate::kernel`]), so the sum is the one the same row
//! in CSR form gives under the same kernel — pinned against a CSR
//! reference by `tests/kernel_equivalence.rs`. Byte-traffic and
//! per-kernel row counts accumulate into the caller's [`GatherCounters`].

use crate::blocked::{self, EncodedRows, RowSlices};
use crate::csc::validate_column_updates;
use crate::kernel::{gather_lanes, Segment};
use crate::{
    ColumnUpdate, CscMatrix, CsrMatrix, GatherCounters, GatherScratch, Index, ResolvedKernel,
    Result, ScatteredColumn, SparseError,
};

/// The row encoding of a [`ProximityStore`]: the blocked one is the only
/// one. The type and the parameter of [`ProximityStore::from_csr`] stay
/// only because `benchmark/` passes `KdashIndex::layout()` through to that
/// constructor, and a change that is not a `benchmark` change may not edit
/// the benchmark. A later `benchmark`-kind change can drop both, with
/// [`GatherScratch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowLayout {
    /// Block-compressed indices (`blocked.rs`): `u16` deltas against
    /// aligned `u32` block anchors.
    Blocked,
}

/// A row's stored-entry count and column span, as
/// [`ProximityStore::row_stat`] reads them off the encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowStat {
    /// Stored entries of the row.
    pub nnz: u32,
    /// Smallest column (0 for an empty row).
    pub first: u32,
    /// Largest column (0 for an empty row).
    pub last: u32,
}

/// Row-major proximity storage behind the query engine (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ProximityStore {
    nrows: usize,
    ncols: usize,
    /// Per-row nonzero span: `row_ptr[r]..row_ptr[r + 1]` into
    /// `deltas`/`values`.
    row_ptr: Vec<usize>,
    /// Per-row run span: `run_ptr[r]..run_ptr[r + 1]` into
    /// `run_base`/`run_end`.
    run_ptr: Vec<usize>,
    /// Aligned block anchor of each run (a multiple of
    /// [`BLOCK_COLS`](crate::BLOCK_COLS)).
    run_base: Vec<u32>,
    /// Exclusive end of each run as a *global* nonzero offset. The run's
    /// start is the previous run's end (or the row's `row_ptr` entry).
    run_end: Vec<u32>,
    /// Column offsets within the run's block: `col = base + delta`.
    deltas: Vec<u16>,
    /// Values, in the order of the CSR matrix encoded.
    values: Vec<f64>,
    /// Largest row's stored-entry count.
    max_row_nnz: usize,
    /// `1ᵀ A`: per column, its stored values added by ascending row from
    /// `+0.0` ([`column_sums`](Self::column_sums)).
    col_sums: Vec<f64>,
}

impl ProximityStore {
    /// Builds the store from a CSR matrix, re-encoding its column
    /// indices. Values move over untouched (same array order). `_layout`
    /// is unused (see [`RowLayout`]). Fails when the matrix is too large
    /// for the run offsets (`nnz ≥ 2^32`, far beyond anything this system
    /// builds).
    pub fn from_csr(csr: CsrMatrix, _layout: RowLayout) -> Result<ProximityStore> {
        let (nrows, ncols) = (csr.nrows(), csr.ncols());
        Ok(ProximityStore::assemble(nrows, ncols, blocked::encode(csr)?, None))
    }

    /// Builds the store from its raw arrays (the persistence load path),
    /// re-validating every structural invariant: rejects anything that
    /// would make a decode read out of bounds or produce non-ascending
    /// columns, and any non-finite value.
    #[allow(clippy::too_many_arguments)] // one argument per stored array
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        run_ptr: Vec<usize>,
        run_base: Vec<u32>,
        run_end: Vec<u32>,
        deltas: Vec<u16>,
        values: Vec<f64>,
    ) -> Result<ProximityStore> {
        blocked::validate(
            nrows,
            ncols,
            (&row_ptr, &run_ptr, &run_base, &run_end, &deltas, &values),
        )?;
        let rows = (row_ptr, run_ptr, run_base, run_end, deltas, values);
        Ok(ProximityStore::assemble(nrows, ncols, rows, None))
    }

    /// Runs the checks of [`from_raw_parts`](Self::from_raw_parts) on this
    /// store's own arrays, then re-derives its derived values with the
    /// code the constructors fill them with and compares them bit for bit:
    /// the widest row, and every column sum (a splice refreshes only the
    /// columns it replaced, and a stale sum skews the mass the stop rule
    /// reads). The structural audit of an index runs this on its `U⁻¹`.
    pub fn check(&self) -> Result<()> {
        blocked::validate(self.nrows, self.ncols, self.raw())?;
        let malformed = |detail: String| Err(SparseError::Malformed(detail));
        let widest = self.widest_row();
        if widest != self.max_row_nnz {
            return malformed(format!(
                "cached max_row_nnz {} but widest row has {widest}",
                self.max_row_nnz
            ));
        }
        let (stored, sums) = (&self.col_sums, self.sum_columns());
        if let Some(j) = stored.iter().zip(&sums).position(|(s, e)| s.to_bits() != e.to_bits()) {
            return malformed(format!(
                "column sum {j}: stored {} recomputed {}",
                stored[j], sums[j]
            ));
        }
        if stored.len() != sums.len() {
            return malformed(format!("{} column sums for {} columns", stored.len(), sums.len()));
        }
        Ok(())
    }

    /// The one place a store comes into being, and the one place its
    /// derived values are filled: off the rows, unless a splice hands over
    /// the column sums it refreshed. Its callers hand it arrays that keep
    /// the decoding contract: encoded from a `CsrMatrix`, validated, or
    /// spliced from validated updates.
    fn assemble(
        nrows: usize,
        ncols: usize,
        rows: EncodedRows,
        col_sums: Option<Vec<f64>>,
    ) -> ProximityStore {
        let (row_ptr, run_ptr, run_base, run_end, deltas, values) = rows;
        let mut store = ProximityStore {
            nrows,
            ncols,
            row_ptr,
            run_ptr,
            run_base,
            run_end,
            deltas,
            values,
            max_row_nnz: 0,
            col_sums: Vec::new(),
        };
        store.col_sums = col_sums.unwrap_or_else(|| store.sum_columns());
        store.max_row_nnz = store.widest_row();
        store
    }

    /// The encoding's raw arrays `(row_ptr, run_ptr, run_base, run_end,
    /// deltas, values)`, for the file format.
    pub fn raw(&self) -> RowSlices<'_> {
        (&self.row_ptr, &self.run_ptr, &self.run_base, &self.run_end, &self.deltas, &self.values)
    }

    /// Replaces whole columns — **the** way `U⁻¹` changes, the splice
    /// stage of the dynamic-update engine — returning the next store and
    /// how many rows it re-encoded (those holding an entry in an updated
    /// column before or after). Only those rows go through the encoder;
    /// the rest are copied verbatim (`blocked::splice_rows`). The result
    /// equals [`from_csr`](Self::from_csr) of the fully spliced matrix,
    /// arrays and derived values alike (pinned by the store tests and, end
    /// to end, by `tests/dynamic_equivalence.rs`): column sums are
    /// refreshed for the replaced columns. `updates` must be sorted by
    /// strictly increasing column, each with strictly increasing in-bounds
    /// rows and finite values — the contract of
    /// [`CscMatrix::splice_columns`].
    pub fn splice_columns(&self, updates: &[ColumnUpdate]) -> Result<(ProximityStore, usize)> {
        validate_column_updates(self.nrows, self.ncols, updates)?;
        let (Some(first), Some(last)) = (updates.first(), updates.last()) else {
            return Ok((self.clone(), 0));
        };
        let (rows, reencoded) = blocked::splice_rows(self, updates, first.col..=last.col)?;
        let mut col_sums = self.col_sums.clone();
        for u in updates {
            col_sums[u.col as usize] = u.vals.iter().fold(0.0, |sum, &v| sum + v);
        }
        Ok((ProximityStore::assemble(self.nrows, self.ncols, rows, Some(col_sums)), reencoded))
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.deltas.len()
    }

    /// Largest row's stored-entry count.
    pub fn max_row_nnz(&self) -> usize {
        self.max_row_nnz
    }

    /// The largest row's stored-entry count, counted off the rows.
    fn widest_row(&self) -> usize {
        (0..self.nrows as Index).map(|r| self.row_nnz(r)).max().unwrap_or(0)
    }

    /// Total number of runs across all rows.
    pub fn num_runs(&self) -> usize {
        self.run_base.len()
    }

    /// Runs of row `r`.
    #[inline]
    pub fn row_runs(&self, r: Index) -> usize {
        let r = r as usize;
        self.run_ptr[r + 1] - self.run_ptr[r]
    }

    /// Stored entries of row `r`.
    #[inline]
    fn row_nnz(&self, r: Index) -> usize {
        let r = r as usize;
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Row `r`'s entry count and column span, read off the encoding
    /// (all zero for an empty row).
    #[inline]
    pub fn row_stat(&self, r: Index) -> RowStat {
        let r = r as usize;
        let (start, end) = (self.row_ptr[r], self.row_ptr[r + 1]);
        if start == end {
            return RowStat::default();
        }
        RowStat {
            nnz: (end - start) as u32,
            first: self.run_base[self.run_ptr[r]] + self.deltas[start] as u32,
            last: self.run_base[self.run_ptr[r + 1] - 1] + self.deltas[end - 1] as u32,
        }
    }

    /// Values of row `r` (CSR order).
    #[inline]
    pub(crate) fn row_values(&self, r: Index) -> &[f64] {
        let r = r as usize;
        &self.values[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Row `r` as its runs in order: one [`Segment`] of `u16` deltas
    /// (against the run's block anchor) and values per run.
    #[inline]
    fn row_segments(&self, r: Index) -> impl Iterator<Item = Segment<'_>> {
        let r = r as usize;
        let mut start = self.row_ptr[r];
        (self.run_ptr[r]..self.run_ptr[r + 1]).map(move |k| {
            let span = start..self.run_end[k] as usize;
            start = span.end;
            Segment {
                base: self.run_base[k] as usize,
                offs: &self.deltas[span.clone()],
                vals: &self.values[span],
            }
        })
    }

    /// Decodes row `r`'s column indices into `out` (cleared first). With
    /// `out` at capacity ≥ the largest row, this allocates nothing.
    #[inline]
    pub(crate) fn decode_row_into(&self, r: Index, out: &mut Vec<u32>) {
        out.clear();
        for seg in self.row_segments(r) {
            out.extend(seg.offs.iter().map(|&d| seg.base as u32 + d as u32));
        }
    }

    /// Index bytes a gather streams for row `r`: 2 per delta + 8 per run
    /// header. (Flat CSR pays 4 per nonzero.)
    #[inline]
    pub fn row_index_bytes(&self, r: Index) -> usize {
        2 * self.row_nnz(r) + 8 * self.row_runs(r)
    }

    /// Index bytes of the whole store (the delta and run-header arrays
    /// only — the quantity the encoding shrinks against flat CSR's 4 bytes
    /// per entry; row pointers and values are what CSR holds).
    pub fn index_bytes(&self) -> usize {
        2 * self.deltas.len() + 8 * self.run_base.len()
    }

    /// Heap footprint of the encoding's arrays in bytes (the derived
    /// column sums are not counted).
    pub fn heap_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.run_ptr.len() * std::mem::size_of::<usize>()
            + self.run_base.len() * 4
            + self.run_end.len() * 4
            + self.deltas.len() * 2
            + self.values.len() * 8
    }

    /// Rebuilds the flat CSR matrix (exact inverse of
    /// [`from_csr`](Self::from_csr), values bit-identical).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut col_idx = Vec::with_capacity(self.deltas.len());
        let mut row = Vec::with_capacity(self.max_row_nnz);
        for r in 0..self.nrows as Index {
            self.decode_row_into(r, &mut row);
            col_idx.extend_from_slice(&row);
        }
        CsrMatrix::from_raw_parts(
            self.nrows,
            self.ncols,
            self.row_ptr.clone(),
            col_idx,
            self.values.clone(),
        )
        .expect("a valid blocked matrix decodes to a valid CSR matrix")
    }

    /// Converts to CSC form.
    pub fn to_csc(&self) -> CscMatrix {
        self.to_csr().to_csc()
    }

    /// **The** proximity gather: row `r` against the scattered query
    /// column, [`row_dot_dense`](Self::row_dot_dense) over its dense
    /// vector. `_scratch` is unused (see [`GatherScratch`]).
    #[inline]
    pub fn row_gather(
        &self,
        kernel: ResolvedKernel,
        r: Index,
        buf: &ScatteredColumn,
        _scratch: &mut GatherScratch,
        counters: &mut GatherCounters,
    ) -> f64 {
        self.row_dot_dense(kernel, r, buf.as_slice(), counters)
    }

    /// Row `r` against the dense vector `y` through the resolved kernel:
    /// every stored entry multiplies `y[col]` unconditionally. `y` is a
    /// scattered query column on the dense tier and a correction's
    /// `L̃⁻¹ r` on the certified one, so every row either tier reads runs
    /// the same body. Accumulates into `counters` the row's index bytes,
    /// 8 value bytes per stored entry (every kernel multiplies every
    /// entry), its stored entries and its kernel class.
    #[inline]
    pub fn row_dot_dense(
        &self,
        kernel: ResolvedKernel,
        r: Index,
        y: &[f64],
        counters: &mut GatherCounters,
    ) -> f64 {
        assert_eq!(y.len(), self.ncols(), "vector dimension must match the store");
        let nnz = self.row_nnz(r);
        counters.index_bytes += self.row_index_bytes(r);
        counters.value_bytes += 8 * nnz;
        counters.nnz += nnz;
        let Some(body) = kernel.lanes() else {
            counters.rows_scalar += 1;
            return self.row_dot_reference(r, y);
        };
        counters.rows_wide += 1;
        // SAFETY: every column a row decodes to is `< ncols` — the arrays
        // are private and set only in `assemble`, whose callers encode a
        // `CsrMatrix` (`CsrMatrix::from_raw_parts` checks its columns),
        // validate raw arrays (`blocked::validate`) or splice updates
        // `validate_column_updates` checked — and `ncols == y.len()` was
        // asserted just above.
        unsafe { gather_lanes(body, self.row_segments(r), y) }
    }

    /// Dot product of row `r` with a dense vector, one accumulator in
    /// storage order (bit-identical to [`CsrMatrix::row_dot_dense`] on the
    /// same row): the reference kernel's order. Over a scattered query
    /// column unmatched positions add `v × 0.0`, which leaves the sum's
    /// bits where the merge join's are.
    #[inline]
    pub(crate) fn row_dot_reference(&self, r: Index, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.ncols);
        let mut acc = 0.0;
        for seg in self.row_segments(r) {
            for (&d, &v) in seg.offs.iter().zip(seg.vals) {
                acc += v * x[seg.base + d as usize];
            }
        }
        acc
    }

    /// Two-pointer merge join of row `r` against a sorted sparse vector,
    /// decoding columns on the fly — the reference kernel the eager
    /// oracles run on: same matching pairs in the same order as
    /// [`CsrMatrix::row_dot_sparse`], hence bit-identical.
    pub fn row_dot_sparse(&self, r: Index, idx: &[Index], val: &[f64]) -> f64 {
        debug_assert_eq!(idx.len(), val.len());
        let mut acc = 0.0;
        let mut b = 0usize;
        'outer: for seg in self.row_segments(r) {
            for (&d, &v) in seg.offs.iter().zip(seg.vals) {
                let c = seg.base as u32 + d as u32;
                while b < idx.len() && idx[b] < c {
                    b += 1;
                }
                if b >= idx.len() {
                    break 'outer;
                }
                if idx[b] == c {
                    acc += v * val[b];
                    b += 1;
                }
            }
        }
        acc
    }

    /// Dense `y = A · x` (row-major traversal, one accumulator per row).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "x length mismatch");
        (0..self.nrows as Index).map(|r| self.row_dot_reference(r, x)).collect()
    }

    /// `1ᵀ A`: the sum of every column's stored values. Column `j` adds
    /// its entries by ascending row from `+0.0` — the order a CSC column
    /// summed top to bottom adds in, which is how a splice re-sums a
    /// replaced column and stays bit-identical to a rebuild.
    pub fn column_sums(&self) -> &[f64] {
        &self.col_sums
    }

    /// The column sums, one streaming pass in storage order (see
    /// [`column_sums`](Self::column_sums)).
    fn sum_columns(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.ncols];
        for r in 0..self.nrows as Index {
            for seg in self.row_segments(r) {
                for (&d, &v) in seg.offs.iter().zip(seg.vals) {
                    sums[seg.base + d as usize] += v;
                }
            }
        }
        sums
    }

    /// Issues software prefetches for the front of row `r`'s delta and
    /// value spans (a few cache lines each — enough to hide the initial
    /// DRAM latency; the hardware prefetcher streams the rest) — the
    /// candidate-batching hook: the search loop calls this a small block
    /// of candidates ahead, restoring memory-level parallelism on
    /// DRAM-resident rows. A no-op on architectures without a prefetch
    /// hint.
    #[inline]
    pub fn prefetch_row(&self, r: Index) {
        let r = r as usize;
        let (start, end) = (self.row_ptr[r], self.row_ptr[r + 1]);
        if start >= end {
            return;
        }
        prefetch_span(&self.deltas[start..end], 2);
        prefetch_span(&self.values[start..end], 2);
        prefetch_span(&self.run_base[self.run_ptr[r]..self.run_ptr[r + 1]], 1);
    }
}

/// Prefetches up to `lines` 64-byte cache lines from the start of `span`.
#[inline]
fn prefetch_span<T>(span: &[T], lines: usize) {
    let bytes = std::mem::size_of_val(span);
    let base = span.as_ptr() as *const u8;
    let mut offset = 0usize;
    for _ in 0..lines {
        if offset >= bytes {
            break;
        }
        prefetch_read(unsafe { base.add(offset) });
        offset += 64;
    }
}

/// One read-prefetch hint. Safe to call with any address on x86-64
/// (prefetch never faults); a no-op elsewhere.
#[inline]
fn prefetch_read(ptr: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: _mm_prefetch is a hint, does not fault, and SSE is baseline
    // on x86-64.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_csr(nrows: usize, ncols: usize, density: f64, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trips = Vec::new();
        for r in 0..nrows as Index {
            for c in 0..ncols as Index {
                if rng.gen_bool(density) {
                    trips.push((r, c, rng.gen_range(-2.0..2.0)));
                }
            }
        }
        CsrMatrix::from_csc(&CscMatrix::from_triplets(nrows, ncols, &trips).unwrap())
    }

    fn store_of(csr: CsrMatrix) -> ProximityStore {
        ProximityStore::from_csr(csr, RowLayout::Blocked).unwrap()
    }

    fn loaded_column(n: usize, density: f64, seed: u64) -> ScatteredColumn {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut idx, mut val) = (Vec::new(), Vec::new());
        for i in 0..n as Index {
            if rng.gen_bool(density) {
                idx.push(i);
                val.push(rng.gen_range(-1.0..1.0));
            }
        }
        let mut buf = ScatteredColumn::new(n);
        buf.load(&idx, &val);
        buf
    }

    /// The four-lane order written out over a CSR row: lane `j` sums the
    /// row positions `≡ j (mod 4)` in order from `+0.0`, and the lanes
    /// reduce as `(a0 + a2) + (a1 + a3)`.
    fn four_lanes(cols: &[Index], vals: &[f64], y: &[f64]) -> f64 {
        let mut lanes = [0.0f64; 4];
        for (i, (&c, &v)) in cols.iter().zip(vals).enumerate() {
            lanes[i % 4] += v * y[c as usize];
        }
        (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
    }

    #[test]
    fn column_sums_add_each_csc_column_top_to_bottom() {
        for seed in 0..4u64 {
            let csr = random_csr(40, 30, 0.3, seed);
            let csc = csr.to_csc();
            let expect: Vec<u64> = (0..30 as Index)
                .map(|j| csc.col(j).1.iter().fold(0.0f64, |acc, &v| acc + v).to_bits())
                .collect();
            let store = store_of(csr);
            let got: Vec<u64> = store.column_sums().iter().map(|s| s.to_bits()).collect();
            assert_eq!(got, expect, "seed {seed}");
        }
    }

    /// `check` re-derives what `assemble` filled in: a fresh store passes,
    /// and a stale column sum or widest-row count is refused, by name.
    #[test]
    fn check_refuses_stale_derived_values() {
        let store = store_of(random_csr(12, 10, 0.4, 3));
        assert_eq!(store.check(), Ok(()));
        let mut stale = store.clone();
        stale.col_sums[2] += 0.5;
        match stale.check() {
            Err(SparseError::Malformed(detail)) => {
                assert!(detail.contains("column sum 2:"), "{detail}")
            }
            other => panic!("a stale column sum must be refused, got {other:?}"),
        }
        let mut stale = store;
        stale.max_row_nnz += 1;
        match stale.check() {
            Err(SparseError::Malformed(detail)) => {
                assert!(detail.contains("max_row_nnz"), "{detail}")
            }
            other => panic!("a stale widest-row count must be refused, got {other:?}"),
        }
    }

    /// The blocked rows against the same rows in CSR form, bit for bit:
    /// the scalar kernel is the one-accumulator order, every lane body the
    /// four-lane order.
    #[test]
    fn layouts_are_bit_identical_under_every_kernel() {
        for seed in 0..6u64 {
            let csr = random_csr(24, 48, 0.35, seed);
            let store = store_of(csr.clone());
            let buf = loaded_column(48, 0.5, seed + 100);
            let y = buf.as_slice();
            let kernels = std::iter::once(ResolvedKernel::reference());
            for resolved in kernels.chain(ResolvedKernel::host_bodies()) {
                for r in 0..24 as Index {
                    let (cols, vals) = csr.row(r);
                    let want = match resolved.lanes() {
                        None => csr.row_dot_dense(r, y),
                        Some(_) => four_lanes(cols, vals, y),
                    };
                    let mut counters = GatherCounters::default();
                    let got =
                        store.row_gather(resolved, r, &buf, &mut GatherScratch, &mut counters);
                    let kernel = resolved.name();
                    assert_eq!(got.to_bits(), want.to_bits(), "seed {seed} {kernel} row {r}");
                }
            }
        }
    }

    #[test]
    fn counters_account_for_every_row() {
        let store = store_of(random_csr(20, 40, 0.4, 2));
        let buf = loaded_column(40, 0.5, 7);
        let mut counters = GatherCounters::default();
        for r in 0..20 as Index {
            store.row_gather(ResolvedKernel::default(), r, &buf, &mut GatherScratch, &mut counters);
        }
        assert_eq!((counters.rows_scalar, counters.rows_wide), (0, 20));
        let expect_index: usize = (0..20).map(|r| store.row_index_bytes(r)).sum();
        assert_eq!(counters.index_bytes, expect_index);
        assert_eq!(counters.nnz, store.nnz());
        assert_eq!(counters.value_bytes, 8 * store.nnz(), "every stored entry is multiplied");
        counters.reset();
        assert_eq!(counters, GatherCounters::default());
    }

    fn column(col: Index, entries: &[(Index, f64)]) -> ColumnUpdate {
        let (rows, vals) = entries.iter().copied().unzip();
        ColumnUpdate { col, rows, vals }
    }

    /// Every row's `(nnz, first, last)` as `row_stat` reads it off the
    /// encoding, beside the same facts read off `to_csr()` (zeros for an
    /// empty row).
    fn stats_and_csr_spans(store: &ProximityStore) -> (Vec<RowStat>, Vec<RowStat>) {
        let csr = store.to_csr();
        let rows = 0..store.nrows() as Index;
        let spans = rows.clone().map(|r| match csr.row(r).0 {
            [] => RowStat::default(),
            cols => RowStat { nnz: cols.len() as u32, first: cols[0], last: cols[cols.len() - 1] },
        });
        (rows.map(|r| store.row_stat(r)).collect(), spans.collect())
    }

    /// The one splice contract: column updates in, and out comes the store
    /// `from_csr` builds off the spliced matrix — arrays, largest row and
    /// column sums — with the touched rows counted. Row stats, read off
    /// the encoding, describe the CSR rows before and after.
    #[test]
    fn splice_columns_equals_from_csr_of_the_spliced_matrix() {
        // row 0: {0, 3, 100 000}  gains column 2, loses the other two updated ones
        // row 1: {2}              loses every entry
        // row 2: {}               gains its first
        // row 3: {1, 5}           gains column 100 000: a second `u16` run
        // row 4: {0, 5}           spans updated columns, holds none of them
        // row 5: {120 000}        lies past them
        let entries = [
            (0, 0, 1.0), (0, 3, 2.0), (0, 100_000, 3.0), (1, 2, 4.0), (3, 1, 5.0),
            (3, 5, 6.0), (4, 0, 7.0), (4, 5, 8.0), (5, 120_000, 9.0),
        ];
        let old = CscMatrix::from_triplets(6, 140_000, &entries).unwrap();
        let updates = [
            column(2, &[(0, -1.5)]),
            column(3, &[]), // emptied
            column(4, &[(2, 0.25)]),
            column(100_000, &[(3, -0.75)]),
        ];
        for (updates, touched) in [(&updates[..], 4), (&[], 0)] {
            let rebuilt = CsrMatrix::from_csc(&old.splice_columns(updates).unwrap());
            let store = store_of(CsrMatrix::from_csc(&old));
            let (spliced, reencoded) = store.splice_columns(updates).unwrap();
            let expect = store_of(rebuilt);
            assert_eq!(spliced, expect);
            let emptied = if touched == 0 { 2 } else { 1 };
            for (when, s, empty_row) in [("before", &store, 2), ("after", &spliced, emptied)] {
                let (stats, spans) = stats_and_csr_spans(s);
                assert_eq!(stats, spans, "row stats {when} the splice");
                assert_eq!(stats[empty_row], RowStat::default(), "an empty row {when}");
            }
            assert_eq!(spliced.max_row_nnz(), expect.max_row_nnz());
            let bits = |s: &ProximityStore| -> Vec<u64> {
                s.column_sums().iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&spliced), bits(&expect));
            assert_eq!(reencoded, touched, "rows re-encoded");
            if touched == 4 {
                assert_eq!((spliced.row_runs(0), spliced.row_runs(3)), (1, 2));
            }
        }
    }

    #[test]
    fn splice_columns_refuses_what_the_shared_validator_refuses() {
        let store = store_of(random_csr(8, 12, 0.4, 1));
        let bad = [
            ("unsorted columns", vec![column(5, &[]), column(2, &[])]),
            ("row out of bounds", vec![column(0, &[(8, 1.0)])]),
            ("non-finite value", vec![column(0, &[(1, f64::NAN)])]),
            ("length mismatch", vec![ColumnUpdate { col: 0, rows: vec![0, 1], vals: vec![1.0] }]),
        ];
        for (what, updates) in &bad {
            let got = store.splice_columns(updates);
            assert!(matches!(got, Err(SparseError::Malformed(_))), "{what}");
        }
    }

    /// The merge join and the matrix-vector product of the blocked rows
    /// against the same rows in CSR form.
    #[test]
    fn merge_join_and_matvec_agree_across_layouts() {
        let csr = random_csr(18, 36, 0.3, 8);
        let store = store_of(csr.clone());
        let idx: Vec<Index> = (0..36).step_by(3).collect();
        let val: Vec<f64> = idx.iter().map(|&i| i as f64 * 0.25 - 2.0).collect();
        let dense: Vec<f64> = (0..36).map(|i| (i as f64).sin()).collect();
        for r in 0..18 as Index {
            assert_eq!(
                csr.row_dot_sparse(r, &idx, &val).to_bits(),
                store.row_dot_sparse(r, &idx, &val).to_bits()
            );
        }
        assert_eq!(csr.matvec(&dense), store.matvec(&dense));
    }
}
