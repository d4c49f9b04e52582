//! The proximity read path: one store, one row encoding, one kernel.
//!
//! [`ProximityStore`] is what the query engine holds for `U⁻¹`: the rows
//! in the bandwidth-lean [`BlockedCsr`] encoding, plus what is derived
//! from them — the largest row's entry count, and the column sums `1ᵀU⁻¹`
//! the search's stop rule takes a query's mass from. Both are filled
//! where a store is assembled and nowhere else. A row's [`RowStat`]
//! (entry count and column span) is no table: the encoding holds all
//! three facts, and [`ProximityStore::row_stat`] reads them off it. (The
//! file format still persists the stats beside the rows, written from
//! and checked against the encoding, as a redundancy check.)
//!
//! A store is immutable. The dynamic engine's one way to change `U⁻¹` is
//! [`ProximityStore::splice_columns`]: re-solved columns in (the form the
//! solver emits and `L⁻¹` takes as is), the next store out, column sums
//! refreshed for exactly the columns replaced. How rows are encoded stays
//! this module's business.
//!
//! Every gather funnels through [`ProximityStore::row_dot_dense`]: a row
//! hands its runs to the kernel as segments, and the lanes carry across
//! run boundaries ([`crate::kernel`]), so the sum is the one the same row
//! in CSR form gives under the same kernel — pinned against a CSR
//! reference by `tests/kernel_equivalence.rs`. Byte-traffic and
//! per-kernel row counts accumulate into the caller's [`GatherCounters`].

use crate::kernel::gather_lanes;
use crate::{
    BlockedCsr, ColumnUpdate, CscMatrix, CsrMatrix, GatherCounters, GatherScratch, Index,
    ResolvedKernel, Result, ScatteredColumn,
};

/// The row encoding of a [`ProximityStore`]: [`BlockedCsr`] is the only
/// one. The type and the parameter of [`ProximityStore::from_csr`] stay
/// only because `benchmark/` passes `KdashIndex::layout()` through to that
/// constructor, and a change that is not a `benchmark` change may not edit
/// the benchmark. A later `benchmark`-kind change can drop both, with
/// [`GatherScratch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowLayout {
    /// Block-compressed indices ([`BlockedCsr`]): `u16` deltas against
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
    rows: BlockedCsr,
    /// Largest row's stored-entry count.
    max_row_nnz: usize,
    /// `1ᵀ A`: per column, its stored values added by ascending row from
    /// `+0.0` ([`column_sums`](Self::column_sums)).
    col_sums: Vec<f64>,
}

impl ProximityStore {
    /// Builds the store from a CSR matrix, re-encoding its column indices.
    /// Values move over untouched. `_layout` is unused (see
    /// [`RowLayout`]).
    pub fn from_csr(csr: CsrMatrix, _layout: RowLayout) -> Result<ProximityStore> {
        Ok(ProximityStore::from_blocked(BlockedCsr::from_csr(csr)?))
    }

    /// Wraps an already-validated blocked matrix (the persistence load
    /// path).
    pub fn from_blocked(blocked: BlockedCsr) -> ProximityStore {
        ProximityStore::assemble(blocked, None)
    }

    /// The one place a store comes into being, and the one place its
    /// derived values are filled: off `rows`, unless a splice hands over
    /// the column sums it refreshed.
    fn assemble(rows: BlockedCsr, col_sums: Option<Vec<f64>>) -> ProximityStore {
        let col_sums = col_sums.unwrap_or_else(|| sum_columns(&rows));
        let max_row_nnz = (0..rows.nrows() as Index).map(|r| rows.row_nnz(r)).max().unwrap_or(0);
        ProximityStore { rows, max_row_nnz, col_sums }
    }

    /// The blocked matrix.
    pub fn as_blocked(&self) -> &BlockedCsr {
        &self.rows
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows.nrows()
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.rows.ncols()
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rows.nnz()
    }

    /// Row `r`'s entry count and column span, read off the encoding
    /// (all zero for an empty row).
    #[inline]
    pub fn row_stat(&self, r: Index) -> RowStat {
        let rows = &self.rows;
        match (rows.row_first_col(r), rows.row_last_col(r)) {
            (Some(first), Some(last)) => RowStat { nnz: rows.row_nnz(r) as u32, first, last },
            _ => RowStat::default(),
        }
    }

    /// Largest row's stored-entry count.
    pub fn max_row_nnz(&self) -> usize {
        self.max_row_nnz
    }

    /// Index bytes a gather streams for row `r`.
    #[inline]
    pub fn row_index_bytes(&self, r: Index) -> usize {
        self.rows.row_index_bytes(r)
    }

    /// Index bytes of the whole store (the column-index encoding only —
    /// the quantity the blocked encoding shrinks against flat CSR's
    /// 4 bytes per entry; row pointers and values are what CSR holds).
    pub fn index_bytes(&self) -> usize {
        self.rows.index_bytes()
    }

    /// Heap footprint of the stored arrays in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes()
    }

    /// Rebuilds the CSR matrix (values bit-identical).
    pub fn to_csr(&self) -> CsrMatrix {
        self.rows.to_csr()
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
        let nnz = self.rows.row_nnz(r);
        counters.index_bytes += self.row_index_bytes(r);
        counters.value_bytes += 8 * nnz;
        counters.nnz += nnz;
        let Some(body) = kernel.lanes() else {
            counters.rows_scalar += 1;
            return self.rows.row_dot_dense(r, y);
        };
        counters.rows_wide += 1;
        // SAFETY: every column a row decodes to is `< ncols`
        // (`CsrMatrix::from_raw_parts` / `BlockedCsr::from_raw_parts` and
        // `validate_column_updates` check each one, and the matrices'
        // fields are private), and `ncols == y.len()` was asserted just
        // above.
        unsafe { gather_lanes(body, self.rows.row_segments(r), y) }
    }

    /// Replaces whole columns — **the** way `U⁻¹` changes, the splice
    /// stage of the dynamic-update engine — returning the next store and
    /// how many rows it re-encoded (those holding an entry in an updated
    /// column before or after). The result equals
    /// [`ProximityStore::from_csr`] of the fully spliced matrix, arrays and
    /// derived values alike (pinned by the store tests and, end to end, by
    /// `tests/dynamic_equivalence.rs`): column sums are refreshed for the
    /// replaced columns. `updates`
    /// must be sorted by strictly increasing column, each with strictly
    /// increasing in-bounds rows and finite values — the contract of
    /// [`CscMatrix::splice_columns`].
    pub fn splice_columns(&self, updates: &[ColumnUpdate]) -> Result<(ProximityStore, usize)> {
        let (rows, reencoded) = self.rows.splice_columns(updates)?;
        let mut col_sums = self.col_sums.clone();
        for u in updates {
            col_sums[u.col as usize] = u.vals.iter().fold(0.0, |sum, &v| sum + v);
        }
        Ok((ProximityStore::assemble(rows, Some(col_sums)), reencoded))
    }

    /// Two-pointer merge join of row `r` against a sorted sparse vector —
    /// the reference kernel the eager oracles run on (bit-identical to
    /// [`CsrMatrix::row_dot_sparse`] on the same row).
    #[inline]
    pub fn row_dot_sparse(&self, r: Index, idx: &[Index], val: &[f64]) -> f64 {
        self.rows.row_dot_sparse(r, idx, val)
    }

    /// Dense `y = A · x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        self.rows.matvec(x)
    }

    /// `1ᵀ A`: the sum of every column's stored values. Column `j` adds
    /// its entries by ascending row from `+0.0` — the order a CSC column
    /// summed top to bottom adds in, which is how a splice re-sums a
    /// replaced column and stays bit-identical to a rebuild.
    pub fn column_sums(&self) -> &[f64] {
        &self.col_sums
    }

    /// Lets a test stale one column sum, to show the audit finds it.
    #[doc(hidden)]
    pub fn column_sums_mut(&mut self) -> &mut [f64] {
        &mut self.col_sums
    }

    /// Issues software prefetches for the front of row `r`'s index and
    /// value spans — the candidate-batching hook: the search loop calls
    /// this a small block of candidates ahead, restoring memory-level
    /// parallelism on DRAM-resident rows.
    #[inline]
    pub fn prefetch_row(&self, r: Index) {
        self.rows.prefetch_row(r)
    }
}

/// The column sums of `rows`, one streaming pass in storage order (see
/// [`ProximityStore::column_sums`]).
fn sum_columns(rows: &BlockedCsr) -> Vec<f64> {
    let mut sums = vec![0.0; rows.ncols()];
    for r in 0..rows.nrows() as Index {
        for seg in rows.row_segments(r) {
            for (&d, &v) in seg.offs.iter().zip(seg.vals) {
                sums[seg.base + d as usize] += v;
            }
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparseError;
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
                let b = spliced.as_blocked();
                assert_eq!((b.row_runs(0), b.row_runs(3)), (1, 2));
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
