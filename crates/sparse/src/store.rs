//! The proximity read path: one store, two row layouts, one kernel.
//!
//! [`ProximityStore`] is what the query engine holds for `U⁻¹`: the row
//! payload in either the classic flat CSR layout or the bandwidth-lean
//! [`BlockedCsr`] encoding, plus the tables derived from it — the packed
//! per-row [`RowStat`]s (so per-row accounting never touches the index
//! arrays), the largest row, and the column sums `1ᵀU⁻¹` the search's
//! stop rule takes a query's mass from. All three are filled where a
//! store is assembled and nowhere else.
//!
//! A store is immutable. The dynamic engine's one way to change `U⁻¹` is
//! [`ProximityStore::splice_columns`]: re-solved columns in (the form the
//! solver emits and `L⁻¹` takes as is), the next store out, derived tables
//! refreshed for exactly what the columns touched. How rows are laid out
//! stays this module's business.
//!
//! Every gather funnels through [`ProximityStore::row_gather`]: the
//! layout hands its rows to the kernel as segments, and both layouts end
//! in the *same* lane arithmetic ([`crate::kernel`]) — which is why the
//! flat and blocked layouts are bit-identical under every kernel, pinned
//! by `tests/layout_equivalence.rs`. Byte-traffic and per-kernel row
//! counts accumulate into the caller's [`GatherCounters`].

use crate::blocked::prefetch_span;
use crate::kernel::{gather_lanes, row_stat_of, Segment};
use crate::{
    BlockedCsr, ColumnUpdate, CscMatrix, CsrMatrix, GatherCounters, GatherScratch, Index,
    ResolvedKernel, Result, RowStat, ScatteredColumn, SparseError,
};
use std::fmt;
use std::str::FromStr;

/// How a [`ProximityStore`] encodes its row indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowLayout {
    /// Plain CSR: one `u32` column index per stored entry.
    Flat,
    /// Block-compressed indices ([`BlockedCsr`]): `u16` deltas against
    /// aligned `u32` block anchors — ~half the index traffic on the
    /// fill-dominated inverse rows. The default.
    #[default]
    Blocked,
}

impl RowLayout {
    /// The layout's spelling (also what [`FromStr`] parses).
    pub fn name(self) -> &'static str {
        match self {
            RowLayout::Flat => "flat",
            RowLayout::Blocked => "blocked",
        }
    }
}

impl fmt::Display for RowLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for RowLayout {
    type Err = SparseError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "flat" => Ok(RowLayout::Flat),
            "blocked" => Ok(RowLayout::Blocked),
            other => Err(SparseError::Malformed(format!(
                "unknown row layout '{other}' (expected flat or blocked)"
            ))),
        }
    }
}

/// Row-major proximity storage behind the query engine (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ProximityStore {
    rows: RowStorage,
    /// Packed per-row stats (12 bytes/row), assembly-time built.
    row_stats: Vec<RowStat>,
    /// Largest row's stored-entry count.
    max_row_nnz: usize,
    /// `1ᵀ A`: per column, its stored values added by ascending row from
    /// `+0.0` ([`column_sums`](Self::column_sums)).
    col_sums: Vec<f64>,
}

#[derive(Debug, Clone, PartialEq)]
enum RowStorage {
    Flat(CsrMatrix),
    Blocked(BlockedCsr),
}

impl ProximityStore {
    /// Builds the store from a flat CSR matrix, re-encoding per `layout`.
    /// Values are never touched, so results are bit-identical across
    /// layouts.
    pub fn from_csr(csr: CsrMatrix, layout: RowLayout) -> Result<ProximityStore> {
        let rows = match layout {
            RowLayout::Flat => RowStorage::Flat(csr),
            RowLayout::Blocked => RowStorage::Blocked(BlockedCsr::from_csr(csr)?),
        };
        ProximityStore::assemble(rows, None)
    }

    /// Wraps an already-validated blocked matrix (the persistence load
    /// path).
    pub fn from_blocked(blocked: BlockedCsr) -> Result<ProximityStore> {
        ProximityStore::assemble(RowStorage::Blocked(blocked), None)
    }

    /// The one place a store comes into being, and the one place its
    /// derived tables are filled: off `rows`, unless a splice hands over
    /// the `(row stats, column sums)` it refreshed. Rejects column counts
    /// past `i32::MAX`: the AVX2 gather sign-extends 32-bit column lanes,
    /// and checking here keeps that bound out of the per-row hot path.
    fn assemble(
        rows: RowStorage,
        refreshed: Option<(Vec<RowStat>, Vec<f64>)>,
    ) -> Result<ProximityStore> {
        let (nrows, ncols) = match &rows {
            RowStorage::Flat(m) => (m.nrows(), m.ncols()),
            RowStorage::Blocked(b) => (b.nrows(), b.ncols()),
        };
        if ncols > i32::MAX as usize {
            return Err(SparseError::Malformed(format!(
                "proximity store limited to 2^31 - 1 columns, got {ncols}"
            )));
        }
        let (row_stats, col_sums) = refreshed.unwrap_or_else(|| {
            ((0..nrows as Index).map(|r| row_stat_in(&rows, r)).collect(), sum_columns(&rows))
        });
        let max_row_nnz = row_stats.iter().map(|s| s.nnz as usize).max().unwrap_or(0);
        Ok(ProximityStore { rows, row_stats, max_row_nnz, col_sums })
    }

    /// Re-encodes into `layout` (no-op when already there). Values move
    /// bit-identically; the row-stats table is preserved.
    pub fn relayout(&self, layout: RowLayout) -> ProximityStore {
        if self.layout() == layout {
            return self.clone();
        }
        ProximityStore::from_csr(self.to_csr(), layout)
            .expect("a valid store re-encodes losslessly")
    }

    /// The active row layout.
    pub fn layout(&self) -> RowLayout {
        match &self.rows {
            RowStorage::Flat(_) => RowLayout::Flat,
            RowStorage::Blocked(_) => RowLayout::Blocked,
        }
    }

    /// The flat matrix, if that is the active layout.
    pub fn as_flat(&self) -> Option<&CsrMatrix> {
        match &self.rows {
            RowStorage::Flat(m) => Some(m),
            RowStorage::Blocked(_) => None,
        }
    }

    /// The blocked matrix, if that is the active layout.
    pub fn as_blocked(&self) -> Option<&BlockedCsr> {
        match &self.rows {
            RowStorage::Flat(_) => None,
            RowStorage::Blocked(b) => Some(b),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        match &self.rows {
            RowStorage::Flat(m) => m.nrows(),
            RowStorage::Blocked(b) => b.nrows(),
        }
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        match &self.rows {
            RowStorage::Flat(m) => m.ncols(),
            RowStorage::Blocked(b) => b.ncols(),
        }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        match &self.rows {
            RowStorage::Flat(m) => m.nnz(),
            RowStorage::Blocked(b) => b.nnz(),
        }
    }

    /// The packed per-row stats table.
    pub fn row_stats(&self) -> &[RowStat] {
        &self.row_stats
    }

    /// Stats of one row.
    #[inline]
    pub fn row_stat(&self, r: Index) -> RowStat {
        self.row_stats[r as usize]
    }

    /// Largest row's stored-entry count.
    pub fn max_row_nnz(&self) -> usize {
        self.max_row_nnz
    }

    /// Index bytes a gather streams for row `r` under the active layout.
    #[inline]
    pub fn row_index_bytes(&self, r: Index) -> usize {
        match &self.rows {
            RowStorage::Flat(m) => 4 * m.row(r).0.len(),
            RowStorage::Blocked(b) => b.row_index_bytes(r),
        }
    }

    /// Index bytes of the whole store (the column-index encoding only —
    /// the quantity the blocked layout shrinks; row pointers and values
    /// are identical across layouts).
    pub fn index_bytes(&self) -> usize {
        match &self.rows {
            RowStorage::Flat(m) => 4 * m.nnz(),
            RowStorage::Blocked(b) => b.index_bytes(),
        }
    }

    /// Heap footprint of the stored arrays in bytes (row-stats table
    /// included).
    pub fn heap_bytes(&self) -> usize {
        let rows = match &self.rows {
            RowStorage::Flat(m) => m.heap_bytes(),
            RowStorage::Blocked(b) => b.heap_bytes(),
        };
        rows + self.row_stats.len() * std::mem::size_of::<RowStat>()
    }

    /// Rebuilds the flat CSR matrix (values bit-identical).
    pub fn to_csr(&self) -> CsrMatrix {
        match &self.rows {
            RowStorage::Flat(m) => m.clone(),
            RowStorage::Blocked(b) => b.to_csr(),
        }
    }

    /// Converts to CSC form (the transpose-array persistence encoding the
    /// flat format uses).
    pub fn to_csc(&self) -> CscMatrix {
        self.to_csr().to_csc()
    }

    /// **The** proximity gather: row `r` against the scattered query
    /// column through the resolved kernel, with byte traffic and the
    /// kernel-class row split accumulated into `counters`. Both layouts
    /// feed the same lane arithmetic, so for a fixed kernel the result is
    /// bit-identical across layouts. `_scratch` is unused (see
    /// [`GatherScratch`]).
    #[inline]
    pub fn row_gather(
        &self,
        kernel: ResolvedKernel,
        r: Index,
        buf: &ScatteredColumn,
        _scratch: &mut GatherScratch,
        counters: &mut GatherCounters,
    ) -> f64 {
        let y = buf.as_slice();
        assert_eq!(y.len(), self.ncols(), "query column dimension must match the store");
        let Some(body) = kernel.lanes() else {
            counters.rows_scalar += 1;
            return self.row_dot_dense(r, y, counters);
        };
        counters.rows_wide += 1;
        self.charge(r, counters);
        // SAFETY: every column either layout decodes to is `< ncols`
        // (`CsrMatrix::from_raw_parts` / `BlockedCsr::from_raw_parts` and
        // `validate_column_updates` check each one, and the matrices'
        // fields are private), `ncols == y.len()` was asserted just above, and
        // `assemble` refused any store with `ncols > i32::MAX`.
        unsafe {
            match &self.rows {
                RowStorage::Flat(m) => {
                    let (offs, vals) = m.row(r);
                    gather_lanes(body, std::iter::once(Segment { base: 0, offs, vals }), y)
                }
                RowStorage::Blocked(b) => gather_lanes(body, b.row_segments(r), y),
            }
        }
    }

    /// Row `r` against a *dense* vector: every stored entry multiplies
    /// `x[col]` unconditionally, in storage order (bit-identical across
    /// layouts). The certified-refinement correction runs on this, in the
    /// one-accumulator order its residual bounds were pinned under.
    /// Charges `counters` like a gather (index bytes, 8 value bytes per
    /// entry, stored entries); it is not a kernel dispatch, so the
    /// scalar/wide row split stays untouched.
    #[inline]
    pub fn row_dot_dense(&self, r: Index, x: &[f64], counters: &mut GatherCounters) -> f64 {
        self.charge(r, counters);
        match &self.rows {
            RowStorage::Flat(m) => m.row_dot_dense(r, x),
            RowStorage::Blocked(b) => b.row_dot_dense(r, x),
        }
    }

    /// Charges one pass over row `r` to `counters`: its index bytes, 8
    /// value bytes per stored entry (every kernel multiplies every entry)
    /// and the stored entries themselves.
    #[inline]
    fn charge(&self, r: Index, counters: &mut GatherCounters) {
        let nnz = self.row_stats[r as usize].nnz as usize;
        counters.index_bytes += self.row_index_bytes(r);
        counters.value_bytes += 8 * nnz;
        counters.nnz += nnz;
    }

    /// Replaces whole columns — **the** way `U⁻¹` changes, the splice
    /// stage of the dynamic-update engine — returning the next store and
    /// how many rows it re-encoded (those holding an entry in an updated
    /// column before or after). The result equals
    /// [`ProximityStore::from_csr`] of the fully spliced matrix under the
    /// same layout, arrays and derived tables alike (pinned by the store
    /// tests and, end to end, by `tests/dynamic_equivalence.rs`): row
    /// stats are refreshed for the re-encoded rows, column sums for the
    /// replaced columns. `updates` must be sorted by strictly increasing
    /// column, each with strictly increasing in-bounds rows and finite
    /// values — the contract of [`CscMatrix::splice_columns`].
    pub fn splice_columns(&self, updates: &[ColumnUpdate]) -> Result<(ProximityStore, usize)> {
        match &self.rows {
            // The reference layout, which no workload updates: through the
            // column-major form, every table derived afresh.
            RowStorage::Flat(m) => {
                let old = m.to_csc();
                let spliced = CsrMatrix::from_csc(&old.splice_columns(updates)?);
                let mut touched = vec![false; m.nrows()];
                for u in updates {
                    for &r in old.col(u.col).0.iter().chain(&u.rows) {
                        touched[r as usize] = true;
                    }
                }
                let store = ProximityStore::assemble(RowStorage::Flat(spliced), None)?;
                Ok((store, touched.iter().filter(|&&t| t).count()))
            }
            RowStorage::Blocked(b) => {
                let (spliced, reencoded) = b.splice_columns(updates, &self.row_stats)?;
                let rows = RowStorage::Blocked(spliced);
                let mut row_stats = self.row_stats.clone();
                for &r in &reencoded {
                    row_stats[r as usize] = row_stat_in(&rows, r);
                }
                let mut col_sums = self.col_sums.clone();
                for u in updates {
                    col_sums[u.col as usize] = u.vals.iter().fold(0.0, |sum, &v| sum + v);
                }
                let store = ProximityStore::assemble(rows, Some((row_stats, col_sums)))?;
                Ok((store, reencoded.len()))
            }
        }
    }

    /// Two-pointer merge join of row `r` against a sorted sparse vector —
    /// the layout-agnostic reference kernel (bit-identical across
    /// layouts; the eager oracles run on it).
    #[inline]
    pub fn row_dot_sparse(&self, r: Index, idx: &[Index], val: &[f64]) -> f64 {
        match &self.rows {
            RowStorage::Flat(m) => m.row_dot_sparse(r, idx, val),
            RowStorage::Blocked(b) => b.row_dot_sparse(r, idx, val),
        }
    }

    /// Dense `y = A · x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        match &self.rows {
            RowStorage::Flat(m) => m.matvec(x),
            RowStorage::Blocked(b) => b.matvec(x),
        }
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
        match &self.rows {
            RowStorage::Flat(m) => {
                let (cols, vals) = m.row(r);
                prefetch_span(cols, 2);
                prefetch_span(vals, 2);
            }
            RowStorage::Blocked(b) => b.prefetch_row(r),
        }
    }
}

/// Stats of row `r`, read off the stored row.
fn row_stat_in(rows: &RowStorage, r: Index) -> RowStat {
    match rows {
        RowStorage::Flat(m) => row_stat_of(m.row(r).0),
        RowStorage::Blocked(b) => match (b.row_first_col(r), b.row_last_col(r)) {
            (Some(first), Some(last)) => RowStat { nnz: b.row_nnz(r) as u32, first, last },
            _ => RowStat::default(),
        },
    }
}

/// The column sums of `rows`, one streaming pass in storage order (see
/// [`ProximityStore::column_sums`]).
fn sum_columns(rows: &RowStorage) -> Vec<f64> {
    match rows {
        RowStorage::Flat(m) => {
            let mut sums = vec![0.0; m.ncols()];
            for (_, c, v) in m.triplets() {
                sums[c as usize] += v;
            }
            sums
        }
        RowStorage::Blocked(b) => {
            let mut sums = vec![0.0; b.ncols()];
            for r in 0..b.nrows() as Index {
                for seg in b.row_segments(r) {
                    for (&d, &v) in seg.offs.iter().zip(seg.vals) {
                        sums[seg.base + d as usize] += v;
                    }
                }
            }
            sums
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GatherKernel;
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

    #[test]
    fn column_sums_add_each_csc_column_top_to_bottom() {
        for seed in 0..4u64 {
            let csr = random_csr(40, 30, 0.3, seed);
            let csc = csr.to_csc();
            let expect: Vec<u64> = (0..30 as Index)
                .map(|j| csc.col(j).1.iter().fold(0.0f64, |acc, &v| acc + v).to_bits())
                .collect();
            for layout in [RowLayout::Flat, RowLayout::Blocked] {
                let store = ProximityStore::from_csr(csr.clone(), layout).unwrap();
                let got: Vec<u64> = store.column_sums().iter().map(|s| s.to_bits()).collect();
                assert_eq!(got, expect, "seed {seed} {layout:?}");
            }
        }
    }

    #[test]
    fn layouts_are_bit_identical_under_every_kernel() {
        for seed in 0..6u64 {
            let csr = random_csr(24, 48, 0.35, seed);
            let flat = ProximityStore::from_csr(csr.clone(), RowLayout::Flat).unwrap();
            let blocked = ProximityStore::from_csr(csr, RowLayout::Blocked).unwrap();
            assert_eq!(flat.row_stats(), blocked.row_stats());
            let buf = loaded_column(48, 0.5, seed + 100);
            let mut scratch = GatherScratch;
            for kernel in GatherKernel::ALL {
                let Ok(resolved) = kernel.resolve() else { continue };
                for r in 0..24 as Index {
                    let (mut ca, mut cb) = (GatherCounters::default(), GatherCounters::default());
                    let a = flat.row_gather(resolved, r, &buf, &mut scratch, &mut ca);
                    let b = blocked.row_gather(resolved, r, &buf, &mut scratch, &mut cb);
                    assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} {kernel} row {r}");
                    // The kernel-class split and value traffic are layout-
                    // independent; index bytes shrink with the blocked
                    // encoding.
                    assert_eq!(ca.rows_scalar, cb.rows_scalar);
                    assert_eq!(ca.rows_wide, cb.rows_wide);
                    assert_eq!(ca.value_bytes, cb.value_bytes);
                }
            }
        }
    }

    #[test]
    fn counters_account_for_every_row() {
        let csr = random_csr(20, 40, 0.4, 2);
        let store = ProximityStore::from_csr(csr, RowLayout::Blocked).unwrap();
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

    #[test]
    fn column_counts_past_i32_max_are_refused_at_assembly() {
        let ncols = i32::MAX as usize + 1;
        let csr = CsrMatrix::from_raw_parts(1, ncols, vec![0, 0], vec![], vec![]).unwrap();
        for layout in [RowLayout::Flat, RowLayout::Blocked] {
            match ProximityStore::from_csr(csr.clone(), layout) {
                Err(SparseError::Malformed(msg)) => assert!(msg.contains("columns"), "{msg}"),
                other => panic!("{layout}: expected Malformed, got {other:?}"),
            }
        }
        assert!(ProximityStore::from_blocked(BlockedCsr::from_csr(csr).unwrap()).is_err());
    }

    #[test]
    fn relayout_roundtrips() {
        let csr = random_csr(15, 30, 0.3, 5);
        let flat = ProximityStore::from_csr(csr, RowLayout::Flat).unwrap();
        let blocked = flat.relayout(RowLayout::Blocked);
        assert_eq!(blocked.layout(), RowLayout::Blocked);
        assert_eq!(flat.to_csr(), blocked.to_csr());
        assert_eq!(flat.nnz(), blocked.nnz());
        assert_eq!(flat.row_stats(), blocked.row_stats());
        assert!(blocked.index_bytes() < flat.index_bytes());
        let back = blocked.relayout(RowLayout::Flat);
        assert_eq!(back.to_csr(), flat.to_csr());
    }

    fn column(col: Index, entries: &[(Index, f64)]) -> ColumnUpdate {
        let (rows, vals) = entries.iter().copied().unzip();
        ColumnUpdate { col, rows, vals }
    }

    /// The one splice contract: column updates in, and out comes the store
    /// `from_csr` builds off the spliced matrix — arrays, row stats,
    /// largest row and column sums — with the touched rows counted.
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
            for layout in [RowLayout::Flat, RowLayout::Blocked] {
                let store = ProximityStore::from_csr(CsrMatrix::from_csc(&old), layout).unwrap();
                let (spliced, reencoded) = store.splice_columns(updates).unwrap();
                let expect = ProximityStore::from_csr(rebuilt.clone(), layout).unwrap();
                assert_eq!(spliced, expect, "{layout}");
                assert_eq!(spliced.row_stats(), expect.row_stats(), "{layout}");
                assert_eq!(spliced.max_row_nnz(), expect.max_row_nnz(), "{layout}");
                let bits = |s: &ProximityStore| -> Vec<u64> {
                    s.column_sums().iter().map(|x| x.to_bits()).collect()
                };
                assert_eq!(bits(&spliced), bits(&expect), "{layout}");
                assert_eq!(reencoded, touched, "{layout}: rows re-encoded");
                if let (Some(b), 4) = (spliced.as_blocked(), touched) {
                    assert_eq!((b.row_runs(0), b.row_runs(3)), (1, 2));
                }
            }
        }
    }

    #[test]
    fn splice_columns_refuses_what_the_shared_validator_refuses() {
        let csr = random_csr(8, 12, 0.4, 1);
        let bad = [
            ("unsorted columns", vec![column(5, &[]), column(2, &[])]),
            ("row out of bounds", vec![column(0, &[(8, 1.0)])]),
            ("non-finite value", vec![column(0, &[(1, f64::NAN)])]),
            ("length mismatch", vec![ColumnUpdate { col: 0, rows: vec![0, 1], vals: vec![1.0] }]),
        ];
        for layout in [RowLayout::Flat, RowLayout::Blocked] {
            let store = ProximityStore::from_csr(csr.clone(), layout).unwrap();
            for (what, updates) in &bad {
                let got = store.splice_columns(updates);
                assert!(matches!(got, Err(SparseError::Malformed(_))), "{layout}: {what}");
            }
        }
    }

    #[test]
    fn merge_join_and_matvec_agree_across_layouts() {
        let csr = random_csr(18, 36, 0.3, 8);
        let flat = ProximityStore::from_csr(csr, RowLayout::Flat).unwrap();
        let blocked = flat.relayout(RowLayout::Blocked);
        let idx: Vec<Index> = (0..36).step_by(3).collect();
        let val: Vec<f64> = idx.iter().map(|&i| i as f64 * 0.25 - 2.0).collect();
        let dense: Vec<f64> = (0..36).map(|i| (i as f64).sin()).collect();
        for r in 0..18 as Index {
            assert_eq!(
                flat.row_dot_sparse(r, &idx, &val).to_bits(),
                blocked.row_dot_sparse(r, &idx, &val).to_bits()
            );
        }
        assert_eq!(flat.matvec(&dense), blocked.matvec(&dense));
    }
}
