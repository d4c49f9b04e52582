//! The proximity read path: one store, two row layouts, one kernel.
//!
//! [`ProximityStore`] is what the query engine holds for `U⁻¹`: the row
//! payload in either the classic flat CSR layout or the bandwidth-lean
//! [`BlockedCsr`] encoding, plus the packed per-row [`RowStat`] table
//! (built once at index-assembly time so per-row accounting never touches
//! the index arrays).
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
    BlockedCsr, CscMatrix, CsrMatrix, GatherCounters, GatherScratch, Index, ResolvedKernel,
    Result, RowStat, ScatteredColumn, SparseError,
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
        let row_stats = row_stats_of_csr(&csr);
        let rows = match layout {
            RowLayout::Flat => RowStorage::Flat(csr),
            RowLayout::Blocked => RowStorage::Blocked(BlockedCsr::from_csr(csr)?),
        };
        ProximityStore::assemble(rows, row_stats)
    }

    /// Wraps an already-validated blocked matrix (the persistence load
    /// path), rebuilding the row-stats table from it.
    pub fn from_blocked(blocked: BlockedCsr) -> Result<ProximityStore> {
        let row_stats = row_stats_of_blocked(&blocked);
        ProximityStore::assemble(RowStorage::Blocked(blocked), row_stats)
    }

    /// The one place a store comes into being. Rejects column counts past
    /// `i32::MAX`: the AVX2 gather sign-extends 32-bit column lanes, and
    /// checking here keeps that bound out of the per-row hot path.
    fn assemble(rows: RowStorage, row_stats: Vec<RowStat>) -> Result<ProximityStore> {
        let store = ProximityStore {
            rows,
            max_row_nnz: row_stats.iter().map(|s| s.nnz as usize).max().unwrap_or(0),
            row_stats,
        };
        if store.ncols() > i32::MAX as usize {
            return Err(SparseError::Malformed(format!(
                "proximity store limited to 2^31 - 1 columns, got {}",
                store.ncols()
            )));
        }
        Ok(store)
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
        // `validate_row_updates` check each one, and the matrices' fields
        // are private), `ncols == y.len()` was asserted just above, and
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

    /// Replaces whole rows under the active layout, refreshing the
    /// per-row stats table and the largest-row mark for exactly the dirty
    /// rows — the splice stage of the dynamic-update engine. The result
    /// equals [`ProximityStore::from_csr`] of the fully spliced flat
    /// matrix under the same layout, arrays, stats table and all (pinned by the store tests and, end to end, by
    /// `tests/dynamic_equivalence.rs`). `updates` must be sorted by
    /// strictly increasing row.
    pub fn splice_rows(&self, updates: &[crate::csr::RowUpdate]) -> Result<ProximityStore> {
        let rows = match &self.rows {
            RowStorage::Flat(m) => RowStorage::Flat(m.splice_rows(updates)?),
            RowStorage::Blocked(b) => RowStorage::Blocked(b.splice_rows(updates)?),
        };
        let mut row_stats = self.row_stats.clone();
        for u in updates {
            row_stats[u.row as usize] = row_stat_of(&u.cols);
        }
        ProximityStore::assemble(rows, row_stats)
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

    /// `1ᵀ A`: the sum of every column's stored values, one streaming pass
    /// in storage order. Column `j` accumulates its entries by ascending
    /// row from `+0.0` — the order a CSC column summed top to bottom adds
    /// in, so a caller that holds one column's replacement can re-sum
    /// just that column and stay bit-identical to this pass.
    pub fn column_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.ncols()];
        for r in 0..self.nrows() as Index {
            match &self.rows {
                RowStorage::Flat(m) => {
                    let (cols, vals) = m.row(r);
                    for (&c, &v) in cols.iter().zip(vals) {
                        sums[c as usize] += v;
                    }
                }
                RowStorage::Blocked(b) => {
                    for seg in b.row_segments(r) {
                        for (&d, &v) in seg.offs.iter().zip(seg.vals) {
                            sums[seg.base + d as usize] += v;
                        }
                    }
                }
            }
        }
        sums
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

/// Per-row stats of a flat matrix.
fn row_stats_of_csr(csr: &CsrMatrix) -> Vec<RowStat> {
    (0..csr.nrows() as Index).map(|r| row_stat_of(csr.row(r).0)).collect()
}

/// Per-row stats of a blocked matrix.
fn row_stats_of_blocked(blocked: &BlockedCsr) -> Vec<RowStat> {
    (0..blocked.nrows() as Index)
        .map(|r| match (blocked.row_first_col(r), blocked.row_last_col(r)) {
            (Some(first), Some(last)) => {
                RowStat { nnz: blocked.row_nnz(r) as u32, first, last }
            }
            _ => RowStat::default(),
        })
        .collect()
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

    /// The store-level splice contract: under both layouts, splicing rows
    /// equals rebuilding the store from the fully spliced flat matrix —
    /// including the row-stats table and the largest-row mark.
    #[test]
    fn splice_rows_matches_full_rebuild_under_both_layouts() {
        use crate::RowUpdate;
        for seed in 0..5u64 {
            let csr = random_csr(16, 40, 0.3, seed);
            let mut rng = StdRng::seed_from_u64(seed + 50);
            let mut updates: Vec<RowUpdate> = Vec::new();
            for r in [1u32, 7, 12] {
                let mut cols: Vec<Index> =
                    (0..rng.gen_range(0..30u32)).map(|_| rng.gen_range(0..40u32)).collect();
                cols.sort_unstable();
                cols.dedup();
                let vals: Vec<f64> = cols.iter().map(|&c| c as f64 - 3.5).collect();
                updates.push(RowUpdate { row: r, cols, vals });
            }
            let rebuilt_flat = csr.splice_rows(&updates).unwrap();
            for layout in [RowLayout::Flat, RowLayout::Blocked] {
                let store = ProximityStore::from_csr(csr.clone(), layout).unwrap();
                let spliced = store.splice_rows(&updates).unwrap();
                let rebuilt =
                    ProximityStore::from_csr(rebuilt_flat.clone(), layout).unwrap();
                assert_eq!(spliced, rebuilt, "seed {seed} layout {layout}");
                assert_eq!(spliced.row_stats(), rebuilt.row_stats(), "seed {seed}");
                assert_eq!(spliced.max_row_nnz(), rebuilt.max_row_nnz(), "seed {seed}");
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
