//! The proximity read path: one store, two row layouts, one policy.
//!
//! [`ProximityStore`] is what the query engine holds for `U⁻¹`: the row
//! payload in either the classic flat CSR layout or the bandwidth-lean
//! [`BlockedCsr`] encoding, plus the packed per-row [`RowStat`] table the
//! adaptive kernel policy reads (built once at index-assembly time so
//! policy decisions never touch the DRAM-resident index arrays).
//!
//! Every gather funnels through [`ProximityStore::row_gather`]: the
//! resolved kernel picks the arm (for [`GatherKernel::Adaptive`]
//! per row, via the deterministic policy), the layout picks the decode,
//! and both layouts end in the *same* slice kernels — which is why the
//! flat and blocked layouts are bit-identical under every kernel, pinned
//! by `tests/layout_equivalence.rs`. Byte-traffic and per-kernel row
//! counts accumulate into the caller's [`GatherCounters`].
//!
//! [`GatherKernel::Adaptive`]: crate::GatherKernel::Adaptive

use crate::blocked::prefetch_span;
use crate::kernel::{gather_scalar_counting, gather_wide, row_stat_of, IndexFootprint};
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
    /// Packed per-row policy stats (12 bytes/row), assembly-time built.
    row_stats: Vec<RowStat>,
    /// Largest row's stored-entry count — the decode-scratch high-water
    /// mark, so workspaces can preallocate and stay allocation-free.
    max_row_nnz: usize,
    /// Build-time footprint class steering the adaptive policy's hit-rate
    /// bar. Derived from stored value bytes (`8 × nnz`) — a
    /// layout-invariant quantity, so the executed kernel class (and with
    /// it flat/blocked bit-identity) never depends on the row encoding.
    footprint: IndexFootprint,
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
        let max_row_nnz = row_stats.iter().map(|s| s.nnz as usize).max().unwrap_or(0);
        let footprint = IndexFootprint::classify(8 * csr.nnz());
        let rows = match layout {
            RowLayout::Flat => RowStorage::Flat(csr),
            RowLayout::Blocked => RowStorage::Blocked(BlockedCsr::from_csr(csr)?),
        };
        Ok(ProximityStore { rows, row_stats, max_row_nnz, footprint })
    }

    /// Wraps an already-validated blocked matrix (the persistence load
    /// path), rebuilding the policy table from it.
    pub fn from_blocked(blocked: BlockedCsr) -> ProximityStore {
        let row_stats = row_stats_of_blocked(&blocked);
        let max_row_nnz = row_stats.iter().map(|s| s.nnz as usize).max().unwrap_or(0);
        let footprint = IndexFootprint::classify(8 * blocked.nnz());
        ProximityStore { rows: RowStorage::Blocked(blocked), row_stats, max_row_nnz, footprint }
    }

    /// Re-encodes into `layout` (no-op when already there). Values move
    /// bit-identically; the policy table is preserved.
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

    /// The packed per-row policy table.
    pub fn row_stats(&self) -> &[RowStat] {
        &self.row_stats
    }

    /// Policy stats of one row.
    #[inline]
    pub fn row_stat(&self, r: Index) -> RowStat {
        self.row_stats[r as usize]
    }

    /// Largest row's stored-entry count (decode-scratch sizing).
    pub fn max_row_nnz(&self) -> usize {
        self.max_row_nnz
    }

    /// The build-time footprint class the adaptive policy consumes.
    pub fn footprint(&self) -> IndexFootprint {
        self.footprint
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

    /// Heap footprint of the stored arrays in bytes (policy table
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
    /// column, through the resolved kernel (per-row policy for
    /// `Adaptive`), with byte traffic and the kernel-class row split
    /// accumulated into `counters`. Both layouts end in the same slice
    /// kernels, so for a fixed kernel the result is bit-identical across
    /// layouts.
    #[inline]
    pub fn row_gather(
        &self,
        kernel: ResolvedKernel,
        r: Index,
        buf: &ScatteredColumn,
        scratch: &mut GatherScratch,
        counters: &mut GatherCounters,
    ) -> f64 {
        debug_assert_eq!(buf.dim(), self.ncols());
        let stat = self.row_stats[r as usize];
        let arm = kernel.arm_for_with(stat, buf, self.footprint);
        counters.index_bytes += self.row_index_bytes(r);
        counters.nnz += stat.nnz as usize;
        match (&self.rows, arm) {
            (RowStorage::Flat(m), None) => {
                let (cols, vals) = m.row(r);
                let (acc, hits) = gather_scalar_counting(cols, vals, buf);
                counters.rows_scalar += 1;
                counters.value_bytes += 8 * hits;
                acc
            }
            (RowStorage::Flat(m), Some(wide)) => {
                let (cols, vals) = m.row(r);
                counters.rows_wide += 1;
                counters.value_bytes += 8 * cols.len();
                gather_wide(wide, cols, vals, buf)
            }
            (RowStorage::Blocked(b), None) => {
                let (acc, hits) = b.row_dot_scattered_counting(r, buf);
                counters.rows_scalar += 1;
                counters.value_bytes += 8 * hits;
                acc
            }
            (RowStorage::Blocked(b), Some(wide)) => {
                b.decode_row_into(r, &mut scratch.cols);
                counters.rows_wide += 1;
                counters.value_bytes += 8 * scratch.cols.len();
                gather_wide(wide, &scratch.cols, b.row_values(r), buf)
            }
        }
    }

    /// Row `r` against a *dense* vector: every stored entry multiplies
    /// `x[col]` unconditionally, in storage order (bit-identical across
    /// layouts). The certified-refinement correction runs on this — its
    /// operand is dense over the reachable set, so the scattered column's
    /// stamps and the per-row kernel policy would be pure overhead. Charges
    /// `counters` like a wide gather (index bytes, 8 value bytes per
    /// entry, stored entries); it is not a kernel dispatch, so the
    /// scalar/wide row split stays untouched.
    #[inline]
    pub fn row_dot_dense(&self, r: Index, x: &[f64], counters: &mut GatherCounters) -> f64 {
        let nnz = self.row_stats[r as usize].nnz as usize;
        counters.index_bytes += self.row_index_bytes(r);
        counters.value_bytes += 8 * nnz;
        counters.nnz += nnz;
        match &self.rows {
            RowStorage::Flat(m) => m.row_dot_dense(r, x),
            RowStorage::Blocked(b) => b.row_dot_dense(r, x),
        }
    }

    /// Replaces whole rows under the active layout, refreshing the
    /// per-row policy table and the decode-scratch high-water mark for
    /// exactly the dirty rows — the splice stage of the dynamic-update
    /// engine. The result equals [`ProximityStore::from_csr`] of the
    /// fully spliced flat matrix under the same layout, arrays, policy
    /// table and all (pinned by the store tests and, end to end, by
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
        let max_row_nnz = row_stats.iter().map(|s| s.nnz as usize).max().unwrap_or(0);
        let footprint = match &rows {
            RowStorage::Flat(m) => IndexFootprint::classify(8 * m.nnz()),
            RowStorage::Blocked(b) => IndexFootprint::classify(8 * b.nnz()),
        };
        Ok(ProximityStore { rows, row_stats, max_row_nnz, footprint })
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

/// Per-row policy stats of a flat matrix.
fn row_stats_of_csr(csr: &CsrMatrix) -> Vec<RowStat> {
    (0..csr.nrows() as Index).map(|r| row_stat_of(csr.row(r).0)).collect()
}

/// Per-row policy stats of a blocked matrix.
pub fn row_stats_of_blocked(blocked: &BlockedCsr) -> Vec<RowStat> {
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
    fn layouts_are_bit_identical_under_every_kernel() {
        for seed in 0..6u64 {
            let csr = random_csr(24, 48, 0.35, seed);
            let flat = ProximityStore::from_csr(csr.clone(), RowLayout::Flat).unwrap();
            let blocked = ProximityStore::from_csr(csr, RowLayout::Blocked).unwrap();
            assert_eq!(flat.row_stats(), blocked.row_stats(), "policy inputs must agree");
            let buf = loaded_column(48, 0.5, seed + 100);
            let mut scratch = GatherScratch::with_capacity(flat.max_row_nnz());
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
        let mut scratch = GatherScratch::with_capacity(store.max_row_nnz());
        let mut counters = GatherCounters::default();
        for r in 0..20 as Index {
            store.row_gather(ResolvedKernel::default(), r, &buf, &mut scratch, &mut counters);
        }
        assert_eq!(counters.rows_scalar + counters.rows_wide, 20);
        let expect_index: usize = (0..20).map(|r| store.row_index_bytes(r)).sum();
        assert_eq!(counters.index_bytes, expect_index);
        counters.reset();
        assert_eq!(counters, GatherCounters::default());
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
    /// including the policy table and the decode-scratch high-water mark.
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
