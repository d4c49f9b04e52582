//! Compressed sparse column matrices.

use crate::{Index, Result, SparseError};
use kdash_graph::csr::{check_pointers, PointerFault};

/// A sparse matrix in compressed-sparse-column form.
///
/// Row indices within a column are strictly increasing; stored values may be
/// zero only transiently (constructors drop explicit zeros).
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<Index>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// An `nrows x ncols` matrix with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CscMatrix { nrows, ncols, col_ptr: vec![0; ncols + 1], row_idx: Vec::new(), values: Vec::new() }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        CscMatrix {
            nrows: n,
            ncols: n,
            col_ptr: (0..=n).collect(),
            row_idx: (0..n as Index).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds from `(row, col, value)` triplets. Duplicates are summed;
    /// entries that cancel to exactly zero are dropped.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(Index, Index, f64)],
    ) -> Result<Self> {
        for &(r, c, v) in triplets {
            if (r as usize) >= nrows || (c as usize) >= ncols {
                return Err(SparseError::Malformed(format!(
                    "triplet ({r}, {c}) out of bounds for {nrows}x{ncols}"
                )));
            }
            if !v.is_finite() {
                return Err(SparseError::Malformed(format!("non-finite value at ({r}, {c})")));
            }
        }
        let mut count = vec![0usize; ncols + 1];
        for &(_, c, _) in triplets {
            count[c as usize + 1] += 1;
        }
        for c in 0..ncols {
            count[c + 1] += count[c];
        }
        let mut bucket: Vec<(Index, f64)> = vec![(0, 0.0); triplets.len()];
        let mut cursor = count.clone();
        for &(r, c, v) in triplets {
            bucket[cursor[c as usize]] = (r, v);
            cursor[c as usize] += 1;
        }
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        col_ptr.push(0);
        let mut row_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        for c in 0..ncols {
            let slice = &mut bucket[count[c]..count[c + 1]];
            slice.sort_unstable_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < slice.len() {
                let r = slice[i].0;
                let mut v = slice[i].1;
                let mut j = i + 1;
                while j < slice.len() && slice[j].0 == r {
                    v += slice[j].1;
                    j += 1;
                }
                if v != 0.0 {
                    row_idx.push(r);
                    values.push(v);
                }
                i = j;
            }
            col_ptr.push(row_idx.len());
        }
        Ok(CscMatrix { nrows, ncols, col_ptr, row_idx, values })
    }

    /// Builds directly from CSC arrays, validating all invariants.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<Index>,
        values: Vec<f64>,
    ) -> Result<Self> {
        validate_parts(nrows, ncols, &col_ptr, &row_idx, &values, false)?;
        Ok(CscMatrix { nrows, ncols, col_ptr, row_idx, values })
    }

    /// Runs the checks of [`from_raw_parts`](Self::from_raw_parts) on this
    /// matrix's own arrays: the structural audit of an index re-proves its
    /// `L⁻¹` and the dynamic engine's factors with the constructor's own
    /// statement.
    pub fn check(&self) -> Result<()> {
        validate_parts(self.nrows, self.ncols, &self.col_ptr, &self.row_idx, &self.values, false)
    }

    /// Wraps arrays that hold every invariant by construction — a
    /// transpose of a valid matrix, or column solves (sorted, in-bounds
    /// rows) whose values the caller checked. Debug builds validate them
    /// anyway.
    pub(crate) fn from_trusted_parts(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<Index>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(validate_parts(nrows, ncols, &col_ptr, &row_idx, &values, false), Ok(()));
        CscMatrix { nrows, ncols, col_ptr, row_idx, values }
    }

    /// Consumes the matrix into its arrays `(col_ptr, row_idx, values)`,
    /// moved, not copied.
    pub(crate) fn into_parts(self) -> (Vec<usize>, Vec<Index>, Vec<f64>) {
        (self.col_ptr, self.row_idx, self.values)
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Row indices and values of column `c`.
    #[inline]
    pub fn col(&self, c: Index) -> (&[Index], &[f64]) {
        let c = c as usize;
        let range = self.col_ptr[c]..self.col_ptr[c + 1];
        (&self.row_idx[range.clone()], &self.values[range])
    }

    /// Entry `(r, c)` if stored (binary search).
    pub fn get(&self, r: Index, c: Index) -> Option<f64> {
        let (rows, vals) = self.col(c);
        rows.binary_search(&r).ok().map(|i| vals[i])
    }

    /// Iterator over all `(row, col, value)` entries in column order.
    pub fn triplets(&self) -> impl Iterator<Item = (Index, Index, f64)> + '_ {
        (0..self.ncols as Index).flat_map(move |c| {
            let (rows, vals) = self.col(c);
            rows.iter().zip(vals).map(move |(&r, &v)| (r, c, v))
        })
    }

    /// The transpose as a new CSC matrix (`O(nnz)` counting transpose).
    pub fn transpose(&self) -> CscMatrix {
        let (col_ptr, row_idx, values) = transpose_columns(self.nrows, self.columns());
        CscMatrix::from_trusted_parts(self.ncols, self.nrows, col_ptr, row_idx, values)
    }

    /// `(rows, values)` of every column, in column order.
    pub(crate) fn columns(&self) -> impl Iterator<Item = (&[Index], &[f64])> + '_ {
        (0..self.ncols as Index).map(|c| self.col(c))
    }

    /// Dense `y += A · x` accumulation. `x` has `ncols` entries, `y` has
    /// `nrows`.
    pub fn matvec_add(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length mismatch");
        assert_eq!(y.len(), self.nrows, "y length mismatch");
        for (c, &xc) in x.iter().enumerate() {
            if xc == 0.0 {
                continue;
            }
            let range = self.col_ptr[c]..self.col_ptr[c + 1];
            for (r, v) in self.row_idx[range.clone()].iter().zip(&self.values[range]) {
                y[*r as usize] += v * xc;
            }
        }
    }

    /// Dense `y = A · x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.matvec_add(x, &mut y);
        y
    }

    /// `y += Aᵀ · x` without materialising the transpose.
    pub fn matvec_transpose_add(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows, "x length mismatch");
        assert_eq!(y.len(), self.ncols, "y length mismatch");
        for (c, yc) in y.iter_mut().enumerate() {
            let range = self.col_ptr[c]..self.col_ptr[c + 1];
            let mut acc = 0.0;
            for (r, v) in self.row_idx[range.clone()].iter().zip(&self.values[range]) {
                acc += v * x[*r as usize];
            }
            *yc += acc;
        }
    }

    /// Maximum stored value per column (0.0 for empty columns). This is the
    /// `A_max(v)` of the paper's Definition 1 when applied to the transition
    /// matrix (whose entries are all positive).
    pub fn col_max(&self) -> Vec<f64> {
        (0..self.ncols as Index)
            .map(|c| self.col(c).1.iter().copied().fold(0.0f64, f64::max))
            .collect()
    }

    /// Maximum stored value across the matrix (the paper's global `A_max`).
    pub fn global_max(&self) -> f64 {
        self.values.iter().copied().fold(0.0f64, f64::max)
    }

    /// Applies `f` to every stored value, keeping the pattern.
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> CscMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v = f(*v);
        }
        out
    }

    /// Strict triangularity checks used to validate factor outputs.
    pub fn is_strictly_lower(&self) -> bool {
        self.triplets().all(|(r, c, _)| r > c)
    }

    /// True if every stored entry satisfies `row <= col`.
    pub fn is_upper(&self) -> bool {
        self.triplets().all(|(r, c, _)| r <= c)
    }

    /// Dense copy in row-major order — test helper, `O(nrows · ncols)`.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.ncols]; self.nrows];
        for (r, c, v) in self.triplets() {
            d[r as usize][c as usize] = v;
        }
        d
    }

    /// Raw CSC views `(col_ptr, row_idx, values)`.
    pub fn raw(&self) -> (&[usize], &[Index], &[f64]) {
        (&self.col_ptr, &self.row_idx, &self.values)
    }

    /// Memory used by the index and value arrays in bytes (reported by the
    /// Fig. 5 experiment alongside nnz ratios).
    pub fn heap_bytes(&self) -> usize {
        self.col_ptr.len() * std::mem::size_of::<usize>()
            + self.row_idx.len() * std::mem::size_of::<Index>()
            + self.values.len() * std::mem::size_of::<f64>()
    }

    /// Replaces whole columns, returning a new matrix: every column named
    /// by an update takes the update's (sorted, validated) content, every
    /// other column is copied over verbatim — so the result is exactly
    /// what rebuilding all columns from scratch would produce when the
    /// updates came from the same per-column solves. `O(nnz)` with
    /// wholesale copies of the clean column ranges.
    ///
    /// `updates` must be sorted by strictly increasing column.
    pub fn splice_columns(&self, updates: &[ColumnUpdate]) -> Result<CscMatrix> {
        validate_column_updates(self.nrows, self.ncols, updates)?;
        let delta: isize = updates
            .iter()
            .map(|u| u.rows.len() as isize - self.col(u.col).0.len() as isize)
            .sum();
        let new_nnz = (self.nnz() as isize + delta) as usize;
        let mut col_ptr = Vec::with_capacity(self.ncols + 1);
        col_ptr.push(0usize);
        let mut row_idx: Vec<Index> = Vec::with_capacity(new_nnz);
        let mut values: Vec<f64> = Vec::with_capacity(new_nnz);
        let mut clean_from = 0usize; // first column of the pending clean run
        let flush_clean = |upto: usize,
                               col_ptr: &mut Vec<usize>,
                               row_idx: &mut Vec<Index>,
                               values: &mut Vec<f64>,
                               clean_from: &mut usize| {
            if *clean_from < upto {
                let span = self.col_ptr[*clean_from]..self.col_ptr[upto];
                let base = row_idx.len() as isize - self.col_ptr[*clean_from] as isize;
                row_idx.extend_from_slice(&self.row_idx[span.clone()]);
                values.extend_from_slice(&self.values[span]);
                for c in *clean_from..upto {
                    col_ptr.push((self.col_ptr[c + 1] as isize + base) as usize);
                }
                *clean_from = upto;
            }
        };
        for u in updates {
            let c = u.col as usize;
            flush_clean(c, &mut col_ptr, &mut row_idx, &mut values, &mut clean_from);
            row_idx.extend_from_slice(&u.rows);
            values.extend_from_slice(&u.vals);
            col_ptr.push(row_idx.len());
            clean_from = c + 1;
        }
        flush_clean(self.ncols, &mut col_ptr, &mut row_idx, &mut values, &mut clean_from);
        Ok(CscMatrix { nrows: self.nrows, ncols: self.ncols, col_ptr, row_idx, values })
    }
}

/// Every invariant of a CSC matrix's arrays: `col_ptr` monotone and
/// covering the payload, rows in bounds and strictly increasing within a
/// column, values finite. A CSR matrix's arrays are its transpose's, and
/// `transposed` says so, so that a fault is named in the matrix's own
/// terms: its `row_ptr` and `col_idx`, a column out of bounds, a row not
/// sorted, a bad value at its own `(row, column)`.
pub(crate) fn validate_parts(
    nrows: usize,
    ncols: usize,
    col_ptr: &[usize],
    row_idx: &[Index],
    values: &[f64],
    transposed: bool,
) -> Result<()> {
    let malformed = |msg: String| Err(SparseError::Malformed(msg));
    // The input's own names for its lines, the indices within them, and
    // its two index arrays.
    let (line, index, ptr, idx, lines) = match transposed {
        false => ("column", "row", "col_ptr", "row_idx", "ncols"),
        true => ("row", "column", "row_ptr", "col_idx", "nrows"),
    };
    if row_idx.len() != values.len() {
        return malformed(format!("{idx} and values length mismatch"));
    }
    if let Err(fault) = check_pointers(col_ptr, ncols, row_idx.len()) {
        return malformed(match fault {
            PointerFault::Length => format!("{ptr} length must be {lines} + 1"),
            PointerFault::Ends => format!("{ptr} bounds are inconsistent"),
            PointerFault::Decreasing(c) => format!("{ptr} not monotone at {c}"),
        });
    }
    for c in 0..ncols {
        let rows = &row_idx[col_ptr[c]..col_ptr[c + 1]];
        for (i, &r) in rows.iter().enumerate() {
            if (r as usize) >= nrows {
                return malformed(format!("{index} {r} out of bounds"));
            }
            if i > 0 && rows[i - 1] >= r {
                return malformed(format!("{index}s not strictly increasing in {line} {c}"));
            }
        }
    }
    check_finite(col_ptr, values, |c, slot| match transposed {
        false => (row_idx[slot] as usize, c),
        true => (c, row_idx[slot] as usize),
    })
}

/// Rejects a non-finite stored value, naming the `(row, column)` of the
/// first in column order: the one value check of every constructor, and
/// of a column solve's output, which a finite factor can still overflow
/// into. `ptr` splits `values` into the compressed matrix's lines (the
/// columns of a CSC, the rows of a CSR), and `entry(line, slot)` names the
/// `(row, column)` of the value at `slot` of `line` — so a matrix fails
/// alike whichever way it is compressed.
pub(crate) fn check_finite(
    ptr: &[usize],
    values: &[f64],
    entry: impl Fn(usize, usize) -> (usize, usize),
) -> Result<()> {
    let mut line = 0;
    let bad = values.iter().enumerate().filter(|(_, v)| !v.is_finite()).map(|(slot, _)| {
        while ptr[line + 1] <= slot {
            line += 1;
        }
        entry(line, slot)
    });
    match bad.min_by_key(|&(row, col)| (col, row)) {
        None => Ok(()),
        Some((row, col)) => {
            Err(SparseError::Malformed(format!("non-finite value at ({row}, {col})")))
        }
    }
}

/// Rows per band of [`transpose_columns`]: the band's open output lines
/// (one of indices, one of values per row, 32 KiB) stay in L1.
const ROW_BAND: usize = 256;

/// The `O(nnz)` counting transpose of an `nrows`-row matrix given by its
/// columns, in order: the `(col_ptr, row_idx, values)` arrays of its
/// transpose in CSC form — which are the matrix's own rows in CSR form.
/// Each entry is written once, straight into its final slot.
///
/// A dense matrix (an inverse) is scattered one band of [`ROW_BAND`] rows
/// at a time, each band a pass over every column's next entries: one
/// pass over all rows keeps a cache line of every row open at once (the
/// scatter of a 3 000-row, 864 k-entry `U⁻¹` took ≈ 10 ms that way and
/// ≈ 5 ms banded, on a 2-core Xeon). Each band's pass visits every
/// column, so a sparse matrix (under 8 entries per column and band) gets
/// fewer bands, down to one. Within a row, entries land in column order
/// either way.
pub(crate) fn transpose_columns<'c>(
    nrows: usize,
    columns: impl Iterator<Item = (&'c [Index], &'c [f64])>,
) -> (Vec<usize>, Vec<Index>, Vec<f64>) {
    let columns: Vec<_> = columns.collect();
    let mut ptr = vec![0usize; nrows + 1];
    for &(rows, _) in &columns {
        for &r in rows {
            ptr[r as usize + 1] += 1;
        }
    }
    for i in 0..nrows {
        ptr[i + 1] += ptr[i];
    }
    let nnz = ptr[nrows];
    let bands = (nnz / (8 * columns.len()).max(1)).clamp(1, nrows.div_ceil(ROW_BAND).max(1));
    let band = nrows.div_ceil(bands);
    let mut cursor = ptr[..nrows].to_vec();
    let mut next = vec![0usize; columns.len()];
    let mut idx = vec![0 as Index; nnz];
    let mut vals = vec![0.0; nnz];
    for end in (1..=bands).map(|b| (b * band).min(nrows)) {
        for (c, &(rows, values)) in columns.iter().enumerate() {
            let mut k = next[c];
            while k < rows.len() && (rows[k] as usize) < end {
                let slot = cursor[rows[k] as usize];
                idx[slot] = c as Index;
                vals[slot] = values[k];
                cursor[rows[k] as usize] += 1;
                k += 1;
            }
            next[c] = k;
        }
    }
    (ptr, idx, vals)
}

/// A replacement for one column of a [`CscMatrix`]: the full new content
/// (possibly empty), sorted by row. Produced by the subset inversion
/// driver ([`crate::sparsify_columns_with`]) and consumed by the
/// one splice of each stored inverse: [`CscMatrix::splice_columns`]
/// (`L⁻¹`) and [`crate::ProximityStore::splice_columns`] (`U⁻¹`).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnUpdate {
    /// Which column the update replaces.
    pub col: Index,
    /// Sorted row indices of the new content.
    pub rows: Vec<Index>,
    /// Values parallel to `rows`.
    pub vals: Vec<f64>,
}

/// What every consumer of [`ColumnUpdate`]s checks first — `L⁻¹`'s
/// [`CscMatrix::splice_columns`] and `U⁻¹`'s
/// [`crate::ProximityStore::splice_columns`] alike: updates sorted by
/// strictly increasing in-bounds column, each with strictly increasing
/// in-bounds rows, matching lengths and finite values.
pub(crate) fn validate_column_updates(
    nrows: usize,
    ncols: usize,
    updates: &[ColumnUpdate],
) -> Result<()> {
    for (k, u) in updates.iter().enumerate() {
        if (u.col as usize) >= ncols {
            return Err(SparseError::Malformed(format!(
                "update column {} out of bounds for {} columns",
                u.col, ncols
            )));
        }
        if k > 0 && updates[k - 1].col >= u.col {
            return Err(SparseError::Malformed(
                "updates must be sorted by strictly increasing column".into(),
            ));
        }
        if u.rows.len() != u.vals.len() {
            return Err(SparseError::Malformed(format!(
                "update column {}: {} rows vs {} values",
                u.col,
                u.rows.len(),
                u.vals.len()
            )));
        }
        for (i, &r) in u.rows.iter().enumerate() {
            if (r as usize) >= nrows {
                return Err(SparseError::Malformed(format!(
                    "update column {}: row {r} out of bounds",
                    u.col
                )));
            }
            if i > 0 && u.rows[i - 1] >= r {
                return Err(SparseError::Malformed(format!(
                    "update column {}: rows not strictly increasing",
                    u.col
                )));
            }
        }
        if u.vals.iter().any(|v| !v.is_finite()) {
            return Err(SparseError::Malformed(format!(
                "update column {}: non-finite value",
                u.col
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProximityStore;
    use kdash_graph::{CsrGraph, GraphError};

    /// The pointer array `[0, 10, 5]` over 5 entries: its last entry
    /// matches the payload, its interior one overshoots it. Every
    /// raw-array constructor refuses it typed, through the one pointer
    /// check, before a span is sliced.
    #[test]
    fn every_raw_parts_constructor_refuses_an_interior_pointer_past_the_payload() {
        let probe = vec![0, 10, 5];
        match CsrGraph::from_raw_parts(probe.clone(), vec![0, 1, 0, 1, 0], vec![1.0; 5]) {
            Err(GraphError::MalformedCsr(detail)) => {
                assert_eq!(detail, "row_ptr not monotone at row 1")
            }
            other => panic!("expected a malformed graph, got {other:?}"),
        }
        match CscMatrix::from_raw_parts(2, 2, probe.clone(), vec![0, 1, 0, 1, 0], vec![1.0; 5]) {
            Err(SparseError::Malformed(detail)) => assert_eq!(detail, "col_ptr not monotone at 1"),
            other => panic!("expected a malformed matrix, got {other:?}"),
        }
        // Row 0 holds all five entries in five runs, so a `run_ptr` that
        // overshoots reads past the runs unless the pointer check runs
        // first; the `row_ptr` probe keeps one run per row.
        let deltas = vec![0u16, 1, 2, 3, 4];
        let store = |row_ptr: Vec<usize>, run_ptr: Vec<usize>, runs: Vec<u32>| {
            let base = vec![0; runs.len()];
            let (deltas, values) = (deltas.clone(), vec![1.0; 5]);
            ProximityStore::from_raw_parts(2, 8, row_ptr, run_ptr, base, runs, deltas, values)
        };
        for refused in [
            store(vec![0, 5, 5], probe.clone(), vec![1, 2, 3, 4, 5]),
            store(probe.clone(), vec![0, 1, 2], vec![5, 5]),
        ] {
            match refused {
                Err(SparseError::Malformed(detail)) => {
                    assert_eq!(detail, "row 1: decreasing pointer")
                }
                other => panic!("expected a malformed store, got {other:?}"),
            }
        }
    }

    /// Each fault of a raw-array constructor's input is named in that
    /// input's own terms: a CSC matrix's `col_ptr`, `row_idx`, rows and
    /// columns, and a CSR matrix's `row_ptr`, `col_idx`, columns and rows.
    #[test]
    fn raw_parts_faults_name_the_inputs_own_arrays_and_axes() {
        use crate::CsrMatrix;
        // Each fault as the arrays of a 2 × 3 CSC matrix and of a 3 × 2
        // CSR matrix (the same three lines of at most two entries), and
        // the message each must give.
        let cases = [
            (
                vec![0, 1, 2, 2],
                vec![0, 1],
                vec![1.0],
                "row_idx and values length mismatch",
                "col_idx and values length mismatch",
            ),
            (
                vec![0, 1, 2],
                vec![0, 1],
                vec![1.0; 2],
                "col_ptr length must be ncols + 1",
                "row_ptr length must be nrows + 1",
            ),
            (
                vec![0, 1, 2, 3],
                vec![0, 1],
                vec![1.0; 2],
                "col_ptr bounds are inconsistent",
                "row_ptr bounds are inconsistent",
            ),
            (
                vec![0, 2, 1, 2],
                vec![0, 1],
                vec![1.0; 2],
                "col_ptr not monotone at 1",
                "row_ptr not monotone at 1",
            ),
            (
                vec![0, 1, 2, 2],
                vec![0, 5],
                vec![1.0; 2],
                "row 5 out of bounds",
                "column 5 out of bounds",
            ),
            (
                vec![0, 0, 2, 2],
                vec![1, 0],
                vec![1.0; 2],
                "rows not strictly increasing in column 1",
                "columns not strictly increasing in row 1",
            ),
            (
                vec![0, 0, 2, 2],
                vec![0, 1],
                vec![f64::NAN, 1.0],
                "non-finite value at (0, 1)",
                "non-finite value at (1, 0)",
            ),
        ];
        for (ptr, idx, vals, csc, csr) in cases {
            let got = CscMatrix::from_raw_parts(2, 3, ptr.clone(), idx.clone(), vals.clone());
            assert_eq!(got.unwrap_err(), SparseError::Malformed(csc.into()));
            let got = CsrMatrix::from_raw_parts(3, 2, ptr, idx, vals);
            assert_eq!(got.unwrap_err(), SparseError::Malformed(csr.into()));
        }
    }

    fn sample() -> CscMatrix {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        CscMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (2, 0, 4.0), (1, 1, 3.0), (0, 2, 2.0), (2, 2, 5.0)])
            .unwrap()
    }

    #[test]
    fn triplet_construction() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(0, 0), Some(1.0));
        assert_eq!(m.get(2, 2), Some(5.0));
        assert_eq!(m.get(1, 0), None);
        let (rows, vals) = m.col(0);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[1.0, 4.0]);
    }

    #[test]
    fn duplicates_sum_and_zeros_drop() {
        let m = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 1.0), (1, 1, -1.0)])
            .unwrap();
        assert_eq!(m.get(0, 0), Some(3.0));
        assert_eq!(m.get(1, 1), None);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn bounds_and_nan_rejected() {
        assert!(CscMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CscMatrix::from_triplets(2, 2, &[(0, 0, f64::NAN)]).is_err());
    }

    #[test]
    fn transpose_matches_dense() {
        let m = sample();
        let t = m.transpose();
        let d = m.to_dense();
        let td = t.to_dense();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(d[r][c], td[c][r]);
            }
        }
        assert_eq!(t.transpose(), m);
    }

    /// The banded scatter against the triplet constructor, on shapes that
    /// get one band (sparse), several, and a last band shorter than the
    /// others: rows, order and value bits all match.
    #[test]
    fn banded_transpose_matches_the_triplet_transpose() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for (nrows, ncols, density) in [(700, 700, 0.3), (1000, 90, 0.5), (600, 600, 0.005)] {
            let mut trips: Vec<(Index, Index, f64)> = Vec::new();
            for c in 0..ncols as Index {
                for r in 0..nrows as Index {
                    if rng.gen_bool(density) {
                        trips.push((r, c, rng.gen_range(-1.0..1.0)));
                    }
                }
            }
            let m = CscMatrix::from_triplets(nrows, ncols, &trips).unwrap();
            let swapped: Vec<_> = trips.iter().map(|&(r, c, v)| (c, r, v)).collect();
            let expect = CscMatrix::from_triplets(ncols, nrows, &swapped).unwrap();
            let got = m.transpose();
            let (ep, ei, ev) = expect.raw();
            let (gp, gi, gv) = got.raw();
            assert_eq!((ep, ei), (gp, gi), "{nrows}x{ncols}");
            assert!(ev.iter().zip(gv).all(|(a, b)| a.to_bits() == b.to_bits()), "{nrows}x{ncols}");
        }
    }

    #[test]
    fn matvec_and_transpose_matvec() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let y = m.matvec(&x);
        assert_eq!(y, vec![1.0 + 6.0, 6.0, 4.0 + 15.0]);
        let mut yt = vec![0.0; 3];
        m.matvec_transpose_add(&x, &mut yt);
        // A^T x: col c of A dot x
        assert_eq!(yt, vec![1.0 + 12.0, 6.0, 2.0 + 15.0]);
    }

    #[test]
    fn identity_and_zeros() {
        let i = CscMatrix::identity(3);
        assert_eq!(i.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
        let z = CscMatrix::zeros(2, 3);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.matvec(&[1.0, 1.0, 1.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn col_max_and_global_max() {
        let m = sample();
        assert_eq!(m.col_max(), vec![4.0, 3.0, 5.0]);
        assert_eq!(m.global_max(), 5.0);
        assert_eq!(CscMatrix::zeros(2, 2).col_max(), vec![0.0, 0.0]);
    }

    #[test]
    fn triangular_predicates() {
        let lower = CscMatrix::from_triplets(2, 2, &[(1, 0, 1.0)]).unwrap();
        assert!(lower.is_strictly_lower());
        assert!(!lower.is_upper());
        let diag = CscMatrix::identity(2);
        assert!(diag.is_upper());
        assert!(!diag.is_strictly_lower());
    }

    #[test]
    fn from_raw_parts_validation() {
        assert!(CscMatrix::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).is_ok());
        // bad col_ptr length
        assert!(CscMatrix::from_raw_parts(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 1.0]).is_err());
        // unsorted rows
        assert!(CscMatrix::from_raw_parts(2, 1, vec![0, 2], vec![1, 0], vec![1.0, 1.0]).is_err());
        // row out of bounds
        assert!(CscMatrix::from_raw_parts(2, 1, vec![0, 1], vec![7], vec![1.0]).is_err());
    }

    /// A non-finite value is named by its `(row, column)`, the first in
    /// column order — the same entry whether the arrays are a CSC's or
    /// the CSR's of the same matrix, whose first in storage order differs,
    /// or a blocked store's.
    #[test]
    fn a_non_finite_value_is_named_by_its_row_and_column() {
        let inf = f64::INFINITY;
        let csc = CscMatrix::from_raw_parts(
            3,
            3,
            vec![0, 1, 3, 4],
            vec![2, 0, 1, 2],
            vec![f64::NAN, inf, 1.0, 1.0],
        );
        let csr = crate::CsrMatrix::from_raw_parts(
            3,
            3,
            vec![0, 1, 2, 4],
            vec![1, 1, 0, 2],
            vec![inf, 1.0, f64::NAN, 1.0],
        );
        let named = SparseError::Malformed("non-finite value at (2, 0)".into());
        assert_eq!(csc.unwrap_err(), named);
        assert_eq!(csr.unwrap_err(), named);
        // A blocked store decodes the column: row 2's `NaN` sits in its
        // second run, past a block boundary, and comes before row 0's ∞.
        let store = ProximityStore::from_raw_parts(
            3,
            70_000,
            vec![0, 1, 2, 4],
            vec![0, 1, 2, 4],
            vec![65_536, 0, 0, 65_536],
            vec![1, 2, 3, 4],
            vec![4, 1, 0, 1],
            vec![inf, 1.0, 1.0, f64::NAN],
        );
        let named = SparseError::Malformed("non-finite value at (2, 65537)".into());
        assert_eq!(store.unwrap_err(), named);
    }

    #[test]
    fn map_values_keeps_pattern() {
        let m = sample().map_values(|v| v * 2.0);
        assert_eq!(m.get(2, 0), Some(8.0));
        assert_eq!(m.nnz(), 5);
    }

    #[test]
    fn splice_columns_matches_from_scratch() {
        let a = sample();
        let updates = vec![
            ColumnUpdate { col: 0, rows: vec![1], vals: vec![7.0] },
            ColumnUpdate { col: 2, rows: vec![0, 1, 2], vals: vec![1.0, 2.0, 3.0] },
        ];
        let spliced = a.splice_columns(&updates).unwrap();
        let scratch = CscMatrix::from_triplets(
            3,
            3,
            &[(1, 0, 7.0), (1, 1, 3.0), (0, 2, 1.0), (1, 2, 2.0), (2, 2, 3.0)],
        )
        .unwrap();
        assert_eq!(spliced, scratch);
        // Column 1 survived verbatim; zero-length updates empty a column.
        let emptied = a
            .splice_columns(&[ColumnUpdate { col: 1, rows: vec![], vals: vec![] }])
            .unwrap();
        assert_eq!(emptied.col(1).0.len(), 0);
        assert_eq!(emptied.col(0), a.col(0));
        assert_eq!(emptied.col(2), a.col(2));
        // Empty update list is the identity.
        assert_eq!(a.splice_columns(&[]).unwrap(), a);
    }

    #[test]
    fn splice_columns_validates() {
        let a = sample();
        // unsorted updates
        assert!(a
            .splice_columns(&[
                ColumnUpdate { col: 2, rows: vec![], vals: vec![] },
                ColumnUpdate { col: 0, rows: vec![], vals: vec![] },
            ])
            .is_err());
        // out-of-bounds column / row
        assert!(a.splice_columns(&[ColumnUpdate { col: 9, rows: vec![], vals: vec![] }]).is_err());
        assert!(a
            .splice_columns(&[ColumnUpdate { col: 0, rows: vec![5], vals: vec![1.0] }])
            .is_err());
        // length mismatch, unsorted rows, non-finite values
        assert!(a
            .splice_columns(&[ColumnUpdate { col: 0, rows: vec![0, 1], vals: vec![1.0] }])
            .is_err());
        assert!(a
            .splice_columns(&[ColumnUpdate { col: 0, rows: vec![1, 0], vals: vec![1.0, 2.0] }])
            .is_err());
        assert!(a
            .splice_columns(&[ColumnUpdate { col: 0, rows: vec![0], vals: vec![f64::NAN] }])
            .is_err());
    }
}
