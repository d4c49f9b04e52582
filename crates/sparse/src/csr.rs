//! Compressed sparse row matrices.
//!
//! K-dash stores `U⁻¹` row-major: computing one node's proximity
//! `p_u = c · (U⁻¹)ᵤ,⋆ · (L⁻¹ e_q)` is then a single sparse-row ·
//! sparse-column dot product (§4.2.1 of the paper).

use crate::csc::transpose_columns;
use crate::{CscMatrix, Index, Result};

/// A sparse matrix in compressed-sparse-row form. Column indices within a
/// row are strictly increasing.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<Index>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Converts a CSC matrix into CSR form (`O(nnz)`): one counting
    /// transpose, written straight into the row arrays.
    pub fn from_csc(csc: &CscMatrix) -> CsrMatrix {
        let (row_ptr, col_idx, values) = transpose_columns(csc.nrows(), csc.columns());
        CsrMatrix { nrows: csc.nrows(), ncols: csc.ncols(), row_ptr, col_idx, values }
    }

    /// Wraps CSR arrays that hold every invariant by construction (a
    /// transpose of column solves whose values the caller checked). Debug
    /// builds validate them anyway.
    pub(crate) fn from_trusted_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<Index>,
        values: Vec<f64>,
    ) -> CsrMatrix {
        let as_csc = CscMatrix::from_trusted_parts(ncols, nrows, row_ptr, col_idx, values);
        let (row_ptr, col_idx, values) = as_csc.into_parts();
        CsrMatrix { nrows, ncols, row_ptr, col_idx, values }
    }

    /// Builds directly from CSR arrays with validation.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<Index>,
        values: Vec<f64>,
    ) -> Result<Self> {
        // The CSC validator, on the transposed interpretation.
        crate::csc::validate_parts(ncols, nrows, &row_ptr, &col_idx, &values, true)?;
        Ok(CsrMatrix { nrows, ncols, row_ptr, col_idx, values })
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
        self.col_idx.len()
    }

    /// Column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: Index) -> (&[Index], &[f64]) {
        let r = r as usize;
        let range = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[range.clone()], &self.values[range])
    }

    /// Entry `(r, c)` if stored.
    pub fn get(&self, r: Index, c: Index) -> Option<f64> {
        let (cols, vals) = self.row(r);
        cols.binary_search(&c).ok().map(|i| vals[i])
    }

    /// Dot product of row `r` with a dense vector, one accumulator in
    /// storage order. Over a [`crate::ScatteredColumn`] this is the
    /// reference-order gather ([`crate::ResolvedKernel::reference`]): every
    /// unmatched position adds `v × 0.0`, which for finite `v` leaves a sum
    /// that started at `+0.0` bit-identical to
    /// [`row_dot_sparse`](Self::row_dot_sparse)'s.
    #[inline]
    pub fn row_dot_dense(&self, r: Index, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.ncols);
        let (cols, vals) = self.row(r);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * x[c as usize];
        }
        acc
    }

    /// Dot product of row `r` with a sparse vector given as parallel sorted
    /// `(indices, values)` slices. Two-pointer merge: `O(nnz_row + nnz_vec)`.
    pub fn row_dot_sparse(&self, r: Index, idx: &[Index], val: &[f64]) -> f64 {
        debug_assert_eq!(idx.len(), val.len());
        let (cols, vals) = self.row(r);
        let mut acc = 0.0;
        let (mut a, mut b) = (0usize, 0usize);
        while a < cols.len() && b < idx.len() {
            match cols[a].cmp(&idx[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    acc += vals[a] * val[b];
                    a += 1;
                    b += 1;
                }
            }
        }
        acc
    }

    /// Dense `y = A · x` (row-major traversal).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "x length mismatch");
        (0..self.nrows as Index).map(|r| self.row_dot_dense(r, x)).collect()
    }

    /// Converts back to CSC form: the counting transpose of the rows.
    pub fn to_csc(&self) -> CscMatrix {
        let rows = (0..self.nrows as Index).map(|r| self.row(r));
        let (col_ptr, row_idx, values) = transpose_columns(self.ncols, rows);
        CscMatrix::from_trusted_parts(self.nrows, self.ncols, col_ptr, row_idx, values)
    }

    /// Consumes the matrix into its raw arrays `(row_ptr, col_idx,
    /// values)` — the zero-copy handoff the blocked re-encoder uses (the
    /// value array moves over untouched).
    pub fn into_raw_parts(self) -> (Vec<usize>, Vec<Index>, Vec<f64>) {
        (self.row_ptr, self.col_idx, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_csc() -> CscMatrix {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        CscMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (2, 0, 4.0), (1, 1, 3.0), (0, 2, 2.0), (2, 2, 5.0)])
            .unwrap()
    }

    #[test]
    fn csc_roundtrip() {
        let csc = sample_csc();
        let csr = CsrMatrix::from_csc(&csc);
        assert_eq!(csr.nnz(), csc.nnz());
        assert_eq!(csr.get(0, 2), Some(2.0));
        assert_eq!(csr.get(2, 0), Some(4.0));
        assert_eq!(csr.get(1, 0), None);
        assert_eq!(csr.to_csc(), csc);
    }

    #[test]
    fn row_access_sorted() {
        let csr = CsrMatrix::from_csc(&sample_csc());
        let (cols, vals) = csr.row(2);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[4.0, 5.0]);
    }

    #[test]
    fn matvec_matches_csc() {
        let csc = sample_csc();
        let csr = CsrMatrix::from_csc(&csc);
        let x = [1.0, -1.0, 0.5];
        assert_eq!(csr.matvec(&x), csc.matvec(&x));
    }

    #[test]
    fn row_dot_dense_and_sparse_agree() {
        let csr = CsrMatrix::from_csc(&sample_csc());
        let dense = [0.5, 0.0, 2.0];
        let idx = [0 as Index, 2];
        let val = [0.5, 2.0];
        for r in 0..3 {
            let d = csr.row_dot_dense(r, &dense);
            let s = csr.row_dot_sparse(r, &idx, &val);
            assert!((d - s).abs() < 1e-15, "row {r}: {d} vs {s}");
        }
    }

    #[test]
    fn row_dot_sparse_disjoint_is_zero() {
        let csr = CsrMatrix::from_csc(&sample_csc());
        // row 1 has only column 1; sparse vector on {0, 2}
        assert_eq!(csr.row_dot_sparse(1, &[0, 2], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn from_raw_parts_validates() {
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).is_ok());
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 3], vec![0], vec![1.0]).is_err());
    }
}
