//! Row-major dense matrices.

use crate::{LinalgError, Result};

/// A dense `nrows x ncols` matrix stored row-major in one contiguous `Vec`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// All-zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix { nrows, ncols, data: vec![0.0; nrows * ncols] }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds from a closure over `(row, col)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in 0..nrows {
            for c in 0..ncols {
                data.push(f(r, c));
            }
        }
        DenseMatrix { nrows, ncols, data }
    }

    /// Builds from nested row vectors (all rows must have equal length).
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(LinalgError::DimensionMismatch(format!(
                    "row {i} has {} entries, expected {ncols}",
                    row.len()
                )));
            }
            data.extend_from_slice(row);
        }
        Ok(DenseMatrix { nrows, ncols, data })
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

    /// Entry accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.nrows && c < self.ncols);
        self.data[r * self.ncols + c]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.nrows && c < self.ncols);
        self.data[r * self.ncols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Copy of column `c`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.nrows).map(|r| self.get(r, c)).collect()
    }

    /// Writes `values` into column `c`.
    pub fn set_col(&mut self, c: usize, values: &[f64]) {
        assert_eq!(values.len(), self.nrows);
        for (r, &v) in values.iter().enumerate() {
            self.set(r, c, v);
        }
    }

    /// Matrix product `self · rhs`.
    pub fn matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.ncols != rhs.nrows {
            return Err(LinalgError::DimensionMismatch(format!(
                "{}x{} · {}x{}",
                self.nrows, self.ncols, rhs.nrows, rhs.ncols
            )));
        }
        let mut out = DenseMatrix::zeros(self.nrows, rhs.ncols);
        // i-k-j loop order: streams through both row-major operands.
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// `selfᵀ · rhs` without materialising the transpose.
    pub fn transpose_matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.nrows != rhs.nrows {
            return Err(LinalgError::DimensionMismatch(format!(
                "({}x{})ᵀ · {}x{}",
                self.nrows, self.ncols, rhs.nrows, rhs.ncols
            )));
        }
        let mut out = DenseMatrix::zeros(self.ncols, rhs.ncols);
        for k in 0..self.nrows {
            let lhs_row = self.row(k);
            let rhs_row = rhs.row(k);
            for (i, &a) in lhs_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self · x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(LinalgError::DimensionMismatch(format!(
                "matvec: {}x{} · len-{}",
                self.nrows,
                self.ncols,
                x.len()
            )));
        }
        Ok((0..self.nrows)
            .map(|r| self.row(r).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// `selfᵀ · x`.
    pub fn transpose_matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.nrows {
            return Err(LinalgError::DimensionMismatch(format!(
                "transpose_matvec: ({}x{})ᵀ · len-{}",
                self.nrows,
                self.ncols,
                x.len()
            )));
        }
        let mut out = vec![0.0; self.ncols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(r)) {
                *o += a * xr;
            }
        }
        Ok(out)
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> DenseMatrix {
        DenseMatrix::from_fn(self.ncols, self.nrows, |r, c| self.get(c, r))
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Element-wise difference `self − rhs`.
    pub fn sub(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.nrows != rhs.nrows || self.ncols != rhs.ncols {
            return Err(LinalgError::DimensionMismatch("sub: shape mismatch".into()));
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Ok(DenseMatrix { nrows: self.nrows, ncols: self.ncols, data })
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = DenseMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
        assert!(DenseMatrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn matmul_small() {
        let a = DenseMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let ab = a.matmul(&b).unwrap();
        assert_eq!(ab, DenseMatrix::from_rows(vec![vec![2.0, 1.0], vec![4.0, 3.0]]).unwrap());
        assert!(a.matmul(&DenseMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn transpose_matmul_matches_explicit() {
        let a = DenseMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let b = DenseMatrix::from_rows(vec![vec![1.0], vec![0.5], vec![-1.0]]).unwrap();
        let explicit = a.transpose().matmul(&b).unwrap();
        let fused = a.transpose_matmul(&b).unwrap();
        assert_eq!(explicit, fused);
    }

    #[test]
    fn matvec_variants() {
        let a = DenseMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0, 11.0]);
        assert_eq!(a.transpose_matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![9.0, 12.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let a = DenseMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let i = DenseMatrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn norms() {
        let a = DenseMatrix::from_rows(vec![vec![3.0, 0.0], vec![0.0, -4.0]]).unwrap();
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn set_col_roundtrip() {
        let mut m = DenseMatrix::zeros(3, 2);
        m.set_col(1, &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![1.0, 2.0, 3.0]);
        assert_eq!(m.col(0), vec![0.0, 0.0, 0.0]);
    }
}
