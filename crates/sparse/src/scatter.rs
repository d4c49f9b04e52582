//! The scatter half of the scatter/gather proximity kernel.
//!
//! K-dash's query hot loop evaluates `p_u = c · (U⁻¹)ᵤ,⋆ · (L⁻¹ e_q)` for
//! every candidate `u`. The right-hand vector `L⁻¹ e_q` is *fixed for the
//! whole query*, so paying a two-pointer merge join
//! (`O(nnz(row) + nnz(col))`, [`crate::CsrMatrix::row_dot_sparse`]) per
//! candidate wastes a full scan of the query column every time. Instead:
//!
//! 1. **scatter** the query column once into a plain dense vector that is
//!    `+0.0` everywhere else ([`ScatteredColumn::load`], `O(nnz(col))`),
//! 2. **gather** each candidate's proximity over only the candidate row's
//!    nonzeros, multiplying *every* stored entry by `y[col]`
//!    unconditionally ([`crate::kernel`], `O(nnz(row))`, no branch).
//!
//! `load` stays `O(nnz)` instead of `O(n)` by remembering which positions
//! the previous load wrote and zeroing exactly those first.
//!
//! # Why the vector is zero-filled rather than stamped
//!
//! Until PR 14 the column carried an epoch-stamp array beside its values
//! and every gather probe checked the stamp first, on the premise that
//! most probes miss. Under the hybrid ordering the opposite holds: 92 % of
//! `U⁻¹`'s entries *and* 92 % of `L⁻¹`'s sit in the last 256 columns, and
//! the measured hit rate over the rows real queries gather is 0.72 on
//! `rmat-gather`, 0.48 on `serve-churn` and 0.95 on `dict-pruned`. A
//! branch that goes either way half the time costs more than the load it
//! guards, so the check is gone: an unmatched position now contributes
//! `v × 0.0`, which for finite `v` never changes a running sum that
//! started at `+0.0` — the one-accumulator gather
//! ([`crate::ResolvedKernel::reference`]) therefore stays **bit-identical** to
//! the merge join, which stays around as the independent reference.

use crate::Index;

/// A sparse column scattered into a dense vector: the loaded entries at
/// their positions, exactly `+0.0` everywhere else.
///
/// Reusable across queries: allocate once per worker (`12 bytes × n`),
/// then [`load`](ScatteredColumn::load) a new column per query.
#[derive(Debug, Clone)]
pub struct ScatteredColumn {
    /// The dense vector. Invariant: `+0.0` at every position outside
    /// `loaded` — the gather kernels multiply by it unconditionally.
    values: Vec<f64>,
    /// Positions the last [`load`](Self::load) wrote. Capacity `n` from
    /// construction, so remembering a column never allocates.
    loaded: Vec<Index>,
}

impl ScatteredColumn {
    /// An all-zero buffer for vectors of dimension `n`.
    pub fn new(n: usize) -> Self {
        ScatteredColumn { values: vec![0.0; n], loaded: Vec::with_capacity(n) }
    }

    /// Dimension this buffer serves.
    #[inline]
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Scatters the sparse vector `(idx, val)` as the new contents,
    /// zeroing whatever was loaded before. `O(nnz(previous) + nnz)`,
    /// allocation-free for columns of distinct positions.
    pub fn load(&mut self, idx: &[Index], val: &[f64]) {
        debug_assert_eq!(idx.len(), val.len());
        for &i in &self.loaded {
            self.values[i as usize] = 0.0;
        }
        self.loaded.clear();
        self.loaded.extend_from_slice(idx);
        for (&i, &v) in idx.iter().zip(val) {
            self.values[i as usize] = v;
        }
    }

    /// The dense vector: the loaded entries, `+0.0` elsewhere.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CscMatrix, CsrMatrix};
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

    fn random_sparse_vec(n: usize, density: f64, seed: u64) -> (Vec<Index>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for i in 0..n as Index {
            if rng.gen_bool(density) {
                idx.push(i);
                val.push(rng.gen_range(-1.0..1.0));
            }
        }
        (idx, val)
    }

    #[test]
    fn gather_is_bit_identical_to_merge_join() {
        for seed in 0..20u64 {
            let m = random_csr(30, 40, 0.2, seed);
            let (idx, val) = random_sparse_vec(40, 0.3, seed + 100);
            let mut buf = ScatteredColumn::new(40);
            buf.load(&idx, &val);
            for r in 0..30 as Index {
                let a = m.row_dot_sparse(r, &idx, &val);
                let b = m.row_dot_dense(r, buf.as_slice());
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} row {r}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn reload_drops_previous_column() {
        let m = random_csr(10, 10, 0.5, 3);
        let mut buf = ScatteredColumn::new(10);
        let (i1, v1) = random_sparse_vec(10, 0.8, 4);
        buf.load(&i1, &v1);
        let (i2, v2) = random_sparse_vec(10, 0.2, 5);
        buf.load(&i2, &v2);
        for r in 0..10 as Index {
            assert_eq!(
                m.row_dot_dense(r, buf.as_slice()).to_bits(),
                m.row_dot_sparse(r, &i2, &v2).to_bits(),
                "stale entries leaked into row {r}"
            );
        }
    }

    #[test]
    fn fresh_buffer_has_nothing_loaded() {
        let m = random_csr(5, 5, 0.6, 11);
        let buf = ScatteredColumn::new(5);
        assert!(buf.as_slice().iter().all(|v| v.to_bits() == 0));
        for r in 0..5 as Index {
            assert_eq!(m.row_dot_dense(r, buf.as_slice()), 0.0);
        }
    }

    #[test]
    fn empty_column_gathers_zero() {
        let m = random_csr(6, 6, 0.5, 7);
        let mut buf = ScatteredColumn::new(6);
        buf.load(&[], &[]);
        for r in 0..6 as Index {
            assert_eq!(m.row_dot_dense(r, buf.as_slice()), 0.0);
        }
    }

    /// The invariant the branch-free kernels rest on: whatever was loaded
    /// before — overlapping, disjoint, empty, an explicitly stored `0.0`
    /// or `-0.0`, the same column twice — every position outside the last
    /// load reads exactly `+0.0`, so the buffer is indistinguishable from
    /// a fresh one given that load alone.
    #[test]
    fn positions_outside_the_last_load_read_positive_zero() {
        let n = 64usize;
        let (dense_idx, dense_val) = random_sparse_vec(n, 0.9, 1);
        let (sparse_idx, sparse_val) = random_sparse_vec(n, 0.1, 2);
        let loads: Vec<(Vec<Index>, Vec<f64>)> = vec![
            (dense_idx.clone(), dense_val.clone()),
            (sparse_idx.clone(), sparse_val.clone()), // overlaps the dense one
            (vec![0, 1, 2], vec![1.0, 2.0, 3.0]),
            (vec![61, 62, 63], vec![-1.0, -2.0, -3.0]), // disjoint from the last
            (vec![], vec![]),
            (vec![5, 9, 40], vec![0.5, 0.0, -0.0]), // explicit zeros of both signs
            (vec![9], vec![7.0]),
            (sparse_idx.clone(), sparse_val.clone()),
            (sparse_idx, sparse_val), // the same column again
            (dense_idx, dense_val),
        ];
        let m = random_csr(20, n, 0.4, 3);
        let mut reused = ScatteredColumn::new(n);
        for (step, (idx, val)) in loads.iter().enumerate() {
            reused.load(idx, val);
            let mut fresh = ScatteredColumn::new(n);
            fresh.load(idx, val);
            for (i, (a, b)) in reused.as_slice().iter().zip(fresh.as_slice()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "step {step} position {i}");
                if !idx.contains(&(i as Index)) {
                    assert_eq!(a.to_bits(), 0, "step {step}: position {i} must read +0.0");
                }
            }
            for r in 0..20 as Index {
                assert_eq!(
                    m.row_dot_dense(r, reused.as_slice()).to_bits(),
                    m.row_dot_sparse(r, idx, val).to_bits(),
                    "step {step} row {r}"
                );
            }
        }
    }
}
