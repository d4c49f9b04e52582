//! Drop-tolerance sparsified triangular inverses.
//!
//! The exact inverses `L⁻¹` / `U⁻¹` are the index's memory wall: their
//! density is set by the reach closure of the ordering, and at scale the
//! stored nonzeros dwarf the graph itself. This module computes *sparsified*
//! inverses: each column solve runs with a drop tolerance `ε` that zeroes an
//! entry the moment it is final if its magnitude falls below `ε`
//! ([`SolveWorkspace::solve_truncated`]). Because the entry is killed
//! *before* it propagates, truncation prunes the whole downstream subtree it
//! would have filled in — cutting build time and peak memory together, not
//! just the stored bytes.
//!
//! The result is an approximation, and the per-column dropped ℓ₁ mass is
//! returned alongside each inverse so callers can account for it. Exactness
//! is restored at query time by certified residual refinement against the
//! stored graph (see `kdash-core`'s `Searcher`): the refinement loop treats
//! the sparsified inverses as a preconditioner and terminates only once a
//! rigorous residual bound separates the top-k set and order, so answers
//! remain exact — the dropped mass only shifts work from DRAM-bound gather
//! to a few cache-friendly correction passes.
//!
//! Every driver here is the one column driver of [`crate::inverse`] run
//! with `ε`, so the properties carry over:
//!
//! * per-column solves are independent, so the output is **bit-identical**
//!   at every thread count;
//! * with `ε == 0` the solves are the exact ones, so the output arrays are
//!   bit-identical to [`crate::invert_lower_unit_with`] /
//!   [`crate::invert_upper_with`] and every dropped mass is exactly `0.0`;
//! * errors report the lowest failing column at every thread count.

use crate::inverse::{invert_columns_truncated, invert_truncated};
use crate::triangular::TailRule;
use crate::{
    ColumnUpdate, CscMatrix, Index, InvertOptions, Result, SolveTally, SparseError, Triangle,
};

/// A sparsified triangular inverse plus its per-column dropped ℓ₁ masses.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsifiedInverse {
    /// The truncated inverse; diagonals are protected and always present.
    pub inverse: CscMatrix,
    /// `dropped[j]` = Σ |x_i| over entries truncated from column `j`.
    /// All-zero when `ε == 0` or nothing fell below the tolerance.
    pub dropped: Vec<f64>,
    /// What the column solves did: their multiply-subtracts and how many
    /// ran in the factor's dense tail. The same at every thread count.
    pub tally: SolveTally,
}

/// Re-solved sparsified columns plus their dropped masses, parallel to the
/// requested column subset (the dynamic-engine counterpart of
/// [`crate::invert_columns_with`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SparsifiedColumns {
    /// One update per requested column, sorted ascending by column.
    pub updates: Vec<ColumnUpdate>,
    /// `dropped[k]` is the mass truncated from `updates[k]`'s solve.
    pub dropped: Vec<f64>,
}

/// Validates a drop tolerance: must be finite and non-negative.
pub fn validate_drop_tolerance(eps: f64) -> Result<()> {
    if !eps.is_finite() || eps < 0.0 {
        return Err(SparseError::InvalidDropTolerance(eps));
    }
    Ok(())
}

/// Sparsified [`crate::invert_lower_unit_with`]: inverts a unit lower
/// triangle, truncating entries below `eps` during each column solve. The
/// unit diagonal is the protected seed and is always stored explicitly.
pub fn sparsify_lower_unit_with(
    l: &CscMatrix,
    eps: f64,
    options: InvertOptions,
) -> Result<SparsifiedInverse> {
    validate_drop_tolerance(eps)?;
    let (inverse, dropped, tally) =
        invert_truncated(l, Triangle::Lower, true, eps, options, TailRule::STRUCTURAL)?;
    Ok(SparsifiedInverse { inverse, dropped, tally })
}

/// Sparsified [`crate::invert_upper_with`]: inverts an upper triangle with
/// stored diagonal, truncating entries below `eps`. The diagonal entry
/// `1/U_jj` is the protected seed of column `j` and always survives.
pub fn sparsify_upper_with(
    u: &CscMatrix,
    eps: f64,
    options: InvertOptions,
) -> Result<SparsifiedInverse> {
    validate_drop_tolerance(eps)?;
    let (inverse, dropped, tally) =
        invert_truncated(u, Triangle::Upper, false, eps, options, TailRule::STRUCTURAL)?;
    Ok(SparsifiedInverse { inverse, dropped, tally })
}

/// Sparsified [`crate::invert_columns_with`]: re-solves a sorted column
/// subset under drop tolerance `eps`, returning each column's update plus
/// its dropped mass. This is what the dynamic-update engine runs so spliced
/// columns keep the sparsified tier's invariants: every returned column is
/// bit-identical to the same column of [`sparsify_lower_unit_with`] /
/// [`sparsify_upper_with`] output at the same `eps`.
pub fn sparsify_columns_with(
    t: &CscMatrix,
    triangle: Triangle,
    unit_diag: bool,
    columns: &[Index],
    eps: f64,
    options: InvertOptions,
) -> Result<SparsifiedColumns> {
    validate_drop_tolerance(eps)?;
    let (updates, dropped) =
        invert_columns_truncated(t, triangle, unit_diag, columns, eps, options)?;
    Ok(SparsifiedColumns { updates, dropped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse_lu;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_w(rng: &mut StdRng, n: usize, density: f64) -> CscMatrix {
        let mut trips: Vec<(Index, Index, f64)> = Vec::new();
        let mut col_sum = vec![0.0f64; n];
        for j in 0..n as Index {
            for i in 0..n as Index {
                if i != j && rng.gen_bool(density) {
                    let v: f64 = -rng.gen_range(0.01..0.5);
                    trips.push((i, j, v));
                    col_sum[j as usize] += v.abs();
                }
            }
        }
        for (j, &cs) in col_sum.iter().enumerate() {
            trips.push((j as Index, j as Index, cs + 0.6));
        }
        CscMatrix::from_triplets(n, n, &trips).unwrap()
    }

    fn assert_bit_identical(a: &CscMatrix, b: &CscMatrix, tag: &str) {
        let (ap, ai, av) = a.raw();
        let (bp, bi, bv) = b.raw();
        assert_eq!(ap, bp, "{tag}: col_ptr differs");
        assert_eq!(ai, bi, "{tag}: row_idx differs");
        let abits: Vec<u64> = av.iter().map(|v| v.to_bits()).collect();
        let bbits: Vec<u64> = bv.iter().map(|v| v.to_bits()).collect();
        assert_eq!(abits, bbits, "{tag}: values differ");
    }

    #[test]
    fn zero_eps_is_bit_identical_to_exact_inversion() {
        let mut rng = StdRng::seed_from_u64(41);
        let w = random_w(&mut rng, 24, 0.3);
        let f = sparse_lu(&w).unwrap();
        let exact_l = crate::invert_lower_unit(&f.l).unwrap();
        let exact_u = crate::invert_upper(&f.u).unwrap();
        let sl = sparsify_lower_unit_with(&f.l, 0.0, InvertOptions::sequential()).unwrap();
        let su = sparsify_upper_with(&f.u, 0.0, InvertOptions::sequential()).unwrap();
        assert_bit_identical(&exact_l, &sl.inverse, "linv");
        assert_bit_identical(&exact_u, &su.inverse, "uinv");
        assert!(sl.dropped.iter().chain(&su.dropped).all(|&m| m == 0.0));
        assert_eq!(sl.dropped.len(), 24);
    }

    #[test]
    fn sparsified_parallel_is_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(43);
        for trial in 0..4 {
            let n = rng.gen_range(10..50usize);
            let w = random_w(&mut rng, n, 0.25);
            let f = sparse_lu(&w).unwrap();
            for eps in [1e-8, 1e-4, 1e-2] {
                let seq = sparsify_lower_unit_with(&f.l, eps, InvertOptions::sequential()).unwrap();
                let sequ = sparsify_upper_with(&f.u, eps, InvertOptions::sequential()).unwrap();
                for threads in [0usize, 2, 3, 16] {
                    let opts = InvertOptions { threads };
                    let par = sparsify_lower_unit_with(&f.l, eps, opts).unwrap();
                    let paru = sparsify_upper_with(&f.u, eps, opts).unwrap();
                    let tag = format!("trial {trial} eps {eps} threads {threads}");
                    assert_bit_identical(&seq.inverse, &par.inverse, &tag);
                    assert_bit_identical(&sequ.inverse, &paru.inverse, &tag);
                    let db = |v: &Vec<f64>| v.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
                    assert_eq!(db(&seq.dropped), db(&par.dropped), "{tag}: linv masses");
                    assert_eq!(db(&sequ.dropped), db(&paru.dropped), "{tag}: uinv masses");
                }
            }
        }
    }

    #[test]
    fn sparsification_prunes_and_accounts_mass() {
        let mut rng = StdRng::seed_from_u64(47);
        let w = random_w(&mut rng, 40, 0.3);
        let f = sparse_lu(&w).unwrap();
        let exact = crate::invert_lower_unit(&f.l).unwrap();
        let sp = sparsify_lower_unit_with(&f.l, 1e-2, InvertOptions::sequential()).unwrap();
        assert!(sp.inverse.nnz() < exact.nnz(), "{} !< {}", sp.inverse.nnz(), exact.nnz());
        assert!(sp.dropped.iter().sum::<f64>() > 0.0);
        // Diagonals are protected: every column still leads with its seed.
        for j in 0..40 as Index {
            assert!(sp.inverse.get(j, j).is_some(), "column {j} lost its diagonal");
        }
        // No stored entry below the tolerance except the protected diagonal.
        for j in 0..40 as Index {
            let (rows, vals) = sp.inverse.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                if i != j {
                    assert!(v.abs() >= 1e-2, "({i},{j}) = {v} survived below eps");
                }
            }
        }
    }

    #[test]
    fn column_subset_matches_full_sparsified_inversion() {
        let mut rng = StdRng::seed_from_u64(53);
        let n = 30;
        let w = random_w(&mut rng, n, 0.3);
        let f = sparse_lu(&w).unwrap();
        let eps = 1e-3;
        let full = sparsify_upper_with(&f.u, eps, InvertOptions::sequential()).unwrap();
        let subset: Vec<Index> = (0..n as Index).filter(|j| j % 2 == 0).collect();
        for threads in [1usize, 3, 0] {
            let opts = InvertOptions { threads };
            let cols =
                sparsify_columns_with(&f.u, Triangle::Upper, false, &subset, eps, opts).unwrap();
            assert_eq!(cols.updates.len(), subset.len());
            for (k, u) in cols.updates.iter().enumerate() {
                let (rows, vals) = full.inverse.col(u.col);
                assert_eq!(u.rows.as_slice(), rows, "col {}", u.col);
                for (a, b) in u.vals.iter().zip(vals) {
                    assert_eq!(a.to_bits(), b.to_bits(), "col {}", u.col);
                }
                assert_eq!(
                    cols.dropped[k].to_bits(),
                    full.dropped[u.col as usize].to_bits(),
                    "col {} mass",
                    u.col
                );
            }
        }
    }

    #[test]
    fn invalid_tolerances_rejected() {
        let l = CscMatrix::from_triplets(2, 2, &[(1, 0, 1.0)]).unwrap();
        for bad in [-1e-9, f64::NAN, f64::INFINITY] {
            let err =
                sparsify_lower_unit_with(&l, bad, InvertOptions::sequential()).unwrap_err();
            assert!(matches!(err, SparseError::InvalidDropTolerance(_)), "{bad}: {err:?}");
        }
        assert!(validate_drop_tolerance(0.0).is_ok());
        assert!(validate_drop_tolerance(1e-3).is_ok());
    }
}
