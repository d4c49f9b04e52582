//! Triangular inversion under a drop tolerance — the crate's one public
//! spelling of `L⁻¹`, `U⁻¹`, of both at once (the build's, in one worker
//! pool) and of a re-solved column subset.
//!
//! Every function here takes `ε`, and `ε = 0` is the exact inverse: no
//! solve can truncate (`|x| < 0.0` holds for no float), every dropped mass
//! is exactly `0.0`, and the arrays are the exact ones bit for bit. There
//! is no second, exact-only spelling; the dense-exact index is the `ε = 0`
//! corner of this path.
//!
//! The exact inverses `L⁻¹` / `U⁻¹` are the index's memory wall: their
//! density is set by the reach closure of the ordering, and at scale the
//! stored nonzeros dwarf the graph itself. With `ε > 0` each column solve
//! zeroes an entry the moment it is final if its magnitude falls below
//! `ε` (when [`crate::triangular`]'s solve pops it). Because the entry is
//! killed *before* it propagates, truncation prunes the whole downstream
//! subtree it would have filled in — cutting build time and peak memory
//! together, not just the stored bytes.
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
//! Every function here runs the one worker pool of [`crate::inverse`], so:
//!
//! * per-column solves are independent, so the output is **bit-identical**
//!   at every thread count;
//! * a re-solved column is bit-identical to the same column of the full
//!   inversion at the same `ε`;
//! * errors report the lowest failing column at every thread count.

use crate::inverse::{invert_columns_truncated, invert_factors_truncated, invert_truncated};
use crate::triangular::{wide_axpy, TailRule};
use crate::{
    ColumnUpdate, CscMatrix, CsrMatrix, Index, InvertOptions, LuFactors, Result, SolveTally,
    SparseError, Triangle,
};

/// A sparsified triangular inverse plus its per-column dropped ℓ₁ masses:
/// stored by columns, or by rows where [`sparsify_factors_with`] hands
/// `Ũ⁻¹` over as the query engine reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsifiedInverse<M = CscMatrix> {
    /// The truncated inverse; diagonals are protected and always present.
    pub inverse: M,
    /// `dropped[j]` = Σ |x_i| over entries truncated from column `j`.
    /// All-zero when `ε == 0` or nothing fell below the tolerance.
    pub dropped: Vec<f64>,
    /// What the column solves did: their multiply-subtracts and how many
    /// ran in the factor's dense tail. The same at every thread count.
    pub tally: SolveTally,
}

/// Both inverses of one LU factorisation (what [`sparsify_factors_with`]
/// returns): `L̃⁻¹` by columns, `Ũ⁻¹` by rows, each with its dropped
/// masses — per *column* for both — and its solves' tally.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsifiedFactors {
    /// `L̃⁻¹`, exactly [`sparsify_lower_unit_with`]'s output.
    pub linv: SparsifiedInverse,
    /// `Ũ⁻¹` in row order: the rows of [`sparsify_upper_with`]'s output,
    /// bit for bit what [`CsrMatrix::from_csc`] makes of it.
    pub uinv: SparsifiedInverse<CsrMatrix>,
}

/// Re-solved columns plus their dropped masses, parallel to the requested
/// column subset (what [`sparsify_columns_with`] returns).
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

/// `L⁻¹` of a unit lower triangle given its strictly-lower part (diagonal
/// implicit, as produced by [`crate::sparse_lu`]), truncating entries below
/// `eps` during each column solve (`0.0` = exact). The unit diagonal is the
/// protected seed and is always stored explicitly, so column `q` is
/// directly the vector `L⁻¹ e_q` used at query time.
pub fn sparsify_lower_unit_with(
    l: &CscMatrix,
    eps: f64,
    options: InvertOptions,
) -> Result<SparsifiedInverse> {
    validate_drop_tolerance(eps)?;
    invert_truncated(l, Triangle::Lower, eps, options, TailRule::STRUCTURAL, wide_axpy())
}

/// `U⁻¹` of an upper triangle with stored diagonal, truncating entries
/// below `eps` (`0.0` = exact). The diagonal entry `1/U_jj` is the
/// protected seed of column `j` and always survives.
pub fn sparsify_upper_with(
    u: &CscMatrix,
    eps: f64,
    options: InvertOptions,
) -> Result<SparsifiedInverse> {
    validate_drop_tolerance(eps)?;
    invert_truncated(u, Triangle::Upper, eps, options, TailRule::STRUCTURAL, wide_axpy())
}

/// `L⁻¹` and `U⁻¹` of `factors` under one drop tolerance `eps` (`0.0` =
/// exact), from one worker pool: the build's inversion stage. Each
/// inverse is bit-identical to its per-triangle spelling
/// ([`sparsify_lower_unit_with`], and [`CsrMatrix::from_csc`] of
/// [`sparsify_upper_with`]) at every thread count, and so are the dropped
/// masses and tallies; an error is the one those two return in turn —
/// `L`'s first, else `U`'s lowest failing column (factors that are not
/// square and of one size fail before any solve). The pool's workers move
/// to the other triangle when theirs runs dry, and `U⁻¹` is written into
/// row order once, while `L⁻¹`'s last columns are still being solved
/// ([`crate::inverse`]).
pub fn sparsify_factors_with(
    factors: &LuFactors,
    eps: f64,
    options: InvertOptions,
) -> Result<SparsifiedFactors> {
    validate_drop_tolerance(eps)?;
    invert_factors_truncated(factors, eps, options, TailRule::STRUCTURAL, wide_axpy())
}

/// Re-solves a column subset (sorted strictly ascending) of the inverse of
/// one factor — `Lower` read with its implicit unit diagonal, `Upper` with
/// its stored one — under drop tolerance `eps` (`0.0` = exact), returning
/// each column's update plus its dropped mass. This is the numeric core of
/// the dynamic-update engine: after the reach analysis
/// ([`crate::reach::inverse_dirty_columns`]) bounds the dirty set, only
/// these columns are paid for, and every returned column is bit-identical
/// to the same column of [`sparsify_lower_unit_with`] /
/// [`sparsify_upper_with`] output at the same `eps`.
pub fn sparsify_columns_with(
    t: &CscMatrix,
    triangle: Triangle,
    columns: &[Index],
    eps: f64,
    options: InvertOptions,
) -> Result<SparsifiedColumns> {
    validate_drop_tolerance(eps)?;
    invert_columns_truncated(t, triangle, columns, eps, options)
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_bit_identical(a: &CscMatrix, b: &CscMatrix, tag: &str) {
        let (ap, ai, av) = a.raw();
        let (bp, bi, bv) = b.raw();
        assert_eq!(ap, bp, "{tag}: col_ptr differs");
        assert_eq!(ai, bi, "{tag}: row_idx differs");
        assert_eq!(bits(av), bits(bv), "{tag}: values differ");
    }

    /// The truncated twin of `inverse::tests::parallel_inversion_is_bit_identical`:
    /// arrays and dropped masses match the sequential run *bit for bit*.
    #[test]
    fn sparsified_parallel_is_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(43);
        for trial in 0..4 {
            let n = rng.gen_range(10..50usize);
            let w = random_w(&mut rng, n, 0.25);
            let f = sparse_lu(&w).unwrap();
            for eps in [1e-8, 1e-4, 1e-2] {
                let seq = sparsify_lower_unit_with(&f.l, eps, InvertOptions::default()).unwrap();
                let sequ = sparsify_upper_with(&f.u, eps, InvertOptions::default()).unwrap();
                for threads in [0usize, 2, 3, 16] {
                    let opts = InvertOptions { threads };
                    let par = sparsify_lower_unit_with(&f.l, eps, opts).unwrap();
                    let paru = sparsify_upper_with(&f.u, eps, opts).unwrap();
                    let tag = format!("trial {trial} eps {eps} threads {threads}");
                    assert_bit_identical(&seq.inverse, &par.inverse, &tag);
                    assert_bit_identical(&sequ.inverse, &paru.inverse, &tag);
                    assert_eq!(bits(&seq.dropped), bits(&par.dropped), "{tag}: linv masses");
                    assert_eq!(bits(&sequ.dropped), bits(&paru.dropped), "{tag}: uinv masses");
                }
            }
        }
    }

    #[test]
    fn sparsification_prunes_and_accounts_mass() {
        let mut rng = StdRng::seed_from_u64(47);
        let w = random_w(&mut rng, 40, 0.3);
        let f = sparse_lu(&w).unwrap();
        let exact = sparsify_lower_unit_with(&f.l, 0.0, InvertOptions::default()).unwrap();
        let sp = sparsify_lower_unit_with(&f.l, 1e-2, InvertOptions::default()).unwrap();
        let (sparse_nnz, exact_nnz) = (sp.inverse.nnz(), exact.inverse.nnz());
        assert!(sparse_nnz < exact_nnz, "{sparse_nnz} !< {exact_nnz}");
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

    /// The truncated twin of `inverse::tests::column_subset_solves_match_full_inversion`:
    /// every re-solved column and its mass are bit-identical to the full
    /// inversion's, for both triangles, at every thread count.
    #[test]
    fn column_subset_matches_full_sparsified_inversion() {
        let mut rng = StdRng::seed_from_u64(53);
        let eps = 1e-3;
        for trial in 0..4 {
            let n = rng.gen_range(8..40usize);
            let w = random_w(&mut rng, n, 0.3);
            let f = sparse_lu(&w).unwrap();
            let subset: Vec<Index> = (0..n as Index).filter(|j| j % 3 != 1).collect();
            let one = InvertOptions::default();
            let sides = [
                (&f.l, Triangle::Lower, sparsify_lower_unit_with(&f.l, eps, one).unwrap()),
                (&f.u, Triangle::Upper, sparsify_upper_with(&f.u, eps, one).unwrap()),
            ];
            for (t, triangle, full) in &sides {
                for threads in [1usize, 2, 5, 0] {
                    let tag = format!("trial {trial} {triangle:?} threads {threads}");
                    let opts = InvertOptions { threads };
                    let cols = sparsify_columns_with(t, *triangle, &subset, eps, opts).unwrap();
                    assert_eq!(cols.updates.len(), subset.len(), "{tag}");
                    for (u, mass) in cols.updates.iter().zip(&cols.dropped) {
                        let (rows, vals) = full.inverse.col(u.col);
                        assert_eq!(u.rows.as_slice(), rows, "{tag} col {}", u.col);
                        assert_eq!(bits(&u.vals), bits(vals), "{tag} col {}", u.col);
                        let full_mass = full.dropped[u.col as usize];
                        assert_eq!(mass.to_bits(), full_mass.to_bits(), "{tag} col {}", u.col);
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_tolerances_rejected() {
        let l = CscMatrix::from_triplets(2, 2, &[(1, 0, 1.0)]).unwrap();
        for bad in [-1e-9, f64::NAN, f64::INFINITY] {
            let err = sparsify_lower_unit_with(&l, bad, InvertOptions::default()).unwrap_err();
            assert!(matches!(err, SparseError::InvalidDropTolerance(_)), "{bad}: {err:?}");
        }
        assert!(validate_drop_tolerance(0.0).is_ok());
        assert!(validate_drop_tolerance(1e-3).is_ok());
    }
}
