//! # kdash-linalg
//!
//! Dense linear algebra built from scratch for the K-dash reproduction.
//! The approximate baselines of the paper (NB_LIN / B_LIN, Tong et al.,
//! ICDM 2006) need a low-rank SVD of the transition matrix and small dense
//! inverses; no external BLAS/LAPACK is permitted in this workspace, so the
//! required kernels are implemented here:
//!
//! * [`DenseMatrix`] — row-major dense matrices with the usual operations,
//! * [`qr::thin_qr`] — Modified Gram–Schmidt with re-orthogonalisation,
//! * [`eigen::jacobi_symmetric`] — cyclic Jacobi eigensolver,
//! * [`svd::randomized_svd`] — Halko–Martinsson–Tropp style randomized SVD
//!   over sparse matrices (power iterations + small eigenproblem),
//! * [`solve`] — dense LU with partial pivoting (solve / invert).
//!
//! Accuracy targets are those of the baselines: a good rank-`t`
//! approximation, not bit-exact LAPACK parity.

#![forbid(unsafe_code)]

pub mod dense;
pub mod eigen;
pub mod qr;
pub mod solve;
pub mod svd;

pub use dense::DenseMatrix;
pub use eigen::jacobi_symmetric;
pub use qr::thin_qr;
pub use solve::{invert_dense, solve_dense, DenseLu};
pub use svd::{randomized_svd, Svd, SvdOptions};

/// Errors from dense kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Dimension mismatch between operands.
    DimensionMismatch(String),
    /// Matrix was singular to working precision.
    Singular { pivot: usize },
    /// An iterative routine failed to converge.
    NoConvergence { iterations: usize, residual: f64 },
    /// Invalid parameter (rank 0, oversampling, ...).
    InvalidParameter(String),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch(m) => write!(f, "dimension mismatch: {m}"),
            LinalgError::Singular { pivot } => write!(f, "singular matrix at pivot {pivot}"),
            LinalgError::NoConvergence { iterations, residual } => {
                write!(f, "no convergence after {iterations} iterations (residual {residual})")
            }
            LinalgError::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
