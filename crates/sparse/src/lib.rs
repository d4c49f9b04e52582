//! # kdash-sparse
//!
//! Sparse matrix kernels for the K-dash reproduction (*Fujiwara et al.,
//! PVLDB 2012*). Everything §4.2 of the paper needs:
//!
//! * [`CscMatrix`] / [`CsrMatrix`] — compressed sparse column/row storage,
//! * [`triangular`] — the crate-private sparse triangular solve with a
//!   *sparse* right-hand side (`O(flops)`, not `O(n)` per solve): one
//!   engine, shared with the LU, that pops the solution's positions in
//!   index order — the one numeric order — from a two-level bitset as
//!   their values arrive, so it finds the Gilbert–Peierls reach with no
//!   symbolic phase; under that order the factor's trailing, all-but-full
//!   columns are solved as a mirrored dense tail of contiguous AXPYs — the
//!   same bytes wherever it starts,
//! * [`lu`] — left-looking sparse LU factorisation `W = LU` following the
//!   paper's Equations (6)–(7) (Doolittle form: unit-diagonal `L`). `W` is
//!   strictly column diagonally dominant, so no pivoting is required; the
//!   dense tail grows a column at a time as the factor does,
//! * [`inverse`] — the one worker pool behind every inversion: `L⁻¹`
//!   and `U⁻¹` (Equations (4)–(5), computed as `n` sparse solves against
//!   unit vectors) and the re-solve of only a dirty column set for the
//!   dynamic-update engine, work-stealing and heavy-first, across both
//!   triangles when it inverts both,
//! * [`sparsify`] — that pool's public spellings, one per operation:
//!   [`sparsify_factors_with`] inverts both factors of an LU (`U⁻¹` by
//!   rows), [`sparsify_lower_unit_with`] / [`sparsify_upper_with`] invert
//!   one factor and [`sparsify_columns_with`] re-solves a column subset, each
//!   under a drop tolerance `ε` whose `0.0` is the **exact** inverse bit
//!   for bit. Entries below `ε > 0` are truncated *during* the column
//!   solves (before they propagate), with per-column dropped ℓ₁ masses
//!   returned so the query engine's certified residual refinement can
//!   repair answers back to exact,
//! * [`reach`] — Gilbert–Peierls reach analysis
//!   ([`inverse_dirty_columns`]): given the columns of a triangular
//!   factor that changed, the **exact** set of inverse columns that can
//!   differ — everything outside it is provably bit-identical,
//! * [`rwr`] — the column-normalised transition matrix `A` and
//!   `W = I − (1−c)A` built straight from a [`kdash_graph::CsrGraph`],
//! * [`scatter`] — the scatter half of the proximity kernel: the query
//!   column `L⁻¹ e_q` scattered once into a dense vector that is `+0.0`
//!   everywhere else ([`ScatteredColumn`]), so each candidate proximity is
//!   a branch-free gather over `O(nnz(row))`,
//! * [`kernel`] — the gather half: one four-lane arithmetic over the
//!   runs of a stored `U⁻¹` row, a portable body and its AVX2 twin
//!   (bit-identical to each other, within `1e-12` of the one-accumulator
//!   reference order, which is bit-identical to the merge join), dispatched
//!   on a host-validated [`ResolvedKernel`] token,
//! * [`store`] — [`ProximityStore`], the query engine's `U⁻¹` as one
//!   type: its rows in the blocked encoding (private arrays, set only by
//!   its constructors), the column sums the stop rule takes a query's
//!   mass from, and one gather entry point with byte-traffic counters and
//!   software-prefetch hooks; a row's [`RowStat`] (entry count and column
//!   span) is read off its encoding,
//! * `blocked` — the same type's second file, its row encoding: `u16`
//!   column deltas against aligned `u32` block anchors, ~half the index
//!   traffic of flat CSR on fill-dominated inverse rows, bit-identical
//!   values and results; the encoder, the validation of raw arrays and
//!   the splice's row merge that the store's constructors run.
//!
//! ## Conventions
//!
//! * `L` from the factorisation is unit lower triangular and stored
//!   *without* its diagonal. `U` stores its diagonal explicitly.
//! * The inverses store their diagonals explicitly (`L⁻¹` has ones,
//!   `U⁻¹` has `1/U_jj`), so a column of `L⁻¹` is directly the solution of
//!   `L x = e_j`.
//! * Column/row index arrays are sorted ascending; values are finite.

mod blocked;
pub mod csc;
pub mod csr;
pub mod inverse;
pub mod kernel;
pub mod lu;
pub mod reach;
pub mod rwr;
pub mod scatter;
pub mod sparsify;
pub mod store;
pub mod triangular;

pub use blocked::BLOCK_COLS;
pub use csc::{ColumnUpdate, CscMatrix};
pub use csr::CsrMatrix;
pub use inverse::{dense_tail_columns, InvertOptions};
pub use reach::{inverse_dirty_columns, refactor_candidates};
pub use kernel::{GatherCounters, GatherScratch, ResolvedKernel};
pub use lu::{
    refactor_columns, sparse_lu, sparse_lu_tallied, sparse_lu_with, LuFactors, RefactorReport,
};
pub use rwr::{transition_matrix, w_matrix, DanglingPolicy};
pub use scatter::ScatteredColumn;
pub use sparsify::{
    sparsify_columns_with, sparsify_factors_with, sparsify_lower_unit_with, sparsify_upper_with,
    validate_drop_tolerance, SparsifiedColumns, SparsifiedFactors, SparsifiedInverse,
};
pub use store::{ProximityStore, RowLayout, RowStat};
pub use triangular::{SolveTally, SolveWorkspace, Triangle};

/// Index type shared with `kdash-graph`.
pub type Index = kdash_graph::NodeId;

/// Errors from sparse kernel construction and factorisation.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// Inconsistent dimensions or malformed index arrays.
    Malformed(String),
    /// A pivot was zero (or absent) during LU — the matrix is singular.
    SingularPivot { column: usize, value: f64 },
    /// Operation requires a square matrix.
    NotSquare { nrows: usize, ncols: usize },
    /// Matrix is not triangular in the requested orientation.
    NotTriangular(String),
    /// Restart probability outside `(0, 1)`.
    InvalidRestartProbability(f64),
    /// Drop tolerance for sparsified inversion must be finite and `>= 0`.
    InvalidDropTolerance(f64),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::Malformed(m) => write!(f, "malformed sparse matrix: {m}"),
            SparseError::SingularPivot { column, value } => {
                write!(f, "singular pivot {value} at column {column}")
            }
            SparseError::NotSquare { nrows, ncols } => {
                write!(f, "matrix is {nrows}x{ncols}, expected square")
            }
            SparseError::NotTriangular(m) => write!(f, "matrix is not triangular: {m}"),
            SparseError::InvalidRestartProbability(c) => {
                write!(f, "restart probability {c} outside (0, 1)")
            }
            SparseError::InvalidDropTolerance(eps) => {
                write!(f, "drop tolerance {eps} must be finite and >= 0")
            }
        }
    }
}

impl std::error::Error for SparseError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SparseError>;
