//! Eigensolvers for spectral ratio-cut partitioning.
//!
//! The partitioning pipeline needs one specific eigenpair: the
//! second-smallest eigenvalue `λ₂` of a graph Laplacian `Q = D − A` and its
//! eigenvector (the *Fiedler vector*), whose sorted entries give the linear
//! ordering that drives every algorithm in the paper. The paper uses a
//! block Lanczos code; this crate gets the same pair from a single-vector
//! solver (`DESIGN.md` §4) and implements:
//!
//! * [`lanczos`] — single-vector Lanczos with full reorthogonalization and
//!   explicit deflation of known eigenvectors (the all-ones nullvector of a
//!   connected Laplacian), with restarts;
//! * [`tridiag`] — the implicit-QL-with-shifts solver for the small
//!   symmetric tridiagonal systems Lanczos produces: the full
//!   decomposition, and the smallest eigenpair alone in `O(k²)`, which is
//!   all Lanczos needs;
//! * [`dense`] — a cyclic Jacobi solver used as ground truth in tests and
//!   as a direct solver for small operators;
//! * [`fiedler`] — the high-level entry point: the Fiedler pair of a
//!   graph Laplacian.
//!
//! # Example
//!
//! ```
//! use np_eigen::{fiedler, LanczosOptions};
//! use np_sparse::{Laplacian, TripletBuilder};
//!
//! // two triangles joined by one edge: the Fiedler vector separates them
//! let mut b = TripletBuilder::new(6);
//! for &(i, j) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
//!     b.push_sym(i, j, 1.0);
//! }
//! let q = Laplacian::from_adjacency(b.into_csr());
//! let pair = fiedler(&q, &LanczosOptions::default())?;
//! let split_consistent = (pair.vector[0] > 0.0) == (pair.vector[1] > 0.0);
//! assert!(split_consistent);
//! assert!((pair.vector[0] > 0.0) != (pair.vector[5] > 0.0));
//! # Ok::<(), np_eigen::EigenError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod dense;
mod error;
pub mod lanczos;
pub mod tridiag;

pub use error::EigenError;
pub use lanczos::{smallest_deflated, smallest_deflated_metered, EigenPair, LanczosOptions};

use np_sparse::{BudgetMeter, LinearOperator};

/// Computes the Fiedler pair (`λ₂` and its eigenvector) of a graph
/// Laplacian.
///
/// The all-ones nullvector is deflated analytically, so the smallest
/// eigenvalue seen by the Lanczos iteration *is* `λ₂`. For a disconnected
/// graph `λ₂ = 0` and the returned vector is a (normalized) combination of
/// component indicators orthogonal to all-ones — still a valid ordering
/// vector, which is how the downstream sweep code recovers zero-cut splits.
///
/// Accepts any [`LinearOperator`] that applies a graph Laplacian — the
/// factored [`Laplacian`](np_sparse::Laplacian) itself or its row-sharded
/// [`ThreadedLaplacian`](np_sparse::ThreadedLaplacian) wrapper, whose
/// matvecs are bit-identical to serial, so the computed pair (and the
/// iteration count) is independent of the thread count.
///
/// # Errors
///
/// Returns [`EigenError::NoConvergence`] if the iteration fails to reach
/// the requested tolerance within the configured restarts, and
/// [`EigenError::TooSmall`] for operators of dimension `< 2`.
pub fn fiedler(lap: &impl LinearOperator, opts: &LanczosOptions) -> Result<EigenPair, EigenError> {
    fiedler_metered(lap, opts, &BudgetMeter::unlimited())
}

/// [`fiedler`] with cooperative budget enforcement: every matvec charges
/// `meter` once — regardless of how many threads a sharded operator used
/// to execute it — and exhaustion surfaces as [`EigenError::Budget`] with
/// the partial spend attached. Non-finite operator output is reported as
/// [`EigenError::NonFinite`] instead of corrupting the iteration.
///
/// # Errors
///
/// The [`fiedler`] errors plus [`EigenError::Budget`] and
/// [`EigenError::NonFinite`].
pub fn fiedler_metered(
    lap: &impl LinearOperator,
    opts: &LanczosOptions,
    meter: &BudgetMeter,
) -> Result<EigenPair, EigenError> {
    let n = lap.dim();
    if n < 2 {
        return Err(EigenError::TooSmall { dim: n });
    }
    let ones = vec![1.0 / (n as f64).sqrt(); n];
    lanczos::smallest_deflated_metered(lap, &[ones], opts, meter)
}
