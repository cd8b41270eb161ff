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
pub use lanczos::{
    smallest_deflated, smallest_deflated_metered, EigenPair, LanczosOptions, ORDERING_ANGLE,
};

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
/// The vector is solved only as far as an ordering needs: besides
/// `opts.tol`, the solve stops once its verified residual is at most
/// [`ORDERING_ANGLE`] times the guarded spectral gap
/// ([`EigenPair::gap`]), an angle of about `ORDERING_ANGLE` to the
/// eigenvector. It is returned with one sign: `Σvᵢ³ < 0`, or, where
/// that sum is within rounding of 0, its largest-magnitude component
/// negative (the lowest index among those that tie). Every caller sweeps
/// every prefix of the ordering, so the sign changes only which side is
/// called left, and it does not depend on the start vector. Callers
/// that need the eigenvalue to `opts.tol` call
/// [`smallest_deflated_metered`] with the all-ones vector deflated.
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
    let mut pair = lanczos::solve(lap, &[ones], opts, meter, lanczos::Stop::Ordering)?;
    orient(&mut pair.vector);
    Ok(pair)
}

/// Flips `v` so that `Σvᵢ³ < 0`. A sum within `√ε·Σ|vᵢ|³` of 0 is a tie,
/// decided by the sign of the first component whose magnitude is within
/// `√ε` (relative) of the largest: that one is made negative.
fn orient(v: &mut [f64]) {
    let tie = f64::EPSILON.sqrt();
    let skew: f64 = v.iter().map(|x| x * x * x).sum();
    let scale: f64 = v.iter().map(|x| (x * x * x).abs()).sum();
    let negative = if skew.abs() > tie * scale {
        skew < 0.0
    } else {
        let peak = v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        v.iter()
            .find(|x| x.abs() >= peak * (1.0 - tie))
            .is_some_and(|&x| x < 0.0)
    };
    if !negative {
        for x in v.iter_mut() {
            *x = -*x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{jacobi_eigen, materialize};
    use np_sparse::{Laplacian, TripletBuilder};

    fn path(n: usize) -> Laplacian {
        let mut b = TripletBuilder::new(n);
        for i in 0..n - 1 {
            b.push_sym(i, i + 1, 1.0);
        }
        Laplacian::from_adjacency(b.into_csr())
    }

    /// Two halves of `n / 2` vertices, each a ring with `3n` random
    /// chords inside, joined by four edges: `λ₂` well below `λ₃`.
    fn two_communities(n: usize, seed: u64) -> Laplacian {
        let half = n / 2;
        let mut s = seed;
        let mut next = move |m: usize| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize % m
        };
        let mut b = TripletBuilder::new(n);
        for base in [0, half] {
            for i in 0..half {
                b.push_sym(base + i, base + (i + 1) % half, 1.0);
            }
            for _ in 0..3 * half {
                let (i, j) = (next(half), next(half));
                if i != j {
                    b.push_sym(base + i, base + j, 1.0);
                }
            }
        }
        for _ in 0..4 {
            b.push_sym(next(half), half + next(half), 1.0);
        }
        Laplacian::from_adjacency(b.into_csr())
    }

    fn skew(v: &[f64]) -> f64 {
        v.iter().map(|x| x * x * x).sum()
    }

    /// The angle between the lines spanned by two unit vectors.
    fn angle(u: &[f64], v: &[f64]) -> f64 {
        let c: f64 = u.iter().zip(v).map(|(a, b)| a * b).sum();
        c.abs().min(1.0).acos()
    }

    fn seeded(seed: u64) -> LanczosOptions {
        LanczosOptions {
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn every_fiedler_vector_has_negative_skew() {
        // on the dense path (40) and the Lanczos path; a path graph, whose
        // Σv³ ties at 0, is the next test's
        for seed in 1..=4 {
            let opts = seeded(seed);
            for q in [two_communities(40, seed), two_communities(300, seed)] {
                let pair = fiedler(&q, &opts).unwrap();
                let s = skew(&pair.vector);
                assert!(s <= 0.0, "n = {}, seed {seed}: Σv³ = {s:e}", q.dim());
            }
        }
    }

    #[test]
    fn a_sign_tie_makes_the_first_largest_component_negative() {
        // a path's Fiedler vector is antisymmetric, so Σv³ is 0 up to
        // rounding and its two largest components, at the ends, tie in
        // magnitude; two vertices tie exactly
        for n in (2..=48).step_by(2) {
            let pair = fiedler(&path(n), &LanczosOptions::default()).unwrap();
            let v = &pair.vector;
            assert!(v[0] < 0.0 && v[n - 1] > 0.0, "n = {n}: {v:?}");
        }
    }

    #[test]
    fn a_well_separated_solve_stops_at_the_ordering_angle() {
        let n = 160;
        let q = two_communities(n, 7);
        let dense = jacobi_eigen(&materialize(&q), n);
        let exact_gap = dense.values[2] - dense.values[1];
        assert!(
            exact_gap > 10.0 * dense.values[1],
            "{:?}",
            &dense.values[..3]
        );
        let meter = BudgetMeter::unlimited();
        let pair = fiedler_metered(&q, &LanczosOptions::default(), &meter).unwrap();
        let ones = vec![1.0 / (n as f64).sqrt(); n];
        let full = smallest_deflated(&q, &[ones], &LanczosOptions::default()).unwrap();
        assert!(
            pair.matvecs < full.matvecs,
            "{} matvecs against {} to the tolerance",
            pair.matvecs,
            full.matvecs
        );
        assert_eq!(pair.matvecs, meter.matvecs_used());
        assert!(
            pair.gap > 0.0 && pair.gap <= exact_gap,
            "{} vs {exact_gap}",
            pair.gap
        );
        let a = angle(&pair.vector, &dense.vectors[1]);
        assert!(a <= ORDERING_ANGLE, "angle {a:e}");
    }

    #[test]
    fn a_long_paths_guarded_gap_stays_below_its_true_gap() {
        // λ₂ of a path is clustered with λ₃, λ₄, …, so the second Ritz
        // value converges last: unguarded, θ₂ − θ₁ overstates the gap
        // λ₃ − θ₁ the Davis–Kahan bound needs at every stop
        for n in [500, 1000] {
            let lambda3 = 2.0 - 2.0 * (2.0 * std::f64::consts::PI / n as f64).cos();
            let norm = (2.0 / n as f64).sqrt();
            let exact: Vec<f64> = (0..n)
                .map(|i| norm * (std::f64::consts::PI * (i as f64 + 0.5) / n as f64).cos())
                .collect();
            for seed in 1..=2 {
                let pair = fiedler(&path(n), &seeded(seed)).unwrap();
                let (gap, truth) = (pair.gap, lambda3 - pair.value);
                assert!(
                    gap > 0.0 && gap <= truth,
                    "n = {n}, seed {seed}: {gap:e} > {truth:e}"
                );
                let a = angle(&pair.vector, &exact);
                assert!(a <= ORDERING_ANGLE, "n = {n}, seed {seed}: angle {a:e}");
            }
        }
    }
}
