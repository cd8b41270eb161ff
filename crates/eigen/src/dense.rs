//! Dense symmetric eigensolver (cyclic Jacobi).
//!
//! Used as ground truth in tests (Lanczos results are validated against it
//! on small operators) and as a direct solver when an operator is small
//! enough that the iterative machinery is pointless.

use crate::EigenError;
use np_sparse::{BudgetMeter, LinearOperator};

/// Eigendecomposition of a dense symmetric matrix.
#[derive(Clone, Debug)]
pub struct DenseEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// `vectors[j]` is the unit eigenvector for `values[j]`.
    pub vectors: Vec<Vec<f64>>,
}

/// Computes all eigenpairs of the dense symmetric matrix `a` (row-major,
/// `n × n`) with the cyclic Jacobi method.
///
/// Only the lower triangle is read; the matrix is assumed symmetric.
///
/// # Panics
///
/// Panics if `a.len() != n * n` or if the input contains non-finite
/// values. Use [`try_jacobi_eigen`] when the matrix entries come from
/// untrusted or numerically suspect sources.
///
/// # Example
///
/// ```
/// let e = np_eigen::dense::jacobi_eigen(&[2.0, 1.0, 1.0, 2.0], 2);
/// assert!((e.values[0] - 1.0).abs() < 1e-12);
/// assert!((e.values[1] - 3.0).abs() < 1e-12);
/// ```
pub fn jacobi_eigen(a: &[f64], n: usize) -> DenseEigen {
    try_jacobi_eigen(a, n, &BudgetMeter::unlimited()).expect("non-finite input to jacobi_eigen")
}

/// Fallible, metered variant of [`jacobi_eigen`]: returns
/// [`EigenError::NonFinite`] for NaN/∞ entries and
/// [`EigenError::NoConvergence`] if the sweep limit is exceeded, instead
/// of panicking. It checks `meter` (without charging it) before each
/// pivot row of every sweep, so a spent budget or a cancellation ends an
/// `O(n³)` solve within one row's rotations.
///
/// # Errors
///
/// The errors above, plus [`EigenError::Budget`] when the meter trips.
///
/// # Panics
///
/// Panics if `a.len() != n * n` (a shape mismatch is a caller bug).
pub fn try_jacobi_eigen(
    a: &[f64],
    n: usize,
    meter: &BudgetMeter,
) -> Result<DenseEigen, EigenError> {
    assert_eq!(a.len(), n * n, "matrix buffer must be n*n");
    if n == 0 {
        return Ok(DenseEigen {
            values: Vec::new(),
            vectors: Vec::new(),
        });
    }
    if !a.iter().all(|v| v.is_finite()) {
        return Err(EigenError::NonFinite {
            stage: "dense matrix input",
        });
    }
    let mut m = a.to_vec();
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    let off = |m: &[f64]| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in 0..i {
                s += m[i * n + j] * m[i * n + j];
            }
        }
        s
    };
    let mut sweeps = 0;
    while off(&m) > 1e-24 * (n * n) as f64 {
        sweeps += 1;
        if sweeps > 100 {
            return Err(EigenError::NoConvergence {
                iterations: sweeps,
                residual: off(&m).sqrt(),
            });
        }
        for p in 0..n {
            meter.check()?;
            for q in p + 1..n {
                let apq = m[p * n + q];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // rotate rows/cols p and q
                for k in 0..n {
                    let akp = m[k * n + p];
                    let akq = m[k * n + q];
                    m[k * n + p] = c * akp - s * akq;
                    m[k * n + q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = m[p * n + k];
                    let aqk = m[q * n + k];
                    m[p * n + k] = c * apk - s * aqk;
                    m[q * n + k] = s * apk + c * aqk;
                }
                for k in 0..n {
                    let vkp = v[k * n + p];
                    let vkq = v[k * n + q];
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }
    // input was verified finite, so total_cmp matches the numeric order
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| m[x * n + x].total_cmp(&m[y * n + y]));
    Ok(DenseEigen {
        values: order.iter().map(|&j| m[j * n + j]).collect(),
        vectors: order
            .iter()
            .map(|&j| (0..n).map(|k| v[k * n + j]).collect())
            .collect(),
    })
}

/// Materializes any [`LinearOperator`] into a dense row-major buffer by
/// applying it to the standard basis. `O(n)` operator applications — for
/// tests and small direct solves only.
pub fn materialize(op: &impl LinearOperator) -> Vec<f64> {
    materialize_metered(op, &BudgetMeter::unlimited()).expect("an unlimited meter never trips")
}

/// [`materialize`] that checks `meter` (without charging it) before each
/// column.
pub(crate) fn materialize_metered(
    op: &impl LinearOperator,
    meter: &BudgetMeter,
) -> Result<Vec<f64>, EigenError> {
    let n = op.dim();
    let mut a = vec![0.0f64; n * n];
    let mut e = vec![0.0f64; n];
    let mut col = vec![0.0f64; n];
    for j in 0..n {
        meter.check()?;
        e[j] = 1.0;
        op.apply(&e, &mut col);
        for i in 0..n {
            a[i * n + j] = col[i];
        }
        e[j] = 0.0;
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_sparse::{Laplacian, TripletBuilder};

    #[test]
    fn metered_solve_stops_on_a_tripped_meter() {
        // the check runs inside the sweep, not only before the solve
        let meter = BudgetMeter::unlimited();
        meter.cancel();
        let err = try_jacobi_eigen(&[2.0, 1.0, 1.0, 2.0], 2, &meter).unwrap_err();
        assert!(matches!(err, EigenError::Budget(_)), "{err:?}");
    }

    #[test]
    fn two_by_two() {
        let e = jacobi_eigen(&[2.0, 1.0, 1.0, 2.0], 2);
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix() {
        let e = jacobi_eigen(&[], 0);
        assert!(e.values.is_empty());
    }

    #[test]
    fn identity_eigenvalues_all_one() {
        let mut a = vec![0.0; 16];
        for i in 0..4 {
            a[i * 4 + i] = 1.0;
        }
        let e = jacobi_eigen(&a, 4);
        for v in e.values {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn residuals_and_orthogonality() {
        // pseudo-random symmetric matrix
        let n = 8;
        let mut state = 99u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let x = next();
                a[i * n + j] = x;
                a[j * n + i] = x;
            }
        }
        let e = jacobi_eigen(&a, n);
        for (lambda, vec_) in e.values.iter().zip(&e.vectors) {
            let mut resid = 0.0;
            for i in 0..n {
                let mut av = 0.0;
                for j in 0..n {
                    av += a[i * n + j] * vec_[j];
                }
                resid += (av - lambda * vec_[i]).powi(2);
            }
            assert!(resid.sqrt() < 1e-9, "residual {}", resid.sqrt());
        }
        for i in 0..n {
            for j in i + 1..n {
                let d: f64 = e.vectors[i]
                    .iter()
                    .zip(&e.vectors[j])
                    .map(|(a, b)| a * b)
                    .sum();
                assert!(d.abs() < 1e-9);
            }
        }
    }

    #[test]
    fn laplacian_smallest_eigenvalue_zero() {
        let mut b = TripletBuilder::new(4);
        b.push_sym(0, 1, 1.0);
        b.push_sym(1, 2, 1.0);
        b.push_sym(2, 3, 1.0);
        b.push_sym(3, 0, 1.0);
        let q = Laplacian::from_adjacency(b.into_csr());
        let a = materialize(&q);
        let e = jacobi_eigen(&a, 4);
        assert!(e.values[0].abs() < 1e-12);
        // cycle C4 eigenvalues: 0, 2, 2, 4
        assert!((e.values[1] - 2.0).abs() < 1e-10);
        assert!((e.values[3] - 4.0).abs() < 1e-10);
    }

    #[test]
    fn try_variant_rejects_non_finite() {
        let e = try_jacobi_eigen(
            &[1.0, f64::NAN, f64::NAN, 1.0],
            2,
            &BudgetMeter::unlimited(),
        )
        .unwrap_err();
        assert_eq!(
            e,
            EigenError::NonFinite {
                stage: "dense matrix input"
            }
        );
        let e = try_jacobi_eigen(&[f64::INFINITY], 1, &BudgetMeter::unlimited()).unwrap_err();
        assert!(matches!(e, EigenError::NonFinite { .. }));
    }

    #[test]
    #[should_panic(expected = "non-finite input")]
    fn panicking_variant_still_panics_on_nan() {
        jacobi_eigen(&[f64::NAN], 1);
    }

    #[test]
    fn materialize_roundtrip() {
        let mut b = TripletBuilder::new(3);
        b.push_sym(0, 2, 5.0);
        let m = b.into_csr();
        let a = materialize(&m);
        assert_eq!(a[2], 5.0);
        assert_eq!(a[2 * 3], 5.0);
        assert_eq!(a[4], 0.0); // entry (1,1)
    }
}
