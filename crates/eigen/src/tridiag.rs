//! Symmetric tridiagonal eigenproblem via implicit QL with Wilkinson
//! shifts.
//!
//! Lanczos reduces the big sparse operator to a small symmetric tridiagonal
//! matrix `T_k`; its eigenvalues are the Ritz values and its eigenvectors,
//! mapped back through the Lanczos basis, give the Ritz vectors. The
//! Lanczos iteration uses only the smallest Ritz pair, and it re-solves `T_k`
//! every fifth step. Accumulating every eigenvector, as EISPACK `tql2`
//! does, costs `O(k³)` per solve: on a 2,823-net band it took about 70%
//! of the whole Lanczos solve, against 3% for the operator products.
//!
//! So the QL rotation loop is shared by two entry points:
//!
//! * [`smallest_tridiagonal`] — the Lanczos path, `O(k²)`: the same
//!   rotations, tracking only row 0 of the eigenvector matrix, then the
//!   smallest eigenvector by inverse iteration in `O(k)`;
//! * [`eigh_tridiagonal`] — the full `tql2` decomposition, kept as the
//!   oracle the fast path is tested against.

use crate::EigenError;

/// Eigendecomposition of a symmetric tridiagonal matrix.
#[derive(Clone, Debug)]
pub struct TridiagEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// `vectors[j]` is the unit eigenvector for `values[j]` (length `n`).
    pub vectors: Vec<Vec<f64>>,
}

/// The implicit-QL iteration of EISPACK `tql2` on the matrix with
/// diagonal `diag` and subdiagonal `off`: returns its eigenvalues,
/// unsorted, and hands every plane rotation `(i, s, c)`, acting on columns
/// `i` and `i + 1` of the eigenvector matrix, to `rotate`.
///
/// Checks the shape (panicking: a caller bug) and finiteness (an error:
/// data-dependent) of the input.
fn ql_eigenvalues(
    diag: &[f64],
    off: &[f64],
    mut rotate: impl FnMut(usize, f64, f64),
) -> Result<Vec<f64>, EigenError> {
    let n = diag.len();
    assert!(n > 0, "empty tridiagonal matrix");
    assert_eq!(off.len() + 1, n, "subdiagonal length must be n - 1");
    if !diag.iter().chain(off).all(|v| v.is_finite()) {
        return Err(EigenError::NonFinite {
            stage: "tridiagonal input",
        });
    }

    let mut d = diag.to_vec();
    // e[i] couples rows i and i+1; e[n-1] is a zero sentinel
    let mut e: Vec<f64> = off.to_vec();
    e.push(0.0);
    const EPS: f64 = f64::EPSILON;
    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // find the first decoupled position m >= l
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= EPS * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 64 {
                return Err(EigenError::NoConvergence {
                    iterations: iter,
                    residual: e[l].abs(),
                });
            }
            // Wilkinson shift
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            let sign_r = if g >= 0.0 { r } else { -r };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // recover from underflow: deflate and restart this l
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                rotate(i, s, c);
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(d)
}

/// Computes all eigenvalues and eigenvectors of the symmetric tridiagonal
/// matrix with diagonal `diag` (length `n`) and subdiagonal `off`
/// (length `n − 1`).
///
/// Implicit QL with Wilkinson shifts; eigenpairs are returned sorted by
/// ascending eigenvalue. `O(n³)`: when only the smallest pair is needed,
/// [`smallest_tridiagonal`] computes it in `O(n²)`.
///
/// # Errors
///
/// * [`EigenError::NonFinite`] if any input entry is NaN or infinite —
///   Lanczos feeds this solver values computed from operator output, so a
///   poisoned operator surfaces here as a recoverable error;
/// * [`EigenError::NoConvergence`] if the QL iteration exceeds its (very
///   generous) sweep limit, which finite symmetric input never does.
///
/// # Panics
///
/// Panics if `off.len() + 1 != diag.len()` or if `diag` is empty — shape
/// mismatches are caller bugs, not data-dependent conditions.
///
/// # Example
///
/// ```
/// // T = [[2, 1], [1, 2]] has eigenvalues 1 and 3
/// let e = np_eigen::tridiag::eigh_tridiagonal(&[2.0, 2.0], &[1.0])?;
/// assert!((e.values[0] - 1.0).abs() < 1e-12);
/// assert!((e.values[1] - 3.0).abs() < 1e-12);
/// # Ok::<(), np_eigen::EigenError>(())
/// ```
pub fn eigh_tridiagonal(diag: &[f64], off: &[f64]) -> Result<TridiagEigen, EigenError> {
    let n = diag.len();
    // z is row-major n×n; column j will be the eigenvector of d[j]
    let mut z = vec![0.0f64; n * n];
    for i in 0..n {
        z[i * n + i] = 1.0;
    }
    let d = ql_eigenvalues(diag, off, |i, s, c| {
        for row in z.chunks_exact_mut(n) {
            let f = row[i + 1];
            row[i + 1] = s * row[i] + c * f;
            row[i] = c * row[i] - s * f;
        }
    })?;

    // sort ascending, permuting eigenvector columns alongside (input was
    // verified finite, so total_cmp agrees with the numeric order here)
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].total_cmp(&d[b]));
    let values: Vec<f64> = order.iter().map(|&j| d[j]).collect();
    let vectors: Vec<Vec<f64>> = order
        .iter()
        .map(|&j| (0..n).map(|k| z[k * n + j]).collect())
        .collect();
    Ok(TridiagEigen { values, vectors })
}

/// Computes the smallest eigenvalue of the symmetric tridiagonal matrix
/// with diagonal `diag` and subdiagonal `off`, and a unit eigenvector
/// for it, in `O(n²)`.
///
/// The eigenvalue is bit-identical to [`eigh_tridiagonal`]'s `values[0]`:
/// the QL rotations are the same, and so is the `total_cmp` choice of the
/// smallest. Only row 0 of the eigenvector matrix is accumulated
/// (`O(1)` per rotation). The vector comes from three sweeps of inverse
/// iteration on `T − θI` (tridiagonal LU with partial pivoting, pivots
/// floored at `ε·‖T‖`), signed so that its first entry agrees with the
/// tracked row-0 entry: the orientation `eigh_tridiagonal` would return.
/// Where the smallest eigenvalue is well separated, the two vectors agree
/// to rounding.
///
/// # Errors
///
/// As [`eigh_tridiagonal`].
///
/// # Panics
///
/// As [`eigh_tridiagonal`].
///
/// # Example
///
/// ```
/// // T = [[2, 1], [1, 2]]: smallest pair 1, ±(1, −1)/√2
/// let (theta, y) = np_eigen::tridiag::smallest_tridiagonal(&[2.0, 2.0], &[1.0])?;
/// assert!((theta - 1.0).abs() < 1e-12);
/// assert!((y[0] + y[1]).abs() < 1e-12);
/// # Ok::<(), np_eigen::EigenError>(())
/// ```
pub fn smallest_tridiagonal(diag: &[f64], off: &[f64]) -> Result<(f64, Vec<f64>), EigenError> {
    lowest_ritz(diag, off).map(|r| (r.theta, r.y))
}

/// The smallest eigenpair of a tridiagonal `T`, as [`smallest_tridiagonal`]
/// returns it, and the next eigenvalue up.
pub(crate) struct LowestRitz {
    /// The smallest eigenvalue.
    pub theta: f64,
    /// Its unit eigenvector.
    pub y: Vec<f64>,
    /// The second-smallest eigenvalue `θ₂` and the magnitude of the last
    /// entry of its unit eigenvector; `None` for a 1×1 matrix.
    pub second: Option<(f64, f64)>,
}

/// [`smallest_tridiagonal`] plus the second-smallest eigenvalue, whose
/// eigenvector's last entry costs one more `O(n)` inverse iteration.
pub(crate) fn lowest_ritz(diag: &[f64], off: &[f64]) -> Result<LowestRitz, EigenError> {
    let n = diag.len();
    // row 0 of the eigenvector matrix eigh_tridiagonal accumulates
    let mut z0 = vec![0.0f64; n];
    z0[0] = 1.0;
    let d = ql_eigenvalues(diag, off, |i, s, c| {
        let f = z0[i + 1];
        z0[i + 1] = s * z0[i] + c * f;
        z0[i] = c * z0[i] - s * f;
    })?;
    // the first minimum, as the stable sort in eigh_tridiagonal puts first
    let j = (0..n)
        .min_by(|&a, &b| d[a].total_cmp(&d[b]))
        .expect("nonempty");
    let theta = d[j];
    let mut y = inverse_iteration(diag, off, theta);
    if y[0] * z0[j] < 0.0 {
        for v in &mut y {
            *v = -*v;
        }
    }
    let second = (0..n)
        .filter(|&i| i != j)
        .min_by(|&a, &b| d[a].total_cmp(&d[b]))
        .map(|i| (d[i], inverse_iteration(diag, off, d[i])[n - 1].abs()));
    Ok(LowestRitz { theta, y, second })
}

/// A unit vector in the (near-)null space of `T − θI` for an eigenvalue
/// `θ` of `T`: three sweeps of inverse iteration.
///
/// `T − θI` is factored once, `P(T − θI) = LU` with partial pivoting
/// (LAPACK `dgttrf`: `L` unit lower bidiagonal, `U` upper with two
/// superdiagonals); pivots below `ε·‖T‖` are raised to it, so a singular
/// shift stays solvable. Each sweep scales the right-hand side to
/// ∞-norm `ε·‖T‖`, so the one near-zero pivot amplifies it to order one
/// instead of overflowing.
fn inverse_iteration(diag: &[f64], off: &[f64], theta: f64) -> Vec<f64> {
    let n = diag.len();
    let norm = (0..n)
        .map(|i| {
            let left = if i > 0 { off[i - 1].abs() } else { 0.0 };
            let right = if i + 1 < n { off[i].abs() } else { 0.0 };
            diag[i].abs() + left + right
        })
        .fold(0.0f64, f64::max);
    let floor = (f64::EPSILON * norm).max(f64::MIN_POSITIVE);

    // factor: u0 the diagonal of U, u1/u2 its superdiagonals, l the
    // multipliers of L, swap[i] whether rows i and i + 1 were exchanged
    let mut u0: Vec<f64> = diag.iter().map(|&v| v - theta).collect();
    let mut u1: Vec<f64> = off.to_vec();
    let mut u2 = vec![0.0f64; n.saturating_sub(2)];
    let mut l: Vec<f64> = off.to_vec();
    let mut swap = vec![false; n.saturating_sub(1)];
    for i in 0..n.saturating_sub(1) {
        if u0[i].abs() >= l[i].abs() {
            if u0[i] != 0.0 {
                let fact = l[i] / u0[i];
                l[i] = fact;
                u0[i + 1] -= fact * u1[i];
            }
        } else {
            swap[i] = true;
            let fact = u0[i] / l[i];
            u0[i] = l[i];
            l[i] = fact;
            let t = u1[i];
            u1[i] = u0[i + 1];
            u0[i + 1] = t - fact * u0[i + 1];
            if i + 2 < n {
                u2[i] = u1[i + 1];
                u1[i + 1] *= -fact;
            }
        }
    }
    for p in &mut u0 {
        if p.abs() < floor {
            *p = if *p < 0.0 { -floor } else { floor };
        }
    }

    // the first sweep solves U y = 1 alone (EISPACK `tinvit`): its implied
    // start vector Pᵀ L 1 is not orthogonal to the wanted eigenvector by
    // mere symmetry, as the all-ones vector can be
    let mut y = vec![1.0f64; n];
    for sweep in 0..3 {
        let peak = y.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let scale = floor / peak;
        for v in &mut y {
            *v *= scale;
        }
        if sweep > 0 {
            // forward: L b = P y
            for i in 0..n - 1 {
                if swap[i] {
                    let t = y[i];
                    y[i] = y[i + 1];
                    y[i + 1] = t - l[i] * y[i];
                } else {
                    y[i + 1] -= l[i] * y[i];
                }
            }
        }
        // back: U y = b
        for i in (0..n).rev() {
            let mut v = y[i];
            if i + 1 < n {
                v -= u1[i] * y[i + 1];
            }
            if i + 2 < n {
                v -= u2[i] * y[i + 2];
            }
            y[i] = v / u0[i];
        }
    }
    let norm2 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
    for v in &mut y {
        *v /= norm2;
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tridiag_matvec(diag: &[f64], off: &[f64], x: &[f64]) -> Vec<f64> {
        let n = diag.len();
        let mut y = vec![0.0; n];
        for i in 0..n {
            y[i] = diag[i] * x[i];
            if i > 0 {
                y[i] += off[i - 1] * x[i - 1];
            }
            if i + 1 < n {
                y[i] += off[i] * x[i + 1];
            }
        }
        y
    }

    fn check_decomposition(diag: &[f64], off: &[f64]) {
        let e = eigh_tridiagonal(diag, off).unwrap();
        let n = diag.len();
        // ascending
        assert!(e.values.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        for (lambda, v) in e.values.iter().zip(&e.vectors) {
            // unit norm
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-10, "norm {norm}");
            // residual ‖Tv − λv‖ small
            let tv = tridiag_matvec(diag, off, v);
            let resid: f64 = tv
                .iter()
                .zip(v)
                .map(|(a, b)| (a - lambda * b).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(resid < 1e-9, "residual {resid} for λ={lambda}");
        }
        // pairwise orthogonality
        for i in 0..n {
            for j in i + 1..n {
                let d: f64 = e.vectors[i]
                    .iter()
                    .zip(&e.vectors[j])
                    .map(|(a, b)| a * b)
                    .sum();
                assert!(d.abs() < 1e-9, "vectors {i},{j} not orthogonal: {d}");
            }
        }
    }

    #[test]
    fn one_by_one() {
        let e = eigh_tridiagonal(&[5.0], &[]).unwrap();
        assert_eq!(e.values, vec![5.0]);
        assert_eq!(e.vectors, vec![vec![1.0]]);
    }

    #[test]
    fn two_by_two_exact() {
        let e = eigh_tridiagonal(&[2.0, 2.0], &[1.0]).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_matrix() {
        let e = eigh_tridiagonal(&[3.0, 1.0, 2.0], &[0.0, 0.0]).unwrap();
        assert_eq!(e.values, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn path_laplacian_eigenvalues() {
        // Laplacian of the path P4: eigenvalues 2 - 2cos(kπ/4), k=0..3
        let diag = [1.0, 2.0, 2.0, 1.0];
        let off = [-1.0, -1.0, -1.0];
        let e = eigh_tridiagonal(&diag, &off).unwrap();
        for (k, ev) in e.values.iter().enumerate() {
            let expect = 2.0 - 2.0 * (std::f64::consts::PI * k as f64 / 4.0).cos();
            assert!((ev - expect).abs() < 1e-10, "k={k}: {ev} vs {expect}");
        }
        check_decomposition(&diag, &off);
    }

    #[test]
    fn random_matrices_satisfy_decomposition() {
        // deterministic pseudo-random tridiagonal matrices
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for n in [2usize, 3, 5, 8, 20, 40] {
            let diag: Vec<f64> = (0..n).map(|_| 4.0 * next()).collect();
            let off: Vec<f64> = (0..n - 1).map(|_| 2.0 * next()).collect();
            check_decomposition(&diag, &off);
        }
    }

    #[test]
    fn trace_preserved() {
        let diag = [1.0, -2.0, 3.5, 0.25];
        let off = [0.5, -1.5, 2.0];
        let e = eigh_tridiagonal(&diag, &off).unwrap();
        let trace: f64 = diag.iter().sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "subdiagonal length")]
    fn wrong_off_length_panics() {
        let _ = eigh_tridiagonal(&[1.0, 2.0], &[1.0, 1.0]);
    }

    #[test]
    fn nan_input_errors() {
        for (diag, off) in [
            (vec![1.0, f64::NAN], vec![0.5]),
            (vec![1.0, 2.0], vec![f64::INFINITY]),
            (vec![f64::NEG_INFINITY, 2.0], vec![0.5]),
        ] {
            assert_eq!(
                eigh_tridiagonal(&diag, &off).unwrap_err(),
                EigenError::NonFinite {
                    stage: "tridiagonal input"
                }
            );
        }
    }
}
