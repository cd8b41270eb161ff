//! Property tests for the eigensolvers: Lanczos agrees with the dense
//! Jacobi ground truth on arbitrary small weighted graphs, the
//! tridiagonal QL solver satisfies the defining identities, and the
//! smallest-pair extractor agrees with the full QL decomposition.

use np_eigen::dense::{jacobi_eigen, materialize};
use np_eigen::tridiag::{eigh_tridiagonal, smallest_tridiagonal};
use np_eigen::{fiedler, LanczosOptions};
use np_sparse::{Laplacian, LinearOperator, TripletBuilder};
use np_testkit::{check_cases, Gen};

/// A connected weighted graph on `n` vertices (ring backbone + random
/// chords).
fn arb_graph(g: &mut Gen) -> Laplacian {
    let n = g.usize_in(3, 20);
    let chords = g.vec_with(0, 25, |g| {
        (
            g.usize_in(0, n - 1),
            g.usize_in(0, n - 1),
            g.f64_in(0.1, 3.0),
        )
    });
    let mut b = TripletBuilder::new(n);
    for i in 0..n {
        b.push_sym(i, (i + 1) % n, 1.0);
    }
    for (i, j, w) in chords {
        if i != j {
            b.push_sym(i, j, w);
        }
    }
    Laplacian::from_adjacency(b.into_csr())
}

#[test]
fn fiedler_matches_dense_lambda2() {
    check_cases(48, 0xE101, |g| {
        let q = arb_graph(g);
        let n = q.dim();
        let pair = fiedler(&q, &LanczosOptions::default()).unwrap();
        let dense = jacobi_eigen(&materialize(&q), n);
        // dense.values[0] = 0 (connected: ring backbone)
        assert!(dense.values[0].abs() < 1e-8);
        assert!(
            (pair.value - dense.values[1]).abs() < 1e-6,
            "lanczos {} vs dense {}",
            pair.value,
            dense.values[1]
        );
    });
}

#[test]
fn fiedler_residual_verified() {
    check_cases(48, 0xE103, |g| {
        let q = arb_graph(g);
        let n = q.dim();
        let pair = fiedler(&q, &LanczosOptions::default()).unwrap();
        let mut y = vec![0.0; n];
        q.apply(&pair.vector, &mut y);
        let resid: f64 = y
            .iter()
            .zip(&pair.vector)
            .map(|(a, b)| (a - pair.value * b).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(resid < 1e-6, "residual {resid}");
        let norm: f64 = pair.vector.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    });
}

#[test]
fn tridiagonal_identities() {
    check_cases(96, 0xE104, |g| {
        let diag = g.vec_with(1, 12, |g| g.f64_in(-5.0, 5.0));
        let scale = g.f64_in(0.1, 3.0);
        let n = diag.len();
        let off: Vec<f64> = (0..n.saturating_sub(1))
            .map(|i| scale * ((i as f64).sin()))
            .collect();
        let e = eigh_tridiagonal(&diag, &off).unwrap();
        // trace identity
        let trace: f64 = diag.iter().sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-8);
        // ascending order
        assert!(e.values.windows(2).all(|w| w[0] <= w[1] + 1e-10));
        // residuals
        for (lambda, v) in e.values.iter().zip(&e.vectors) {
            for i in 0..n {
                let mut tv = diag[i] * v[i];
                if i > 0 {
                    tv += off[i - 1] * v[i - 1];
                }
                if i + 1 < n {
                    tv += off[i] * v[i + 1];
                }
                assert!((tv - lambda * v[i]).abs() < 1e-7);
            }
        }
    });
}

/// A symmetric tridiagonal matrix of one of three shapes: random entries;
/// diagonals repeated from a three-value palette with weak couplings
/// (clustered eigenvalues); random entries with some couplings exactly
/// zero (decoupled blocks, possibly with equal eigenvalues across them).
fn arb_tridiagonal(g: &mut Gen) -> (Vec<f64>, Vec<f64>) {
    let n = g.usize_in(1, 40);
    match g.usize_in(0, 2) {
        0 => (
            (0..n).map(|_| g.f64_in(-5.0, 5.0)).collect(),
            (1..n).map(|_| g.f64_in(-2.0, 2.0)).collect(),
        ),
        1 => {
            let palette = [g.f64_in(-3.0, 3.0), g.f64_in(-3.0, 3.0), 1.0];
            let weak = g.f64_in(1e-9, 1e-3);
            (
                (0..n).map(|_| palette[g.usize_in(0, 2)]).collect(),
                (1..n).map(|_| weak * g.f64_in(-1.0, 1.0)).collect(),
            )
        }
        _ => {
            let diag = (0..n).map(|_| g.f64_in(-5.0, 5.0).round()).collect();
            let off = (1..n)
                .map(|_| if g.flip() { 0.0 } else { g.f64_in(-2.0, 2.0) })
                .collect();
            (diag, off)
        }
    }
}

/// `T x` for the tridiagonal matrix `(diag, off)`.
fn tridiag_apply(diag: &[f64], off: &[f64], x: &[f64]) -> Vec<f64> {
    let n = diag.len();
    (0..n)
        .map(|i| {
            let mut v = diag[i] * x[i];
            if i > 0 {
                v += off[i - 1] * x[i - 1];
            }
            if i + 1 < n {
                v += off[i] * x[i + 1];
            }
            v
        })
        .collect()
}

/// Checks `smallest_tridiagonal` against the `eigh_tridiagonal` oracle.
fn check_smallest_against_oracle(diag: &[f64], off: &[f64]) {
    let (theta, y) = smallest_tridiagonal(diag, off).unwrap();
    let full = eigh_tridiagonal(diag, off).unwrap();
    let n = diag.len();
    // the same rotations and the same choice of the smallest
    assert_eq!(
        theta.to_bits(),
        full.values[0].to_bits(),
        "θ {theta} vs {}",
        full.values[0]
    );
    // unit norm and small residual, always
    let norm: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!((norm - 1.0).abs() < 1e-12, "norm {norm}");
    let t_norm = (0..n)
        .map(|i| {
            let left = if i > 0 { off[i - 1].abs() } else { 0.0 };
            let right = if i + 1 < n { off[i].abs() } else { 0.0 };
            diag[i].abs() + left + right
        })
        .fold(0.0f64, f64::max);
    let resid: f64 = tridiag_apply(diag, off, &y)
        .iter()
        .zip(&y)
        .map(|(ty, v)| (ty - theta * v).powi(2))
        .sum::<f64>()
        .sqrt();
    assert!(
        resid <= 1e-10 * t_norm.max(1.0),
        "residual {resid}, ‖T‖ {t_norm}"
    );
    // the oracle's orientation
    let z0 = full.vectors[0][0];
    if z0.abs() > 1e-8 {
        assert!(y[0] * z0 > 0.0, "y[0] = {} vs z[0] = {z0}", y[0]);
    }
    // the oracle's vector, where the smallest eigenvalue is isolated;
    // when row 0 carries no orientation (the eigenvector lives in a
    // decoupled block below row 0), only up to sign
    if n == 1 || full.values[1] - full.values[0] > 1e-6 {
        let dist = |sign: f64| {
            y.iter()
                .zip(&full.vectors[0])
                .fold(0.0f64, |m, (a, b)| m.max((sign * a - b).abs()))
        };
        let dist = if z0.abs() > 1e-8 {
            dist(1.0)
        } else {
            dist(1.0).min(dist(-1.0))
        };
        assert!(
            dist <= 1e-9,
            "‖y − z‖∞ = {dist}, z[0] = {z0}, gap {:?}",
            full.values.get(1).map(|v| v - theta)
        );
    }
}

#[test]
fn smallest_tridiagonal_matches_full_decomposition() {
    check_cases(400, 0xE105, |g| {
        let (diag, off) = arb_tridiagonal(g);
        check_smallest_against_oracle(&diag, &off);
    });
    // the smallest shapes, a zero matrix and an exactly repeated minimum
    // split across decoupled blocks
    for (diag, off) in [
        (vec![-2.5], vec![]),
        (vec![0.0], vec![]),
        (vec![2.0, 2.0], vec![1.0]),
        (vec![1.0, -3.0], vec![0.0]),
        (vec![0.0, 0.0], vec![0.0]),
        (vec![1.0, 5.0, 1.0], vec![0.0, 0.0]),
        (
            vec![2.0, 1.0, 2.0, 2.0, 1.0, 2.0],
            vec![-1.0, -1.0, 0.0, -1.0, -1.0],
        ),
    ] {
        check_smallest_against_oracle(&diag, &off);
    }
}

#[test]
fn smallest_tridiagonal_rejects_non_finite_input() {
    for (diag, off) in [
        (vec![f64::NAN], vec![]),
        (vec![1.0, 2.0], vec![f64::INFINITY]),
        (vec![f64::NEG_INFINITY, 2.0, 0.0], vec![0.5, 0.5]),
    ] {
        assert_eq!(
            smallest_tridiagonal(&diag, &off).unwrap_err(),
            np_eigen::EigenError::NonFinite {
                stage: "tridiagonal input"
            }
        );
    }
}
