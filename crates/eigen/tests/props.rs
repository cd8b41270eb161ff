//! Property tests for the eigensolvers: Lanczos agrees with the dense
//! Jacobi ground truth on arbitrary small weighted graphs, and the
//! tridiagonal QL solver satisfies the defining identities.

use np_eigen::dense::{jacobi_eigen, materialize};
use np_eigen::tridiag::eigh_tridiagonal;
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
