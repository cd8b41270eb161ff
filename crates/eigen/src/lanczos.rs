//! Lanczos iteration for the smallest eigenpair of a deflated symmetric
//! operator.
//!
//! The paper computes the second eigenvector of `Q' = D' − A'` with "an
//! existing Lanczos implementation", exploiting that netlist-derived
//! matrices are sparse (§1.1 footnote 1). This module implements the same
//! computation from scratch:
//!
//! * the known nullvector (all-ones for a connected Laplacian) is
//!   **deflated explicitly** — every working vector is kept orthogonal to
//!   it, so the smallest Ritz value of the deflated operator is exactly
//!   `λ₂`;
//! * **full reorthogonalization** against the whole Lanczos basis keeps the
//!   computed basis orthonormal. This is the textbook cure for the loss of
//!   orthogonality that plagues plain Lanczos and plays the role of the
//!   paper's block variant (which exists to handle clustered eigenvalues).
//!   One Gram–Schmidt pass is run per step, and a second only when the
//!   first cancelled most of the vector (the Daniel–Gragg–Kaufman–Stewart
//!   criterion), which keeps the basis orthonormal to working precision;
//! * **one Ritz pair per check**: the iteration needs only the smallest Ritz
//!   pair, so it extracts it with [`smallest_tridiagonal`] in `O(k²)`
//!   rather than decomposing `T_k` fully in `O(k³)`;
//! * **restarting**: if the basis hits its size cap without converging, the
//!   iteration restarts from the best current Ritz vector, preserving
//!   progress with bounded memory.
//!
//! Convergence is declared when the *verified* residual
//! `‖M x − θ x‖ ≤ tol · max(1, |θ|)`, measured with a fresh matvec — not
//! just the cheap `β·|y_k|` estimate.

use crate::dense::{materialize_metered, try_jacobi_eigen};
use crate::tridiag::smallest_tridiagonal;
use crate::EigenError;
use np_sparse::vecops::{
    accumulate_scaled, axpy, axpy2, dot, norm2, normalize, orthogonalize_fused,
};
use np_sparse::{BudgetMeter, LinearOperator};

/// An eigenvalue/eigenvector pair.
#[derive(Clone, Debug, PartialEq)]
pub struct EigenPair {
    /// The eigenvalue.
    pub value: f64,
    /// The unit-norm eigenvector.
    pub vector: Vec<f64>,
}

/// Options controlling the Lanczos iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LanczosOptions {
    /// Maximum Lanczos basis size per restart cycle.
    pub max_basis: usize,
    /// Relative residual tolerance: converged when
    /// `‖Mx − θx‖ ≤ tol · max(1, |θ|)`.
    pub tol: f64,
    /// Seed for the (deterministic) random start vector.
    pub seed: u64,
    /// Number of restart cycles before giving up.
    pub max_restarts: usize,
    /// Operators of dimension `≤ dense_cutoff` are solved directly with
    /// the dense Jacobi solver instead of Lanczos.
    pub dense_cutoff: usize,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            max_basis: 250,
            tol: 1e-8,
            seed: 0x1AC2_05D1_7E57_BEEF,
            max_restarts: 10,
            dense_cutoff: 48,
        }
    }
}

/// SplitMix64 — the deterministic stream of uniform values in
/// `[−0.5, 0.5)` the iteration draws its start vectors and restart noise
/// from.
fn splitmix_stream(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed;
    move || {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) as f64) * (1.0 / (1u64 << 53) as f64) - 0.5
    }
}

/// Orthonormalizes `vectors` by modified Gram–Schmidt, dropping
/// numerically dependent members.
fn orthonormalize(vectors: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(vectors.len());
    for v in vectors {
        let mut w = v.clone();
        orthogonalize_fused(&[&basis], &mut w);
        if normalize(&mut w) > 1e-12 {
            basis.push(w);
        }
    }
    basis
}

/// Projects `x` onto the orthogonal complement of the orthonormal set `us`
/// (applied twice for numerical robustness), as one fused sweep.
fn project_out(us: &[Vec<f64>], x: &mut [f64]) {
    orthogonalize_fused(&[us, us], x);
}

/// One Lanczos step from the newest basis vector `v_j`: one matvec
/// (charged to `meter`), then `w ← M v_j − α v_j − β_{j−1} v_{j−1}`,
/// reorthogonalized. Returns `(α, ‖w‖)`; `betas` holds `β_0 … β_{j−1}`.
fn lanczos_step(
    op: &impl LinearOperator,
    deflate: &[Vec<f64>],
    basis: &[Vec<f64>],
    betas: &[f64],
    w: &mut [f64],
    meter: &BudgetMeter,
) -> Result<(f64, f64), EigenError> {
    let j = basis.len() - 1;
    op.apply(&basis[j], w);
    meter.charge(1)?;
    let alpha = dot(w, &basis[j]);
    if !alpha.is_finite() {
        return Err(EigenError::NonFinite {
            stage: "lanczos iteration",
        });
    }
    if j > 0 {
        // both recurrence subtractions in one pass over w
        axpy2(-alpha, &basis[j], -betas[j - 1], &basis[j - 1], w);
    } else {
        axpy(-alpha, &basis[j], w);
    }
    let beta = reorthogonalize(deflate, basis, w);
    if !beta.is_finite() {
        return Err(EigenError::NonFinite {
            stage: "lanczos iteration",
        });
    }
    Ok((alpha, beta))
}

/// Full reorthogonalization of the Lanczos residual `w` against the
/// deflation set and the basis, fused into one sweep; returns `‖w‖`.
///
/// A second sweep runs only when the first shrank `‖w‖` below `1/√2` of
/// its norm before (Daniel, Gragg, Kaufman and Stewart, 1976): only then
/// can the rounding left by one pass be large relative to what remains.
/// One pass plus this check keeps `w` orthogonal to working precision.
fn reorthogonalize(deflate: &[Vec<f64>], basis: &[Vec<f64>], w: &mut [f64]) -> f64 {
    let before = norm2(w);
    orthogonalize_fused(&[deflate, basis], w);
    let after = norm2(w);
    if after >= before * std::f64::consts::FRAC_1_SQRT_2 {
        return after;
    }
    orthogonalize_fused(&[deflate, basis], w);
    norm2(w)
}

/// Computes the smallest eigenpair of `op` restricted to the orthogonal
/// complement of `deflate`.
///
/// `deflate` holds known eigenvectors (or any directions) to exclude; they
/// are orthonormalized internally, so callers may pass unnormalized
/// vectors. For a connected graph Laplacian with `deflate = [ones]`, the
/// result is the Fiedler pair — use the [`fiedler`](crate::fiedler)
/// convenience wrapper for that case.
///
/// Deterministic for fixed `(op, deflate, opts)`.
///
/// # Errors
///
/// * [`EigenError::TooSmall`] if the deflated space is empty;
/// * [`EigenError::NoConvergence`] if the residual tolerance is not met
///   within `max_restarts` restart cycles.
pub fn smallest_deflated(
    op: &impl LinearOperator,
    deflate: &[Vec<f64>],
    opts: &LanczosOptions,
) -> Result<EigenPair, EigenError> {
    smallest_deflated_metered(op, deflate, opts, &BudgetMeter::unlimited())
}

/// [`smallest_deflated`] with cooperative budget enforcement and
/// non-finite detection: every operator application charges one matvec to
/// `meter`, and NaN/∞ values produced by the operator surface as
/// [`EigenError::NonFinite`] instead of corrupting the iteration.
///
/// # Errors
///
/// In addition to the [`smallest_deflated`] errors:
///
/// * [`EigenError::Budget`] when `meter` reports a limit hit (the partial
///   spend is inside the error);
/// * [`EigenError::NonFinite`] if the operator produces NaN or ±∞.
pub fn smallest_deflated_metered(
    op: &impl LinearOperator,
    deflate: &[Vec<f64>],
    opts: &LanczosOptions,
    meter: &BudgetMeter,
) -> Result<EigenPair, EigenError> {
    let n = op.dim();
    let deflate = orthonormalize(deflate);
    if n == 0 || deflate.len() >= n {
        return Err(EigenError::TooSmall { dim: n });
    }
    if n <= opts.dense_cutoff {
        return dense_smallest_deflated(op, &deflate, meter);
    }

    let mut rand = splitmix_stream(opts.seed);
    let mut matvecs = 0usize;
    let mut best: Option<(f64, EigenPair)> = None; // (residual, pair)

    // start vector for the first cycle: random, deflated
    let mut start: Vec<f64> = (0..n).map(|_| rand()).collect();

    for _cycle in 0..opts.max_restarts.max(1) {
        project_out(&deflate, &mut start);
        if normalize(&mut start) <= 1e-12 {
            // degenerate start (can only happen with adversarial deflation);
            // draw a fresh random vector
            start = (0..n).map(|_| rand()).collect();
            project_out(&deflate, &mut start);
            normalize(&mut start);
        }

        let mut basis: Vec<Vec<f64>> = vec![start.clone()];
        let mut alphas: Vec<f64> = Vec::new();
        let mut betas: Vec<f64> = Vec::new();
        let mut w = vec![0.0f64; n];

        for j in 0..opts.max_basis {
            let (alpha, beta) = lanczos_step(op, &deflate, &basis, &betas, &mut w, meter)?;
            matvecs += 1;
            alphas.push(alpha);
            let invariant = beta <= 1e-13;

            let last_step = j + 1 == opts.max_basis;
            let check = invariant || last_step || (j >= 4 && (j + 1).is_multiple_of(5));
            if check {
                let (theta, y) = smallest_tridiagonal(&alphas, &betas)?;
                // assemble the Ritz vector (pairwise-fused axpy passes)
                let mut x = vec![0.0f64; n];
                accumulate_scaled(&y, &basis, &mut x);
                project_out(&deflate, &mut x);
                if normalize(&mut x) > 1e-12 {
                    // verified residual
                    let mut mx = vec![0.0f64; n];
                    op.apply(&x, &mut mx);
                    matvecs += 1;
                    meter.charge(1)?;
                    axpy(-theta, &x, &mut mx);
                    let resid = norm2(&mx);
                    if !resid.is_finite() {
                        return Err(EigenError::NonFinite {
                            stage: "lanczos residual",
                        });
                    }
                    let tol = opts.tol * theta.abs().max(1.0);
                    if best.as_ref().is_none_or(|(r, _)| resid < *r) {
                        best = Some((
                            resid,
                            EigenPair {
                                value: theta,
                                vector: x.clone(),
                            },
                        ));
                    }
                    if resid <= tol {
                        return Ok(best.expect("just set").1);
                    }
                    if invariant || last_step {
                        // restart from the best Ritz vector so far
                        start = best.as_ref().expect("nonempty").1.vector.clone();
                        if invariant {
                            // invariant subspace that did not satisfy the
                            // verified tolerance: perturb to escape
                            let mut noise: Vec<f64> = (0..n).map(|_| rand() * 1e-3).collect();
                            project_out(&deflate, &mut noise);
                            axpy(1.0, &noise, &mut start);
                        }
                        break;
                    }
                } else if invariant || last_step {
                    start = (0..n).map(|_| rand()).collect();
                    break;
                }
            }
            if invariant {
                break;
            }
            let mut next = w.clone();
            let scale = 1.0 / beta;
            for v in &mut next {
                *v *= scale;
            }
            betas.push(beta);
            basis.push(next);
        }
    }

    Err(EigenError::NoConvergence {
        iterations: matvecs,
        residual: best.map(|(r, _)| r).unwrap_or(f64::INFINITY),
    })
}

/// Direct dense solve for small operators: materialize, shift the deflated
/// directions to the top of the spectrum, take the smallest eigenpair.
/// Each materialized column, each row of the deflation update and each
/// Jacobi pivot row first checks `meter` (without charging it), so a
/// budget ends even a large dense solve in time.
fn dense_smallest_deflated(
    op: &impl LinearOperator,
    deflate: &[Vec<f64>],
    meter: &BudgetMeter,
) -> Result<EigenPair, EigenError> {
    let n = op.dim();
    // materialization applies the operator to each basis vector
    meter.charge(n as u64)?;
    let mut a = materialize_metered(op, meter)?;
    // sigma strictly above the spectral radius (Gershgorin)
    let sigma = 1.0
        + (0..n)
            .map(|i| (0..n).map(|j| a[i * n + j].abs()).sum::<f64>())
            .fold(0.0f64, f64::max);
    // A' = P A P + sigma * Σ u uᵀ  where P projects out the deflation set.
    // Implemented densely: first form PAP via two projections.
    for u in deflate {
        // A <- (I - u uᵀ) A (I - u uᵀ), then add sigma u uᵀ
        // compute v = A u and w = Aᵀ u = A u (symmetric)
        let mut au = vec![0.0f64; n];
        for i in 0..n {
            au[i] = (0..n).map(|j| a[i * n + j] * u[j]).sum();
        }
        let uau: f64 = (0..n).map(|i| u[i] * au[i]).sum();
        for i in 0..n {
            meter.check()?;
            for j in 0..n {
                a[i * n + j] +=
                    -u[i] * au[j] - au[i] * u[j] + u[i] * u[j] * uau + sigma * u[i] * u[j];
            }
        }
    }
    let eig = try_jacobi_eigen(&a, n, meter)?;
    // smallest eigenpair of the shifted matrix lives in the complement
    let mut vector = eig.vectors[0].clone();
    project_out(deflate, &mut vector);
    normalize(&mut vector);
    Ok(EigenPair {
        value: eig.values[0],
        vector,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{jacobi_eigen, materialize};
    use np_sparse::{Budget, CsrMatrix, Laplacian, TripletBuilder};

    fn path_laplacian(n: usize) -> Laplacian {
        let mut b = TripletBuilder::new(n);
        for i in 0..n - 1 {
            b.push_sym(i, i + 1, 1.0);
        }
        Laplacian::from_adjacency(b.into_csr())
    }

    fn ones(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    /// Three 20-cliques joined in a chain by two 1e-4 edges.
    fn three_cliques() -> Laplacian {
        let mut b = TripletBuilder::new(60);
        for c in 0..3 {
            let base = c * 20;
            for i in 0..20 {
                for j in i + 1..20 {
                    b.push_sym(base + i, base + j, 1.0);
                }
            }
        }
        b.push_sym(0, 20, 1e-4);
        b.push_sym(20, 40, 1e-4);
        Laplacian::from_adjacency(b.into_csr())
    }

    #[test]
    fn path_fiedler_value_small_n_dense_path() {
        // P8: λ2 = 2 - 2cos(π/8)
        let q = path_laplacian(8);
        let pair = smallest_deflated(&q, &[ones(8)], &LanczosOptions::default()).unwrap();
        let expect = 2.0 - 2.0 * (std::f64::consts::PI / 8.0).cos();
        assert!((pair.value - expect).abs() < 1e-8, "{}", pair.value);
    }

    #[test]
    fn path_fiedler_value_large_n_lanczos_path() {
        let n = 200;
        let q = path_laplacian(n);
        let pair = smallest_deflated(&q, &[ones(n)], &LanczosOptions::default()).unwrap();
        let expect = 2.0 - 2.0 * (std::f64::consts::PI / n as f64).cos();
        assert!(
            (pair.value - expect).abs() < 1e-7,
            "{} vs {expect}",
            pair.value
        );
        // eigenvector orthogonal to ones
        let s: f64 = pair.vector.iter().sum();
        assert!(s.abs() < 1e-6);
        // residual verified
        let mut y = vec![0.0; n];
        q.apply(&pair.vector, &mut y);
        axpy(-pair.value, &pair.vector, &mut y);
        assert!(norm2(&y) < 1e-7);
    }

    #[test]
    fn fiedler_vector_monotone_on_path() {
        // the Fiedler vector of a path is cos(π(i+1/2)/n): strictly monotone
        let n = 100;
        let q = path_laplacian(n);
        let pair = smallest_deflated(&q, &[ones(n)], &LanczosOptions::default()).unwrap();
        let v = &pair.vector;
        let increasing = v.windows(2).all(|w| w[1] > w[0]);
        let decreasing = v.windows(2).all(|w| w[1] < w[0]);
        assert!(increasing || decreasing);
    }

    #[test]
    fn matches_dense_ground_truth_on_random_graph() {
        // deterministic random sparse graph, n = 60 (forced Lanczos path)
        let n = 60;
        let mut rand = splitmix_stream(12345);
        let mut b = TripletBuilder::new(n);
        for i in 0..n {
            b.push_sym(i, (i + 1) % n, 1.0); // ring for connectivity
        }
        for _ in 0..3 * n {
            let i = ((rand() + 0.5) * n as f64) as usize % n;
            let j = ((rand() + 0.5) * n as f64) as usize % n;
            if i != j {
                b.push_sym(i, j, 0.5);
            }
        }
        let q = Laplacian::from_adjacency(b.into_csr());
        let opts = LanczosOptions {
            dense_cutoff: 4,
            ..Default::default()
        };
        let pair = smallest_deflated(&q, &[ones(n)], &opts).unwrap();

        let dense = jacobi_eigen(&materialize(&q), n);
        // dense.values[0] ~ 0 (ones); λ2 = dense.values[1]
        assert!(dense.values[0].abs() < 1e-9);
        assert!(
            (pair.value - dense.values[1]).abs() < 1e-6,
            "lanczos {} vs dense {}",
            pair.value,
            dense.values[1]
        );
    }

    #[test]
    fn disconnected_graph_lambda2_zero() {
        // two disjoint triangles: λ2 = 0, vector separates components
        let mut b = TripletBuilder::new(6);
        for &(i, j) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.push_sym(i, j, 1.0);
        }
        let q = Laplacian::from_adjacency(b.into_csr());
        let pair = smallest_deflated(&q, &[ones(6)], &LanczosOptions::default()).unwrap();
        assert!(pair.value.abs() < 1e-8);
        let sign = |x: f64| x > 0.0;
        assert_eq!(sign(pair.vector[0]), sign(pair.vector[1]));
        assert_eq!(sign(pair.vector[0]), sign(pair.vector[2]));
        assert_ne!(sign(pair.vector[0]), sign(pair.vector[3]));

        // three 20-cliques joined by 1e-4 edges: nearly disconnected, with
        // λ2 ≈ λ3 clustered near zero — solved by the iteration itself, not
        // the dense fallback
        let n = 60;
        let q = three_cliques();
        let opts = LanczosOptions {
            dense_cutoff: 0,
            ..Default::default()
        };
        let pair = smallest_deflated(&q, &[ones(n)], &opts).unwrap();
        assert!(pair.value < 1e-3, "λ2 = {}", pair.value);
        let mut y = vec![0.0; n];
        q.apply(&pair.vector, &mut y);
        axpy(-pair.value, &pair.vector, &mut y);
        assert!(norm2(&y) < 1e-6);
    }

    /// The deflation set and the Lanczos basis after up to `steps` steps
    /// of the solver's own [`lanczos_step`] from its first-cycle start
    /// vector, stopping early at an invariant subspace.
    fn krylov_basis(
        op: &impl LinearOperator,
        deflate: &[Vec<f64>],
        steps: usize,
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let n = op.dim();
        let deflate = orthonormalize(deflate);
        let mut rand = splitmix_stream(LanczosOptions::default().seed);
        let mut start: Vec<f64> = (0..n).map(|_| rand()).collect();
        project_out(&deflate, &mut start);
        normalize(&mut start);
        let mut basis = vec![start];
        let mut betas = Vec::new();
        let mut w = vec![0.0; n];
        let meter = BudgetMeter::unlimited();
        while basis.len() < steps {
            let (_, beta) = lanczos_step(op, &deflate, &basis, &betas, &mut w, &meter).unwrap();
            if beta <= 1e-13 {
                break;
            }
            betas.push(beta);
            basis.push(w.iter().map(|v| v / beta).collect());
        }
        (deflate, basis)
    }

    /// `max |⟨u, v⟩ − δ_uv|` over the basis, and `max |⟨u, v⟩|` between
    /// the basis and the deflation set.
    fn orthogonality_loss(deflate: &[Vec<f64>], basis: &[Vec<f64>]) -> (f64, f64) {
        let mut within = 0.0f64;
        for (i, u) in basis.iter().enumerate() {
            for (j, v) in basis.iter().enumerate().skip(i) {
                let delta = if i == j { 1.0 } else { 0.0 };
                within = within.max((dot(u, v) - delta).abs());
            }
        }
        let against = deflate
            .iter()
            .flat_map(|d| basis.iter().map(move |v| dot(d, v).abs()))
            .fold(0.0f64, f64::max);
        (within, against)
    }

    #[test]
    fn reorthogonalization_keeps_basis_orthonormal() {
        // the path's extreme Ritz values converge fastest, so plain
        // Lanczos loses orthogonality here worst
        let n = 2000;
        let q = path_laplacian(n);
        let (deflate, basis) = krylov_basis(&q, &[ones(n)], LanczosOptions::default().max_basis);
        assert_eq!(basis.len(), LanczosOptions::default().max_basis);
        let (within, against) = orthogonality_loss(&deflate, &basis);
        assert!(within <= 1e-12, "path: basis loses {within:e}");
        assert!(against <= 1e-12, "path: deflation leaks {against:e}");

        // three 20-cliques joined by 1e-4 edges: λ2 ≈ λ3 clustered near
        // zero, run until the Krylov space is invariant
        let q = three_cliques();
        let (deflate, basis) = krylov_basis(&q, &[ones(60)], 60);
        let (within, against) = orthogonality_loss(&deflate, &basis);
        assert!(within <= 1e-12, "cliques: basis loses {within:e}");
        assert!(against <= 1e-12, "cliques: deflation leaks {against:e}");
    }

    #[test]
    fn second_pass_restores_orthogonality_after_heavy_cancellation() {
        // w lies almost entirely in span(basis): one pass cancels all but
        // 1e-10 of it and leaves rounding of order ε‖w‖ behind, relative
        // error ~1e-6 in what remains; the DGKS-triggered second pass
        // brings it back to working precision
        let n = 500;
        let q = path_laplacian(n);
        let (deflate, basis) = krylov_basis(&q, &[ones(n)], 30);
        let mut rand = splitmix_stream(7);
        let mut w: Vec<f64> = (0..n).map(|_| 1e-10 * rand()).collect();
        for (k, v) in basis.iter().enumerate() {
            axpy(1.0 + k as f64, v, &mut w);
        }
        let beta = reorthogonalize(&deflate, &basis, &mut w);
        assert!(beta > 0.0 && beta < 1e-8, "‖w‖ = {beta:e}");
        normalize(&mut w);
        let (_, leak) = orthogonality_loss(&basis, &[w]);
        assert!(leak <= 1e-12, "w keeps {leak:e} of the basis");
    }

    #[test]
    fn deflating_everything_errors() {
        let q = path_laplacian(3);
        let deflate = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        assert!(matches!(
            smallest_deflated(&q, &deflate, &LanczosOptions::default()),
            Err(EigenError::TooSmall { dim: 3 })
        ));
    }

    #[test]
    fn no_deflation_finds_global_smallest() {
        // Laplacian without deflation: smallest eigenvalue is 0
        let q = path_laplacian(100);
        let pair = smallest_deflated(&q, &[], &LanczosOptions::default()).unwrap();
        assert!(pair.value.abs() < 1e-7, "{}", pair.value);
    }

    #[test]
    fn deterministic_across_calls() {
        let q = path_laplacian(120);
        let a = smallest_deflated(&q, &[ones(120)], &LanczosOptions::default()).unwrap();
        let b = smallest_deflated(&q, &[ones(120)], &LanczosOptions::default()).unwrap();
        assert_eq!(a.value, b.value);
        assert_eq!(a.vector, b.vector);
    }

    #[test]
    fn weighted_graph_fiedler() {
        // dumbbell: two K3 with a weak bridge; λ2 is small and the vector
        // splits the dumbbells
        let mut b = TripletBuilder::new(64);
        for base in [0usize, 32] {
            for i in 0..32 {
                for j in i + 1..32 {
                    b.push_sym(base + i, base + j, 1.0);
                }
            }
        }
        b.push_sym(0, 32, 0.01);
        let q = Laplacian::from_adjacency(b.into_csr());
        let pair = smallest_deflated(&q, &[ones(64)], &LanczosOptions::default()).unwrap();
        assert!(pair.value < 0.01, "λ2 = {}", pair.value);
        let left_sign = pair.vector[1] > 0.0;
        assert!((0..32).all(|i| (pair.vector[i] > 0.0) == left_sign || pair.vector[i].abs() < 1e-9));
        assert!(
            (32..64).all(|i| (pair.vector[i] > 0.0) != left_sign || pair.vector[i].abs() < 1e-9)
        );
    }

    #[test]
    fn zero_operator() {
        let z = CsrMatrix::zero(70);
        let pair = smallest_deflated(&z, &[ones(70)], &LanczosOptions::default()).unwrap();
        assert!(pair.value.abs() < 1e-10);
    }

    /// Operator that returns NaN after a set number of applications —
    /// stands in for numerically poisoned input.
    struct PoisonOp {
        inner: Laplacian,
        poison_after: std::cell::Cell<usize>,
    }

    impl LinearOperator for PoisonOp {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.inner.apply(x, y);
            let left = self.poison_after.get();
            if left == 0 {
                y[0] = f64::NAN;
            } else {
                self.poison_after.set(left - 1);
            }
        }
    }

    #[test]
    fn poisoned_operator_surfaces_non_finite() {
        for poison_after in [0usize, 3, 10] {
            let op = PoisonOp {
                inner: path_laplacian(100),
                poison_after: std::cell::Cell::new(poison_after),
            };
            let err = smallest_deflated(&op, &[ones(100)], &LanczosOptions::default()).unwrap_err();
            assert!(
                matches!(err, EigenError::NonFinite { .. }),
                "poison_after={poison_after}: {err:?}"
            );
        }
    }

    #[test]
    fn matvec_budget_trips_mid_iteration() {
        let q = path_laplacian(300);
        let meter = BudgetMeter::new(&Budget::default().with_matvecs(7));
        let err = smallest_deflated_metered(&q, &[ones(300)], &LanczosOptions::default(), &meter)
            .unwrap_err();
        match err {
            EigenError::Budget(e) => assert!(e.matvecs_used >= 7),
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn dense_path_charges_meter() {
        let q = path_laplacian(8); // below dense_cutoff
        let meter = BudgetMeter::unlimited();
        smallest_deflated_metered(&q, &[ones(8)], &LanczosOptions::default(), &meter).unwrap();
        assert_eq!(meter.matvecs_used(), 8);
    }

    #[test]
    fn threaded_operator_bit_identical_eigenpair() {
        // the row-sharded operator changes how a matvec is executed, not
        // what it computes, so the whole iteration — values, vectors,
        // metered spend — must match serial bit for bit at every thread
        // count
        let n = 300;
        let q = path_laplacian(n);
        let run = |threads: usize| {
            let meter = BudgetMeter::unlimited();
            let op = q.threaded(threads);
            let pair =
                smallest_deflated_metered(&op, &[ones(n)], &LanczosOptions::default(), &meter)
                    .unwrap();
            (pair, meter.matvecs_used())
        };
        let (serial_pair, serial_spend) = run(1);
        for threads in [2usize, 8] {
            let (pair, spend) = run(threads);
            assert_eq!(pair.value.to_bits(), serial_pair.value.to_bits());
            assert_eq!(pair.vector, serial_pair.vector, "threads={threads}");
            assert_eq!(spend, serial_spend, "threads={threads}");
        }
    }

    #[test]
    fn generous_budget_converges_and_reports_spend() {
        let q = path_laplacian(150);
        let meter = BudgetMeter::new(&Budget::default().with_matvecs(1_000_000));
        let pair = smallest_deflated_metered(&q, &[ones(150)], &LanczosOptions::default(), &meter)
            .unwrap();
        let expect = 2.0 - 2.0 * (std::f64::consts::PI / 150.0).cos();
        assert!((pair.value - expect).abs() < 1e-7);
        assert!(meter.matvecs_used() > 0);
    }
}
