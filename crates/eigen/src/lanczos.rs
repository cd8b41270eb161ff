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
//!   One classical Gram–Schmidt pass is run per step — every coefficient
//!   taken against the incoming vector, so the dots run four at a time
//!   instead of in a chain — and a second only when the first cancelled
//!   most of the vector (the Daniel–Gragg–Kaufman–Stewart criterion),
//!   which keeps the basis orthonormal to working precision;
//! * **one Ritz pair per check**: the iteration needs only the smallest Ritz
//!   pair and the next Ritz value, so it extracts them as
//!   [`smallest_tridiagonal`](crate::tridiag::smallest_tridiagonal) does,
//!   in `O(k²)`, rather than decomposing `T_k` fully in `O(k³)`;
//! * **thick restarting** (Wu and Simon, 2000; TRLan): if the basis hits
//!   its size cap without converging, the iteration keeps the lowest
//!   quarter of its Ritz vectors plus the residual direction, so the
//!   Krylov space built so far keeps working for the solve with bounded
//!   memory. The kept block is re-expressed as a short tridiagonal chain
//!   that ends at the residual direction, so the projection stays
//!   tridiagonal and the steps after a restart are ordinary Lanczos steps.
//!
//! Convergence is declared when the *verified* residual
//! `‖M x − θ x‖ ≤ tol · max(1, |θ|)`, measured with a fresh matvec — not
//! just the cheap `β·|y_k|` estimate. A check assembles the Ritz vector
//! and spends that matvec only when the estimate is within 10× of the
//! threshold. A Fiedler solve ([`fiedler`](crate::fiedler)) also stops
//! once the vector is accurate enough to order by: when the verified
//! residual is at most [`ORDERING_ANGLE`] times the guarded gap `g`
//! between the smallest Ritz value and the rest of the spectrum, so that
//! its angle to the eigenvector is at most about `ORDERING_ANGLE`
//! (Davis–Kahan).

use crate::dense::{materialize_metered, try_jacobi_eigen};
use crate::tridiag::{eigh_tridiagonal, lowest_ritz};
use crate::EigenError;
use np_sparse::vecops::{
    accumulate_scaled, axpy, axpy2, dot, norm2, normalize, orthogonalize_classical,
    orthogonalize_fused,
};
use np_sparse::{BudgetMeter, LinearOperator};

/// An eigenvalue/eigenvector pair.
#[derive(Clone, Debug, PartialEq)]
pub struct EigenPair {
    /// The eigenvalue.
    pub value: f64,
    /// The unit-norm eigenvector.
    pub vector: Vec<f64>,
    /// Matvec-equivalents the solve charged its meter.
    pub matvecs: u64,
    /// Distance from `value` to the rest of the spectrum on the deflated
    /// space. Exact on the dense path (`∞` when that space has one
    /// dimension). On the Lanczos path it is the guarded gap of the check
    /// that converged, `θ₂ − β·|y₂,last| − θ₁` (the second Ritz value
    /// less its residual, minus the first), or 0 where that is not
    /// positive: the solve could not tell the eigenvalue apart from the
    /// next one.
    pub gap: f64,
}

/// The angle to the eigenvector a Fiedler vector needs, in radians: a
/// [`fiedler`](crate::fiedler) solve stops once its verified residual is
/// at most `ORDERING_ANGLE·g` for a positive guarded gap `g` (see
/// [`EigenPair::gap`]), which bounds that angle by about `ORDERING_ANGLE`
/// (Davis–Kahan, `sin ∠ ≤ ‖r‖/g`). The sweeps use the vector only to
/// order its components, and an angle of `1e-3` moves only components
/// that nearly tie; `1e-2` changed k-way answers for the worse.
pub const ORDERING_ANGLE: f64 = 1e-3;

/// What, besides the residual tolerance, ends a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stop {
    /// `‖r‖ ≤ tol·max(1, |θ|)` alone: the accuracy the caller asked for.
    Residual,
    /// Also `‖r‖ ≤ ORDERING_ANGLE·g` for a positive guarded gap `g`: the
    /// accuracy an ordering needs.
    Ordering,
}

/// Options controlling the Lanczos iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LanczosOptions {
    /// Maximum Lanczos basis size per restart cycle (at least 2). A
    /// thick restart keeps about a quarter of it: `max_basis / 4` Ritz
    /// vectors, at least one. Each step reorthogonalizes against the
    /// whole basis, so a smaller basis trades cheaper steps for more of
    /// them; the default is sized by solve wall time (`DESIGN.md` §16).
    pub max_basis: usize,
    /// Relative residual tolerance: converged when
    /// `‖Mx − θx‖ ≤ tol · max(1, |θ|)`.
    pub tol: f64,
    /// Seed for the (deterministic) random start vector.
    pub seed: u64,
    /// Number of restart cycles before giving up: the first cycle takes
    /// `max_basis` Lanczos steps, each later one the `max_basis − ℓ`
    /// steps that refill the basis after keeping `ℓ` Ritz vectors. The
    /// default allows `80 + 41·60 = 2,540` steps.
    pub max_restarts: usize,
    /// Operators of dimension `≤ dense_cutoff` are solved directly with
    /// the dense Jacobi solver instead of Lanczos.
    pub dense_cutoff: usize,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            max_basis: 80,
            tol: 1e-8,
            seed: 0x1AC2_05D1_7E57_BEEF,
            max_restarts: 42,
            dense_cutoff: 48,
        }
    }
}

/// SplitMix64 — the deterministic stream of uniform values in
/// `[−0.5, 0.5)` the iteration draws its start vector, and the fresh
/// direction of a restart at an invariant subspace, from.
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
/// deflation set and the basis by one classical Gram–Schmidt pass;
/// returns `‖w‖`.
///
/// A second pass runs only when the first shrank `‖w‖` below `1/√2` of
/// its norm before (Daniel, Gragg, Kaufman and Stewart, 1976): only then
/// can the rounding left by one pass be large relative to what remains.
/// One pass plus this check keeps `w` orthogonal to working precision.
fn reorthogonalize(deflate: &[Vec<f64>], basis: &[Vec<f64>], w: &mut [f64]) -> f64 {
    let before = norm2(w);
    orthogonalize_classical(&[deflate, basis], w);
    let after = norm2(w);
    if after >= before * std::f64::consts::FRAC_1_SQRT_2 {
        return after;
    }
    orthogonalize_classical(&[deflate, basis], w);
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
    solve(op, deflate, opts, meter, Stop::Residual)
}

/// [`smallest_deflated_metered`] under the stop rule `stop`.
pub(crate) fn solve(
    op: &impl LinearOperator,
    deflate: &[Vec<f64>],
    opts: &LanczosOptions,
    meter: &BudgetMeter,
    stop: Stop,
) -> Result<EigenPair, EigenError> {
    let n = op.dim();
    let deflate = orthonormalize(deflate);
    if n == 0 || deflate.len() >= n {
        return Err(EigenError::TooSmall { dim: n });
    }
    if n <= opts.dense_cutoff {
        return dense_smallest_deflated(op, &deflate, meter);
    }

    let max_basis = opts.max_basis.max(2);
    let keep = thick_restart_keep(max_basis);
    let mut rand = splitmix_stream(opts.seed);
    let mut matvecs = 0usize;
    // smallest residual seen: verified where the gate let a check
    // verify, the three-term estimate where it did not
    let mut best_residual = f64::INFINITY;

    let mut start: Vec<f64> = (0..n).map(|_| rand()).collect();
    project_out(&deflate, &mut start);
    if normalize(&mut start) <= 1e-12 {
        // degenerate start (can only happen with adversarial deflation);
        // draw a fresh random vector
        start = (0..n).map(|_| rand()).collect();
        project_out(&deflate, &mut start);
        normalize(&mut start);
    }
    let mut k = Krylov {
        basis: vec![start],
        alphas: Vec::new(),
        betas: Vec::new(),
    };
    let mut w = vec![0.0f64; n];
    // ‖w‖ after the latest step: the coupling a restart keeps
    let mut beta = 0.0f64;

    for cycle in 0..opts.max_restarts.max(1) {
        if cycle > 0 && !thick_restart(&deflate, keep, beta, &w, &mut k, &mut rand)? {
            break;
        }
        for j in k.basis.len() - 1..max_basis {
            let alpha;
            (alpha, beta) = lanczos_step(op, &deflate, &k.basis, &k.betas, &mut w, meter)?;
            matvecs += 1;
            k.alphas.push(alpha);
            let invariant = beta <= 1e-13;
            let last_step = j + 1 == max_basis;
            let check = invariant || last_step || (j >= 4 && (j + 1).is_multiple_of(5));
            if check {
                let ritz = lowest_ritz(&k.alphas, &k.betas)?;
                let (theta, y) = (ritz.theta, ritz.y);
                // the second Ritz value less its own three-term residual:
                // an eigenvalue lies within that residual of θ₂, and the
                // guard keeps a θ₂ that has not converged yet from
                // posing as the gap
                let gap = ritz
                    .second
                    .map_or(0.0, |(theta2, last)| theta2 - beta * last - theta)
                    .max(0.0);
                let mut tol = opts.tol * theta.abs().max(1.0);
                if stop == Stop::Ordering {
                    tol = tol.max(ORDERING_ANGLE * gap);
                }
                // the three-term estimate ‖Mx − θx‖ = β_j·|y_j| gates the
                // Ritz vector's assembly and its verification matvec
                let estimate = beta * y[j].abs();
                if estimate <= VERIFY_GATE * tol {
                    let mut x = vec![0.0f64; n];
                    accumulate_scaled(&y, &k.basis, &mut x);
                    project_out(&deflate, &mut x);
                    if normalize(&mut x) > 1e-12 {
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
                        if resid <= tol {
                            return Ok(EigenPair {
                                value: theta,
                                vector: x,
                                matvecs: matvecs as u64,
                                gap,
                            });
                        }
                        best_residual = best_residual.min(resid);
                    }
                } else {
                    best_residual = best_residual.min(estimate);
                }
            }
            if invariant || last_step {
                break;
            }
            k.betas.push(beta);
            let mut next = w.clone();
            let scale = 1.0 / beta;
            for v in &mut next {
                *v *= scale;
            }
            k.basis.push(next);
        }
    }

    Err(EigenError::NoConvergence {
        iterations: matvecs,
        residual: best_residual,
    })
}

/// The verification gate: a check spends its Ritz-vector assembly and
/// its verification matvec only when the three-term residual estimate is
/// within this factor of the tolerance. The estimate equals the true
/// residual up to rounding while the basis stays orthonormal, so every
/// check that could converge is verified.
const VERIFY_GATE: f64 = 10.0;

/// How many of the lowest Ritz vectors a thick restart of a
/// `max_basis ≥ 2` basis keeps: about a quarter, at least one, so the
/// residual direction still fits.
fn thick_restart_keep(max_basis: usize) -> usize {
    (max_basis / 4).max(1)
}

/// A Lanczos basis `v_0 … v_{m−1}` and the tridiagonal projection of the
/// operator onto it: diagonal `alphas` (one per vector, once its step
/// ran) and subdiagonal `betas`.
struct Krylov {
    basis: Vec<Vec<f64>>,
    alphas: Vec<f64>,
    betas: Vec<f64>,
}

/// Thick restart (Wu and Simon, 2000): replaces the basis `V` of a cycle
/// that ended without converging by its `keep` lowest Ritz vectors plus
/// the residual direction `w/β`.
///
/// With `T = Y Θ Yᵀ` and `M V = V T + β (w/β) e_mᵀ`, the kept block
/// `U = V Y_ℓ` satisfies `M U = U Θ_ℓ + (w/β) sᵀ` with coupling vector
/// `s = β·Y[m−1, :ℓ]`. The block is re-expressed as a tridiagonal chain
/// by [`diagonal_lanczos`] on `diag(Θ_ℓ)` from `s`, and stored in reverse
/// order so the chain ends at the residual direction with coupling `‖s‖`.
/// The projection stays tridiagonal, so the steps that follow are plain
/// Lanczos steps.
///
/// On an invariant subspace (`β ≈ 0`) the residual direction is a fresh
/// random vector, uncoupled. Returns `false` when no such vector exists
/// (the kept block spans the whole deflated space).
fn thick_restart(
    deflate: &[Vec<f64>],
    keep: usize,
    beta: f64,
    w: &[f64],
    k: &mut Krylov,
    rand: &mut impl FnMut() -> f64,
) -> Result<bool, EigenError> {
    let m = k.basis.len();
    let ritz = eigh_tridiagonal(&k.alphas, &k.betas)?;
    let keep = keep.min(m);
    let theta = &ritz.values[..keep];
    let invariant = beta <= 1e-13;
    let s: Vec<f64> = if invariant {
        vec![0.0; keep]
    } else {
        ritz.vectors[..keep]
            .iter()
            .map(|y| beta * y[m - 1])
            .collect()
    };
    let (chain, diag, off) = diagonal_lanczos(theta, &s);

    // chain vector k, reversed, as a combination of the old basis
    let n = w.len();
    let mut kept: Vec<Vec<f64>> = Vec::with_capacity(keep + 1);
    for q in chain.iter().rev() {
        let coeffs: Vec<f64> = (0..m)
            .map(|t| (0..keep).map(|i| q[i] * ritz.vectors[i][t]).sum())
            .collect();
        let mut v = vec![0.0f64; n];
        accumulate_scaled(&coeffs, &k.basis, &mut v);
        kept.push(v);
    }
    let residual = if invariant {
        let mut r: Vec<f64> = (0..n).map(|_| rand()).collect();
        project_out(deflate, &mut r);
        project_out(&kept, &mut r);
        if normalize(&mut r) <= 1e-12 {
            return Ok(false);
        }
        r
    } else {
        w.iter().map(|v| v / beta).collect()
    };
    kept.push(residual);
    k.basis = kept;
    k.alphas = diag.into_iter().rev().collect();
    k.betas = off.into_iter().rev().collect();
    k.betas.push(if invariant { 0.0 } else { norm2(&s) });
    Ok(true)
}

/// Lanczos with full reorthogonalization on the diagonal matrix
/// `diag(theta)`, started from `s`: an orthonormal basis `q` of
/// `R^theta.len()` with `q[0] = s/‖s‖` and `qᵀ diag(theta) q` tridiagonal,
/// returned with that matrix's diagonal and subdiagonal.
///
/// At a breakdown (or for `s = 0`) the chain continues from the unit
/// vector farthest from the span so far, with a zero coupling.
fn diagonal_lanczos(theta: &[f64], s: &[f64]) -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>) {
    let l = theta.len();
    let floor = f64::EPSILON * theta.iter().fold(0.0f64, |m, t| m.max(t.abs()));
    let mut q: Vec<Vec<f64>> = Vec::with_capacity(l);
    let mut diag = Vec::with_capacity(l);
    let mut off = Vec::with_capacity(l.saturating_sub(1));
    let mut next = s.to_vec();
    if normalize(&mut next) == 0.0 {
        next = farthest_unit_vector(&q, l);
    }
    loop {
        let mut r: Vec<f64> = theta.iter().zip(&next).map(|(t, v)| t * v).collect();
        diag.push(dot(&r, &next));
        q.push(next);
        if q.len() == l {
            return (q, diag, off);
        }
        orthogonalize_fused(&[&q, &q], &mut r);
        let b = normalize(&mut r);
        if b > floor {
            off.push(b);
            next = r;
        } else {
            off.push(0.0);
            next = farthest_unit_vector(&q, l);
        }
    }
}

/// The unit vector `e_i` of `R^l` farthest from `span(q)`, orthogonalized
/// against `q` and normalized (`q` spans fewer than `l` dimensions).
fn farthest_unit_vector(q: &[Vec<f64>], l: usize) -> Vec<f64> {
    let i = (0..l)
        .min_by(|&a, &b| {
            let weight = |i: usize| q.iter().map(|v| v[i] * v[i]).sum::<f64>();
            weight(a).total_cmp(&weight(b))
        })
        .expect("nonempty");
    let mut e = vec![0.0f64; l];
    e[i] = 1.0;
    orthogonalize_fused(&[q, q], &mut e);
    normalize(&mut e);
    e
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
    // smallest eigenpair of the shifted matrix lives in the complement,
    // and so does the next one unless the complement is a line
    let mut vector = eig.vectors[0].clone();
    project_out(deflate, &mut vector);
    normalize(&mut vector);
    let gap = if n - deflate.len() >= 2 {
        eig.values[1] - eig.values[0]
    } else {
        f64::INFINITY
    };
    Ok(EigenPair {
        value: eig.values[0],
        vector,
        matvecs: n as u64,
        gap,
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

    /// Up to `steps` of the solver's own [`lanczos_step`] from its
    /// first-cycle start vector, thick-restarting as the solver does
    /// whenever the basis reaches `max_basis`, and stopping early at an
    /// invariant subspace. Returns the orthonormalized deflation set and
    /// the basis with its projection.
    fn krylov_basis(
        op: &impl LinearOperator,
        deflate: &[Vec<f64>],
        steps: usize,
        max_basis: usize,
    ) -> (Vec<Vec<f64>>, Krylov) {
        let n = op.dim();
        let deflate = orthonormalize(deflate);
        let mut rand = splitmix_stream(LanczosOptions::default().seed);
        let mut start: Vec<f64> = (0..n).map(|_| rand()).collect();
        project_out(&deflate, &mut start);
        normalize(&mut start);
        let mut k = Krylov {
            basis: vec![start],
            alphas: Vec::new(),
            betas: Vec::new(),
        };
        let (mut w, mut beta) = (vec![0.0; n], 0.0);
        let meter = BudgetMeter::unlimited();
        for step in 0..steps {
            if step > 0 && k.basis.len() == max_basis {
                let keep = thick_restart_keep(max_basis);
                assert!(thick_restart(&deflate, keep, beta, &w, &mut k, &mut rand).unwrap());
            } else if step > 0 {
                k.betas.push(beta);
                k.basis.push(w.iter().map(|v| v / beta).collect());
            }
            let alpha;
            (alpha, beta) = lanczos_step(op, &deflate, &k.basis, &k.betas, &mut w, &meter).unwrap();
            k.alphas.push(alpha);
            if beta <= 1e-13 {
                break;
            }
        }
        (deflate, k)
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

    /// `max |(VᵀMV − T)_ij|`: how far the basis's projection of `op` is
    /// from the tridiagonal matrix the solver carries.
    fn projection_error(op: &impl LinearOperator, k: &Krylov) -> f64 {
        let mut worst = 0.0f64;
        let mut mv = vec![0.0; op.dim()];
        for (j, v) in k.basis.iter().enumerate() {
            op.apply(v, &mut mv);
            for (i, u) in k.basis.iter().enumerate() {
                let t = match i.abs_diff(j) {
                    0 => k.alphas[i],
                    1 => k.betas[i.min(j)],
                    _ => 0.0,
                };
                worst = worst.max((dot(u, &mv) - t).abs());
            }
        }
        worst
    }

    #[test]
    fn reorthogonalization_keeps_basis_orthonormal() {
        // the path's extreme Ritz values converge fastest, so plain
        // Lanczos loses orthogonality here worst; two basis fills take
        // the basis across two thick restarts, whose kept Ritz block must
        // stay orthonormal and keep the projection tridiagonal
        let n = 2000;
        let q = path_laplacian(n);
        let max_basis = LanczosOptions::default().max_basis;
        for steps in [max_basis, 2 * max_basis] {
            let (deflate, k) = krylov_basis(&q, &[ones(n)], steps, max_basis);
            if steps == max_basis {
                assert_eq!(k.basis.len(), max_basis);
            } else {
                let keep = thick_restart_keep(max_basis);
                assert!(k.basis.len() < max_basis && k.basis.len() > keep + 1);
            }
            let (within, against) = orthogonality_loss(&deflate, &k.basis);
            assert!(
                within <= 1e-12,
                "path, {steps} steps: basis loses {within:e}"
            );
            assert!(
                against <= 1e-12,
                "path, {steps} steps: deflation leaks {against:e}"
            );
            let off = projection_error(&q, &k);
            assert!(off <= 1e-10, "path, {steps} steps: VᵀMV − T = {off:e}");
        }

        // three 20-cliques joined by 1e-4 edges: λ2 ≈ λ3 clustered near
        // zero, run until the Krylov space is invariant
        let q = three_cliques();
        let (deflate, k) = krylov_basis(&q, &[ones(60)], 60, 60);
        let (within, against) = orthogonality_loss(&deflate, &k.basis);
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
        let (deflate, Krylov { basis, .. }) = krylov_basis(&q, &[ones(n)], 30, 30);
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
        let pair =
            smallest_deflated_metered(&q, &[ones(8)], &LanczosOptions::default(), &meter).unwrap();
        assert_eq!(meter.matvecs_used(), 8);
        assert_eq!(pair.matvecs, 8, "the pair reports the charge");
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
        assert_eq!(
            pair.matvecs,
            meter.matvecs_used(),
            "the pair reports the charge"
        );
    }

    /// Lanczos steps a solve under `opts` may take before it gives up:
    /// a full first cycle, then `max_basis − keep` new steps per restart.
    fn step_allowance(opts: &LanczosOptions) -> usize {
        let keep = thick_restart_keep(opts.max_basis);
        opts.max_basis + (opts.max_restarts.max(1) - 1) * (opts.max_basis - keep)
    }

    #[test]
    fn a_solve_may_take_at_least_2500_steps() {
        assert!(step_allowance(&LanczosOptions::default()) >= 2500);
        // the allowance is what the solver spends: at tol 0 the gate
        // verifies nothing, so every matvec is a step
        let opts = LanczosOptions {
            max_basis: 20,
            max_restarts: 5,
            tol: 0.0,
            ..Default::default()
        };
        let err = smallest_deflated(&path_laplacian(500), &[ones(500)], &opts).unwrap_err();
        match err {
            EigenError::NoConvergence { iterations, .. } => {
                assert_eq!(iterations, step_allowance(&opts));
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    /// Solves the Fiedler pair of a path under `opts`; returns the pair
    /// and the metered spend, after checking `λ₂ = 2 − 2cos(π/n)`.
    fn path_fiedler(n: usize, opts: &LanczosOptions) -> (EigenPair, u64) {
        let meter = BudgetMeter::unlimited();
        let pair = smallest_deflated_metered(&path_laplacian(n), &[ones(n)], opts, &meter).unwrap();
        let expect = 2.0 - 2.0 * (std::f64::consts::PI / n as f64).cos();
        assert!(
            (pair.value - expect).abs() < 1e-9,
            "{} vs {expect}",
            pair.value
        );
        assert_eq!(
            pair.matvecs,
            meter.matvecs_used(),
            "the pair reports the charge"
        );
        (pair, meter.matvecs_used())
    }

    #[test]
    fn thick_restarts_converge_on_long_paths() {
        // λ₂ of a path is clustered with λ₃, λ₄, …: a restart that kept
        // only one Ritz vector took 1,506 matvecs on 500 vertices and
        // failed at 3,000 on 1,000
        let opts = LanczosOptions::default();
        let (_, spend) = path_fiedler(500, &opts);
        assert!(spend <= 600, "500-vertex path: {spend} matvecs");
        let (_, spend) = path_fiedler(1000, &opts);
        assert!(spend > opts.max_basis as u64, "1000-vertex path restarts");
    }

    #[test]
    fn first_cycle_convergence_is_bit_identical_to_an_unrestarted_basis() {
        // converging inside the first cycle, the solve never restarts: a
        // larger basis changes neither the pair nor the spend. The 120-vertex
        // path needs more steps than the default basis holds, so the first
        // cycle is sized to fit them.
        let opts = LanczosOptions {
            max_basis: 150,
            ..Default::default()
        };
        let (pair, spend) = path_fiedler(120, &opts);
        assert!(spend < opts.max_basis as u64, "{spend} matvecs");
        let wide = LanczosOptions {
            max_basis: 1000,
            ..opts
        };
        let (wide_pair, wide_spend) = path_fiedler(120, &wide);
        assert_eq!(pair.value.to_bits(), wide_pair.value.to_bits());
        assert_eq!(pair.vector, wide_pair.vector);
        assert_eq!(spend, wide_spend);
    }

    #[test]
    fn no_convergence_reports_a_finite_residual_when_nothing_was_verified() {
        // one cycle is far too short for a 2,000-vertex path: every
        // residual estimate stays above the gate, so no check verifies
        let n = 2000;
        let opts = LanczosOptions {
            max_restarts: 1,
            ..Default::default()
        };
        let err = smallest_deflated(&path_laplacian(n), &[ones(n)], &opts).unwrap_err();
        match err {
            EigenError::NoConvergence {
                iterations,
                residual,
            } => {
                assert_eq!(iterations, opts.max_basis, "a check verified");
                assert!(residual.is_finite() && residual > opts.tol, "{residual}");
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn diagonal_lanczos_continues_past_a_breakdown() {
        // s misses two eigen-directions, so the chain breaks down after
        // two steps and continues from a unit vector, uncoupled; s = 0
        // (an invariant subspace) is all breakdowns
        let theta = [1.0, 2.0, 3.0, 4.0];
        for s in [[1.0, 0.0, 1.0, 0.0], [0.0; 4]] {
            let (q, diag, off) = diagonal_lanczos(&theta, &s);
            assert_eq!((q.len(), diag.len(), off.len()), (4, 4, 3));
            if s[0] != 0.0 {
                let r = 0.5f64.sqrt();
                let start = [r, 0.0, r, 0.0];
                assert!(q[0].iter().zip(start).all(|(a, b)| (a - b).abs() < 1e-15));
                assert_eq!(off[1], 0.0);
            }
            for (i, u) in q.iter().enumerate() {
                for (j, v) in q.iter().enumerate() {
                    let dv: Vec<f64> = theta.iter().zip(v).map(|(t, x)| t * x).collect();
                    let t = match i.abs_diff(j) {
                        0 => diag[i],
                        1 => off[i.min(j)],
                        _ => 0.0,
                    };
                    let delta = if i == j { 1.0 } else { 0.0 };
                    assert!(
                        (dot(u, v) - delta).abs() < 1e-14,
                        "{s:?}: q not orthonormal"
                    );
                    assert!(
                        (dot(u, &dv) - t).abs() < 1e-14,
                        "{s:?}: qᵀΘq ≠ T at {i},{j}"
                    );
                }
            }
        }
    }

    #[test]
    fn restarts_across_invariant_subspaces_end_in_no_convergence() {
        // a tolerance below rounding: the three cliques' few distinct
        // eigenvalues make each cycle's Krylov space invariant within a
        // few steps, and each restart continues from a fresh direction
        // until the cycles run out
        let spend = |max_restarts: usize| {
            let opts = LanczosOptions {
                dense_cutoff: 0,
                tol: 1e-30,
                max_restarts,
                ..Default::default()
            };
            match smallest_deflated(&three_cliques(), &[ones(60)], &opts).unwrap_err() {
                EigenError::NoConvergence {
                    iterations,
                    residual,
                } => {
                    assert!(residual.is_finite(), "{residual}");
                    iterations
                }
                other => panic!("expected NoConvergence, got {other:?}"),
            }
        };
        assert!(spend(3) > spend(1), "no restart ran");
    }
}
