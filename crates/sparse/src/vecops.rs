//! Dense-vector kernels used by the Lanczos iteration.
//!
//! # Fusion and the bit-identity contract
//!
//! The Lanczos hot loop's cost is passes over `O(n)` vectors and the
//! latency of its sequential reductions, not flops. The fused kernels here
//! ([`axpy2`], [`orthogonalize_fused`], [`accumulate_scaled`],
//! [`orthogonalize_classical`]) combine what would be two or more passes
//! into one, **without changing the floating-point operation order**:
//! every fused kernel is bit-identical to the sequence of naive kernels it
//! replaces (the equivalence property tests in `tests/spectral.rs` pin
//! this down). Every reduction sums sequentially, left to right, so no
//! kernel changes the reduction order. [`orthogonalize_classical`] runs
//! four such reductions side by side, each with its own accumulator, so
//! its dots overlap in time but each equals [`dot`] bit for bit, and
//! [`accumulate_scaled`] adds four vectors per pass over its output,
//! each element taking its terms in the same left-to-right order as a
//! loop of [`axpy`]s.

/// Dot product `xᵀy`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// assert_eq!(np_sparse::vecops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y ← y + alpha · x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x ← alpha · x`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Normalizes `x` to unit Euclidean norm and returns the previous norm.
/// If `x` is (numerically) zero it is left unchanged and `0.0` is returned.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Removes from `x` its component along the *unit* vector `u`:
/// `x ← x − (uᵀx) u`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn orthogonalize_against(u: &[f64], x: &mut [f64]) {
    let c = dot(u, x);
    axpy(-c, u, x);
}

/// Fused update-and-project: `y ← y + alpha · x`, returning `zᵀy` for the
/// *updated* `y` — one pass over memory instead of an [`axpy`] pass
/// followed by a [`dot`] pass. The link of [`orthogonalize_fused`]'s
/// chain.
///
/// Bit-identical to `axpy(alpha, x, y); dot(z, y)`: the update expression
/// and the single-accumulator ascending-index reduction are exactly the
/// ones the two separate kernels use.
///
/// # Panics
///
/// Panics if the slices have different lengths.
fn axpy_dot(alpha: f64, x: &[f64], y: &mut [f64], z: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "axpy_dot length mismatch");
    assert_eq!(z.len(), y.len(), "axpy_dot length mismatch");
    // −0.0 is the IEEE additive identity `f64::sum()` folds from; starting
    // there keeps even the empty and all-(−0.0) cases bit-identical to
    // [`dot`].
    let mut acc = -0.0;
    for ((yi, xi), zi) in y.iter_mut().zip(x).zip(z) {
        let v = *yi + alpha * xi;
        *yi = v;
        acc += zi * v;
    }
    acc
}

/// Fused double update: `y ← y + a1 · x1 + a2 · x2` in one pass.
///
/// Bit-identical to `axpy(a1, x1, y); axpy(a2, x2, y)`: each element is
/// updated by the two terms in the same order the sequential kernels
/// would apply them, and elements are independent.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy2(a1: f64, x1: &[f64], a2: f64, x2: &[f64], y: &mut [f64]) {
    assert_eq!(x1.len(), y.len(), "axpy2 length mismatch");
    assert_eq!(x2.len(), y.len(), "axpy2 length mismatch");
    for ((yi, v1), v2) in y.iter_mut().zip(x1).zip(x2) {
        *yi = (*yi + a1 * v1) + a2 * v2;
    }
}

/// Fused modified-Gram–Schmidt sweep: projects the concatenation of
/// `sets` out of `x`, in order.
///
/// Equivalent to `for u in concat(sets) { orthogonalize_against(u, x) }`
/// bit for bit, but each vector's subtraction pass doubles as the next
/// vector's projection pass (via a fused axpy-and-dot), so a sweep over `m`
/// vectors touches `x` `m + 1` times instead of `2m` times. Since full
/// reorthogonalization is the dominant `O(j·n)` cost of a Lanczos step,
/// this roughly halves the hot loop's memory traffic.
///
/// `sets` may repeat a set (e.g. `&[basis, basis]` for the
/// apply-twice-for-robustness idiom) — repetitions fuse across the
/// boundary too.
///
/// # Panics
///
/// Panics if any vector's length differs from `x.len()`.
pub fn orthogonalize_fused(sets: &[&[Vec<f64>]], x: &mut [f64]) {
    let mut it = sets.iter().flat_map(|s| s.iter()).peekable();
    let Some(first) = it.next() else { return };
    let mut u: &Vec<f64> = first;
    let mut c = dot(u, x);
    for next in it {
        c = axpy_dot(-c, u, x, next);
        u = next;
    }
    axpy(-c, u, x);
}

/// Classical Gram–Schmidt pass: projects the concatenation of `sets` out
/// of `x`, every coefficient taken against the *incoming* `x`.
///
/// Bit-identical to `h[i] = dot(u_i, x)` for every `u_i` of
/// `concat(sets)`, then `for i { axpy(-h[i], u_i, x) }`. The coefficients
/// are computed four vectors per pass over `x`, each with its own
/// sequential accumulator, so four independent reductions overlap instead
/// of each waiting on the one before — the modified Gram–Schmidt chain of
/// [`orthogonalize_fused`] has to finish each update before the next dot
/// can start. The update is one [`accumulate_scaled`] pass per four
/// vectors. Classical Gram–Schmidt loses more orthogonality than the
/// modified chain when a pass cancels most of `x`; a second pass repairs
/// it.
///
/// # Panics
///
/// Panics if any vector's length differs from `x.len()`.
pub fn orthogonalize_classical(sets: &[&[Vec<f64>]], x: &mut [f64]) {
    let us: Vec<&[f64]> = sets.iter().flat_map(|s| s.iter()).map(|u| &u[..]).collect();
    let mut h = Vec::with_capacity(us.len());
    let mut blocks = us.chunks_exact(4);
    for b in &mut blocks {
        h.extend(dot4([b[0], b[1], b[2], b[3]], x).map(|c| -c));
    }
    h.extend(blocks.remainder().iter().map(|u| -dot(u, x)));
    let mut done = 0;
    for set in sets {
        accumulate_scaled(&h[done..done + set.len()], set, x);
        done += set.len();
    }
}

/// Four dot products `uᵢᵀx` in one pass over `x`, each summed left to
/// right from `−0.0` in its own accumulator, so each is bit-identical to
/// [`dot`].
fn dot4(u: [&[f64]; 4], x: &[f64]) -> [f64; 4] {
    for v in u {
        assert_eq!(v.len(), x.len(), "dot4 length mismatch");
    }
    let [a, b, c, d] = u;
    let mut s = [-0.0f64; 4];
    for ((((xi, ai), bi), ci), di) in x.iter().zip(a).zip(b).zip(c).zip(d) {
        s[0] += ai * xi;
        s[1] += bi * xi;
        s[2] += ci * xi;
        s[3] += di * xi;
    }
    s
}

/// Accumulates `y ← y + Σᵢ coeffs[i] · vecs[i]`, four terms per pass
/// over `y` (then a pair with [`axpy2`] and a last [`axpy`]) — the
/// Gram–Schmidt update and the Ritz-vector assembly kernel.
///
/// Bit-identical to `for (c, v) in coeffs.zip(vecs) { axpy(*c, v, y) }`:
/// each element takes its terms in the same left-to-right order, and
/// elements are independent.
///
/// # Panics
///
/// Panics if `coeffs.len() != vecs.len()` or any vector's length differs
/// from `y.len()`.
pub fn accumulate_scaled(coeffs: &[f64], vecs: &[Vec<f64>], y: &mut [f64]) {
    assert_eq!(
        coeffs.len(),
        vecs.len(),
        "accumulate_scaled length mismatch"
    );
    let (quads, rest) = coeffs.as_chunks::<4>();
    for (c, v) in quads.iter().zip(vecs.chunks_exact(4)) {
        for u in v {
            assert_eq!(u.len(), y.len(), "accumulate_scaled length mismatch");
        }
        for ((((yi, v0), v1), v2), v3) in y.iter_mut().zip(&v[0]).zip(&v[1]).zip(&v[2]).zip(&v[3]) {
            *yi = (((*yi + c[0] * v0) + c[1] * v1) + c[2] * v2) + c[3] * v3;
        }
    }
    let vecs = &vecs[coeffs.len() - rest.len()..];
    if rest.len() >= 2 {
        axpy2(rest[0], &vecs[0], rest[1], &vecs[1], y);
    }
    if rest.len() % 2 == 1 {
        axpy(rest[rest.len() - 1], &vecs[rest.len() - 1], y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_norm_axpy() {
        let x = [3.0, 4.0];
        assert_eq!(norm2(&x), 5.0);
        let mut y = [1.0, 1.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [7.0, 9.0]);
    }

    #[test]
    fn scale_and_normalize() {
        let mut x = vec![0.0, 3.0, 4.0];
        let prev = normalize(&mut x);
        assert_eq!(prev, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
        scale(2.0, &mut x);
        assert!((norm2(&x) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut x = vec![0.0; 4];
        assert_eq!(normalize(&mut x), 0.0);
        assert_eq!(x, vec![0.0; 4]);
    }

    #[test]
    fn orthogonalize_removes_component() {
        let u = [1.0 / 2f64.sqrt(), 1.0 / 2f64.sqrt()];
        let mut x = [3.0, 1.0];
        orthogonalize_against(&u, &mut x);
        assert!(dot(&u, &x).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    /// Deterministic pseudo-random vector for the fusion identities.
    fn rand_vec(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 11) as f64) / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn axpy_dot_bit_identical_to_axpy_then_dot() {
        for n in [0usize, 1, 3, 64, 257] {
            let x = rand_vec(1, n);
            let z = rand_vec(2, n);
            let y0 = rand_vec(3, n);
            let mut fused = y0.clone();
            let got = axpy_dot(0.731, &x, &mut fused, &z);
            let mut plain = y0.clone();
            axpy(0.731, &x, &mut plain);
            let want = dot(&z, &plain);
            assert_eq!(fused, plain, "n={n}");
            assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
        }
    }

    #[test]
    fn axpy2_bit_identical_to_two_axpys() {
        for n in [0usize, 1, 5, 100] {
            let x1 = rand_vec(4, n);
            let x2 = rand_vec(5, n);
            let y0 = rand_vec(6, n);
            let mut fused = y0.clone();
            axpy2(-1.25, &x1, 0.4, &x2, &mut fused);
            let mut plain = y0;
            axpy(-1.25, &x1, &mut plain);
            axpy(0.4, &x2, &mut plain);
            assert_eq!(fused, plain, "n={n}");
        }
    }

    #[test]
    fn orthogonalize_fused_matches_sequential_sweep() {
        let n = 97;
        let basis: Vec<Vec<f64>> = (0..5).map(|i| rand_vec(10 + i, n)).collect();
        let deflate: Vec<Vec<f64>> = (0..2).map(|i| rand_vec(20 + i, n)).collect();
        let x0 = rand_vec(30, n);

        let mut fused = x0.clone();
        orthogonalize_fused(&[&deflate, &basis, &basis], &mut fused);

        let mut plain = x0;
        for u in deflate.iter().chain(&basis).chain(&basis) {
            orthogonalize_against(u, &mut plain);
        }
        assert_eq!(fused, plain);
    }

    #[test]
    fn orthogonalize_fused_empty_sets_is_noop() {
        let mut x = vec![1.0, 2.0];
        orthogonalize_fused(&[], &mut x);
        orthogonalize_fused(&[&[], &[]], &mut x);
        assert_eq!(x, vec![1.0, 2.0]);
    }

    #[test]
    fn orthogonalize_classical_matches_dots_then_axpys() {
        // set sizes that run no block, one block, and blocks plus every
        // remainder length, split across two sets at each boundary
        let n = 53;
        for m in 0usize..=9 {
            let vecs: Vec<Vec<f64>> = (0..m).map(|i| rand_vec(70 + i as u64, n)).collect();
            let x0 = rand_vec(80, n);
            let h: Vec<f64> = vecs.iter().map(|u| dot(u, &x0)).collect();
            let mut plain = x0.clone();
            for (c, u) in h.iter().zip(&vecs) {
                axpy(-c, u, &mut plain);
            }
            for split in 0..=m {
                let (a, b) = vecs.split_at(split);
                let mut fused = x0.clone();
                orthogonalize_classical(&[a, b], &mut fused);
                assert_eq!(fused, plain, "m={m} split={split}");
            }
        }
    }

    #[test]
    fn accumulate_scaled_matches_axpy_loop() {
        let n = 61;
        for m in 0usize..=9 {
            let vecs: Vec<Vec<f64>> = (0..m).map(|i| rand_vec(40 + i as u64, n)).collect();
            let coeffs = rand_vec(50, m);
            let mut fused = rand_vec(60, n);
            let mut plain = fused.clone();
            accumulate_scaled(&coeffs, &vecs, &mut fused);
            for (c, v) in coeffs.iter().zip(&vecs) {
                axpy(*c, v, &mut plain);
            }
            assert_eq!(fused, plain, "m={m}");
        }
    }
}
