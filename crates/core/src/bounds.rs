//! The Hagen–Kahng spectral lower bound on the optimal ratio cut
//! (paper §1.1, Theorem 1) — the "provability" property of the spectral
//! approach.
//!
//! Theorem 1 states that for a netlist *graph* with Laplacian `Q = D − A`,
//! the optimal ratio cut cost satisfies `c ≥ λ₂ / n`. Transferring the
//! bound to the hypergraph net-cut metric needs care: under the standard
//! `1/(k−1)` clique weighting a cut net contributes *at least* 1 to the
//! graph cut, so `λ₂/n` of that Laplacian bounds only the (larger) clique
//! cut. The *bound-preserving* weighting `1/(⌊k/2⌋·⌈k/2⌉)` makes every
//! net contribute `s(k−s)/(⌊k/2⌋⌈k/2⌉) ≤ 1`, so
//!
//! ```text
//!   graph-cut(U, W) ≤ net-cut(U, W)   for every bipartition,
//! ```
//!
//! and therefore `λ₂(Q_bp)/n` lower-bounds the optimal hypergraph ratio
//! cut. Comparing this certificate against an achieved partition bounds
//! the optimality gap of any heuristic — deterministically, with one
//! eigensolve.

use crate::models::clique::bound_preserving_laplacian;
use crate::PartitionError;
use np_eigen::{smallest_deflated, LanczosOptions};
use np_netlist::Hypergraph;

/// A lower bound on the optimal hypergraph ratio cut, with the spectral
/// quantities it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RatioCutBound {
    /// The certified lower bound `λ₂ / n` on `cut/(|U|·|W|)`.
    pub bound: f64,
    /// The second-smallest eigenvalue of the bound-preserving clique
    /// Laplacian.
    pub lambda2: f64,
}

impl RatioCutBound {
    /// The optimality-gap factor of an achieved ratio-cut value
    /// (`achieved / bound`); `1.0` means certified optimal. Returns
    /// `f64::INFINITY` when the bound is zero (disconnected instances
    /// certify nothing).
    pub fn gap(&self, achieved: f64) -> f64 {
        if self.bound > 0.0 {
            achieved / self.bound
        } else {
            f64::INFINITY
        }
    }
}

/// Computes the Theorem-1 lower bound `λ₂(Q_bp)/n` on the optimal ratio
/// cut of `hg`, where `Q_bp` is the bound-preserving clique Laplacian.
///
/// # Errors
///
/// * [`PartitionError::TooSmall`] for fewer than 2 modules;
/// * [`PartitionError::Eigen`] if the eigensolve fails.
///
/// # Example
///
/// ```
/// use np_core::bounds::ratio_cut_lower_bound;
/// use np_core::{ig_match, IgMatchOptions};
/// use np_netlist::hypergraph_from_nets;
///
/// let hg = hypergraph_from_nets(
///     6,
///     &[vec![0, 1], vec![1, 2], vec![0, 2], vec![3, 4], vec![4, 5], vec![3, 5], vec![2, 3]],
/// );
/// let bound = ratio_cut_lower_bound(&hg, &Default::default())?;
/// let achieved = ig_match(&hg, &IgMatchOptions::default())?.result.ratio();
/// assert!(achieved >= bound.bound - 1e-12); // Theorem 1
/// # Ok::<(), np_core::PartitionError>(())
/// ```
pub fn ratio_cut_lower_bound(
    hg: &Hypergraph,
    opts: &LanczosOptions,
) -> Result<RatioCutBound, PartitionError> {
    let n = hg.num_modules();
    if n < 2 {
        return Err(PartitionError::TooSmall {
            modules: n,
            nets: hg.num_nets(),
        });
    }
    let q = bound_preserving_laplacian(hg);
    // solved to `opts.tol`, not only as far as an ordering needs
    // (`np_eigen::fiedler`): a Ritz value lies above λ₂, so a looser
    // solve would raise the bound
    let ones = vec![1.0 / (n as f64).sqrt(); n];
    let pair = smallest_deflated(&q, &[ones], opts)?;
    // numerical noise can push λ₂ microscopically negative on
    // disconnected graphs; clamp so the bound stays valid
    let lambda2 = pair.value.max(0.0);
    Ok(RatioCutBound {
        bound: lambda2 / n as f64,
        lambda2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ig_match, IgMatchOptions};
    use np_netlist::generate::{generate, GeneratorConfig};
    use np_netlist::{hypergraph_from_nets, Bipartition, ModuleId};

    #[test]
    fn bound_below_exhaustive_optimum_small() {
        // brute force the optimal hypergraph ratio cut on a small instance
        let hg = hypergraph_from_nets(
            7,
            &[
                vec![0, 1, 2],
                vec![2, 3],
                vec![3, 4, 5],
                vec![5, 6],
                vec![0, 6],
                vec![1, 4],
            ],
        );
        let bound = ratio_cut_lower_bound(&hg, &Default::default()).unwrap();
        let n = hg.num_modules();
        let mut best = f64::INFINITY;
        for mask in 1u32..(1 << n) - 1 {
            let left = (0..n as u32).filter(|i| mask & (1 << i) != 0).map(ModuleId);
            let p = Bipartition::from_left_set(n, left);
            best = best.min(p.ratio_cut(&hg));
        }
        assert!(
            best >= bound.bound - 1e-9,
            "optimum {best} below bound {}",
            bound.bound
        );
        assert!(bound.bound > 0.0);
    }

    #[test]
    fn bound_holds_on_generated_circuit() {
        let hg = generate(&GeneratorConfig::new(200, 220, 77));
        let bound = ratio_cut_lower_bound(&hg, &Default::default()).unwrap();
        let achieved = ig_match(&hg, &IgMatchOptions::default())
            .unwrap()
            .result
            .ratio();
        assert!(achieved >= bound.bound - 1e-12);
        assert!(bound.gap(achieved) >= 1.0);
    }

    #[test]
    fn disconnected_instance_gives_zero_bound() {
        let hg = hypergraph_from_nets(4, &[vec![0, 1], vec![2, 3]]);
        let bound = ratio_cut_lower_bound(&hg, &Default::default()).unwrap();
        assert!(bound.bound.abs() < 1e-9);
        assert_eq!(bound.gap(0.25), f64::INFINITY);
    }

    #[test]
    fn too_small_rejected() {
        let hg = hypergraph_from_nets(1, &[vec![0]]);
        assert!(matches!(
            ratio_cut_lower_bound(&hg, &Default::default()),
            Err(PartitionError::TooSmall { .. })
        ));
    }
}
