//! The EIG1 baseline: spectral module ordering + best-prefix ratio-cut
//! sweep (Hagen–Kahng \[13\], summarized in paper §1.1).
//!
//! The Fiedler vector of the clique-model Laplacian induces a linear
//! ordering `v_1 … v_n` of the modules; the algorithm evaluates every
//! splitting rank `r` (modules with rank `≤ r` on one side) and returns the
//! split with the best ratio cut. With the incremental
//! `CutTracker`-based incremental sweep costs
//! `O(pins)` on top of the eigensolve.

use crate::engine::RunContext;
use crate::ordering::{spectral_module_ordering, spectral_module_ordering_ctx};
use crate::{PartitionError, PartitionResult};
use np_eigen::LanczosOptions;
use np_netlist::partition::CutTracker;
use np_netlist::{Bipartition, Hypergraph, ModuleId, Side};

/// Options for [`eig1`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Eig1Options {
    /// Eigensolver options.
    pub lanczos: LanczosOptions,
}

/// Runs the EIG1 spectral ratio-cut heuristic.
///
/// # Errors
///
/// * [`PartitionError::TooSmall`] for fewer than 2 modules;
/// * [`PartitionError::Eigen`] if the eigensolve fails.
///
/// # Example
///
/// ```
/// use np_core::{eig1, Eig1Options};
/// use np_netlist::hypergraph_from_nets;
///
/// let hg = hypergraph_from_nets(
///     6,
///     &[vec![0, 1], vec![1, 2], vec![0, 2], vec![3, 4], vec![4, 5], vec![3, 5], vec![2, 3]],
/// );
/// let r = eig1(&hg, &Eig1Options::default())?;
/// assert_eq!(r.stats.cut_nets, 1);
/// assert_eq!(r.stats.areas(), "3:3");
/// # Ok::<(), np_core::PartitionError>(())
/// ```
pub fn eig1(hg: &Hypergraph, opts: &Eig1Options) -> Result<PartitionResult, PartitionError> {
    eig1_ctx(hg, opts, &RunContext::unlimited())
}

/// [`eig1`] against an execution context — the single implementation
/// behind every entry point. The eigensolve charges one
/// matvec-equivalent per operator application against the context's meter
/// and the prefix sweep checks the wall clock at every rank.
///
/// # Errors
///
/// The [`eig1`] errors plus [`PartitionError::Budget`] when the
/// context's meter reports a limit hit.
pub fn eig1_ctx(
    hg: &Hypergraph,
    opts: &Eig1Options,
    ctx: &RunContext<'_>,
) -> Result<PartitionResult, PartitionError> {
    let order = spectral_module_ordering_ctx(hg, &opts.lanczos, ctx)?;
    sweep_module_ordering_ctx(hg, &order, "EIG1", ctx)
}

/// Evaluates every prefix split of a module ordering and returns the best
/// ratio-cut partition. Exposed for reuse (any module ordering — spectral
/// or otherwise — can be swept). The context meter's wall clock is
/// checked once per splitting rank.
///
/// # Errors
///
/// [`PartitionError::Budget`] when the context's meter reports a limit
/// hit.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the modules of `hg` or has
/// fewer than 2 entries.
pub fn sweep_module_ordering_ctx(
    hg: &Hypergraph,
    order: &[ModuleId],
    algorithm: &'static str,
    ctx: &RunContext<'_>,
) -> Result<PartitionResult, PartitionError> {
    assert_eq!(order.len(), hg.num_modules(), "ordering length mismatch");
    assert!(order.len() >= 2, "cannot sweep fewer than 2 modules");
    let meter = ctx.meter();
    let mut tracker = CutTracker::all_on(hg, Side::Right);
    let mut best_rank = 0usize;
    let mut best_ratio = f64::INFINITY;
    // move modules to the left one by one; after moving `r+1` modules the
    // split is (order[..=r] | order[r+1..])
    for (r, &m) in order[..order.len() - 1].iter().enumerate() {
        meter.check()?;
        tracker.move_module(m, Side::Left);
        let ratio = tracker.ratio();
        if ratio < best_ratio {
            best_ratio = ratio;
            best_rank = r;
        }
    }
    let partition =
        Bipartition::from_left_set(hg.num_modules(), order[..=best_rank].iter().copied());
    Ok(PartitionResult::evaluate(
        hg,
        partition,
        algorithm,
        Some(best_rank),
    ))
}

/// Spectral minimum-width bisection (paper §1.1's second formulation):
/// sweeps the spectral module ordering but only accepts splits whose left
/// block stays within `±tolerance·n/2` of perfect balance, minimizing the
/// *cut* (ties toward balance). This is the classic spectral-bisection
/// baseline the ratio-cut formulation relaxes.
///
/// # Errors
///
/// Same as [`eig1`]; additionally returns
/// [`PartitionError::Degenerate`] if the balance window admits no split
/// (only possible for `n < 2`).
///
/// # Example
///
/// ```
/// use np_core::eig1::{spectral_bisect, Eig1Options};
/// use np_netlist::hypergraph_from_nets;
///
/// let hg = hypergraph_from_nets(
///     6,
///     &[vec![0, 1], vec![1, 2], vec![0, 2], vec![3, 4], vec![4, 5], vec![3, 5], vec![2, 3]],
/// );
/// let r = spectral_bisect(&hg, 0.0, &Eig1Options::default())?;
/// assert_eq!(r.stats.areas(), "3:3");
/// assert_eq!(r.stats.cut_nets, 1);
/// # Ok::<(), np_core::PartitionError>(())
/// ```
pub fn spectral_bisect(
    hg: &Hypergraph,
    tolerance: f64,
    opts: &Eig1Options,
) -> Result<PartitionResult, PartitionError> {
    let order = spectral_module_ordering(hg, &opts.lanczos)?;
    let n = hg.num_modules();
    let half = n as f64 / 2.0;
    let slack = (tolerance * half).ceil() as i64 + 1;
    let min_left = ((half.floor() as i64) - slack).max(1) as usize;
    let max_left = (((half.ceil()) as i64) + slack).min(n as i64 - 1) as usize;

    let mut tracker = CutTracker::all_on(hg, Side::Right);
    let mut best: Option<(usize, usize, usize)> = None; // (cut, imbalance, rank)
    for (r, &m) in order[..n - 1].iter().enumerate() {
        tracker.move_module(m, Side::Left);
        let left = r + 1;
        if left < min_left || left > max_left {
            continue;
        }
        let cut = tracker.cut_nets();
        let imbalance = left.abs_diff(n - left);
        if best.is_none_or(|(bc, bi, _)| cut < bc || (cut == bc && imbalance < bi)) {
            best = Some((cut, imbalance, r));
        }
    }
    let (_, _, best_rank) = best.ok_or(PartitionError::Degenerate)?;
    let partition =
        Bipartition::from_left_set(hg.num_modules(), order[..=best_rank].iter().copied());
    Ok(PartitionResult::evaluate(
        hg,
        partition,
        "EIG1-bisect",
        Some(best_rank),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_netlist::hypergraph_from_nets;

    fn two_triangles() -> Hypergraph {
        hypergraph_from_nets(
            6,
            &[
                vec![0, 1],
                vec![1, 2],
                vec![0, 2],
                vec![3, 4],
                vec![4, 5],
                vec![3, 5],
                vec![2, 3],
            ],
        )
    }

    #[test]
    fn finds_the_bridge_cut() {
        let r = eig1(&two_triangles(), &Eig1Options::default()).unwrap();
        assert_eq!(r.stats.cut_nets, 1);
        assert_eq!(r.stats.areas(), "3:3");
        assert_eq!(r.algorithm, "EIG1");
    }

    #[test]
    fn sweep_respects_given_ordering() {
        let hg = hypergraph_from_nets(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let order: Vec<ModuleId> = [0u32, 1, 2, 3].iter().map(|&i| ModuleId(i)).collect();
        let r = sweep_module_ordering_ctx(&hg, &order, "TEST", &RunContext::unlimited()).unwrap();
        // best prefix of the path ordering is the middle split: cut 1, 2:2
        assert_eq!(r.stats.cut_nets, 1);
        assert_eq!(r.stats.areas(), "2:2");
        assert_eq!(r.split_rank, Some(1));
    }

    #[test]
    fn sweep_handles_bad_ordering_gracefully() {
        // an adversarial interleaved ordering still returns *some* valid
        // partition with finite ratio
        let hg = two_triangles();
        let order: Vec<ModuleId> = [0u32, 3, 1, 4, 2, 5].iter().map(|&i| ModuleId(i)).collect();
        let r = sweep_module_ordering_ctx(&hg, &order, "TEST", &RunContext::unlimited()).unwrap();
        assert!(r.ratio().is_finite());
        assert_eq!(r.stats.left + r.stats.right, 6);
        assert!(r.stats.left > 0 && r.stats.right > 0);
    }

    #[test]
    fn result_stats_consistent_with_partition() {
        let r = eig1(&two_triangles(), &Eig1Options::default()).unwrap();
        let recomputed = r.partition.cut_stats(&two_triangles());
        assert_eq!(r.stats, recomputed);
    }

    #[test]
    fn too_small_rejected() {
        let hg = hypergraph_from_nets(1, &[vec![0]]);
        assert!(matches!(
            eig1(&hg, &Eig1Options::default()),
            Err(PartitionError::TooSmall { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "ordering length mismatch")]
    fn sweep_wrong_length_panics() {
        let hg = two_triangles();
        let _ = sweep_module_ordering_ctx(&hg, &[ModuleId(0)], "TEST", &RunContext::unlimited());
    }

    #[test]
    fn bisect_finds_balanced_bridge_cut() {
        let r = spectral_bisect(&two_triangles(), 0.0, &Eig1Options::default()).unwrap();
        assert_eq!(r.stats.areas(), "3:3");
        assert_eq!(r.stats.cut_nets, 1);
        assert_eq!(r.algorithm, "EIG1-bisect");
    }

    #[test]
    fn bisect_respects_balance_even_when_ratio_prefers_skew() {
        // satellite of 2 glued to a 6-clique: ratio cut prefers 2:6, the
        // bisection must stay near 4:4
        let mut nets: Vec<Vec<u32>> = Vec::new();
        for i in 2..8u32 {
            for j in i + 1..8 {
                nets.push(vec![i, j]);
            }
        }
        nets.push(vec![0, 1]);
        nets.push(vec![1, 2]);
        let hg = hypergraph_from_nets(8, &nets);
        let bal = spectral_bisect(&hg, 0.0, &Eig1Options::default()).unwrap();
        assert!(
            bal.stats.left.abs_diff(bal.stats.right) <= 2,
            "{:?}",
            bal.stats
        );
        let ratio = eig1(&hg, &Eig1Options::default()).unwrap();
        assert_eq!(ratio.stats.areas(), "2:6");
    }

    #[test]
    fn bisect_loose_tolerance_approaches_ratio_quality() {
        let hg = two_triangles();
        let strict = spectral_bisect(&hg, 0.0, &Eig1Options::default()).unwrap();
        let loose = spectral_bisect(&hg, 1.0, &Eig1Options::default()).unwrap();
        assert!(loose.stats.cut_nets <= strict.stats.cut_nets);
    }
}
