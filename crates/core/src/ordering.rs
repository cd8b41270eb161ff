//! Spectral linear orderings of modules and nets.
//!
//! Both the EIG1 baseline and the intersection-graph algorithms start the
//! same way: compute the Fiedler vector of a graph Laplacian derived from
//! the netlist and sort the vertices by their eigenvector component. For
//! EIG1 the vertices are *modules* (clique model); for IG-Vote and
//! IG-Match they are *nets* (intersection graph).

use crate::engine::RunContext;
use crate::models::IgWeighting;
use crate::PartitionError;
use np_eigen::{fiedler_metered, LanczosOptions};
use np_netlist::{Hypergraph, ModuleId, NetId};
use np_sparse::{BudgetExceeded, BudgetMeter};

/// Sorts indices `0..n` by the corresponding component of `vector`
/// (ties broken by index, so the ordering is fully deterministic).
///
/// Non-finite components are ordered by IEEE-754 `total_cmp` (−∞ < finite
/// < +∞ < NaN) rather than panicking; the eigensolvers reject non-finite
/// vectors before they reach this point, so this is a belt-and-braces
/// guarantee for external callers.
pub fn order_by_component(vector: &[f64]) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..vector.len() as u32).collect();
    idx.sort_by(|&a, &b| {
        vector[a as usize]
            .total_cmp(&vector[b as usize])
            .then(a.cmp(&b))
    });
    idx
}

/// Spectral ordering of the *modules*, from the Fiedler vector of the
/// clique-model Laplacian (the EIG1 ordering of Hagen–Kahng \[13\]).
///
/// # Errors
///
/// Propagates eigensolver failures; returns
/// [`PartitionError::TooSmall`] for netlists with fewer than two modules.
pub fn spectral_module_ordering(
    hg: &Hypergraph,
    opts: &LanczosOptions,
) -> Result<Vec<ModuleId>, PartitionError> {
    spectral_module_ordering_ctx(hg, opts, &RunContext::unlimited())
}

/// [`spectral_module_ordering`] against an execution context — the single
/// implementation behind every entry point. Every matvec of the
/// eigensolve charges the context's meter; the Laplacian comes from the
/// context's operator cache (built once, shared with other runs holding
/// the same cache) and its matvecs shard over
/// [`ctx.threads()`](RunContext::threads). The ordering is bit-identical
/// for every thread count.
///
/// # Errors
///
/// The [`spectral_module_ordering`] errors plus
/// [`PartitionError::Budget`] when the meter trips.
pub fn spectral_module_ordering_ctx(
    hg: &Hypergraph,
    opts: &LanczosOptions,
    ctx: &RunContext<'_>,
) -> Result<Vec<ModuleId>, PartitionError> {
    if hg.num_modules() < 2 {
        return Err(PartitionError::TooSmall {
            modules: hg.num_modules(),
            nets: hg.num_nets(),
        });
    }
    let q = ctx.clique_laplacian(hg);
    let pair = fiedler_metered(&q.threaded(ctx.threads()), opts, ctx.meter())?;
    Ok(order_by_component(&pair.vector)
        .into_iter()
        .map(ModuleId)
        .collect())
}

/// Spectral ordering of the *nets*, from the Fiedler vector of the
/// intersection-graph Laplacian (paper §2.2).
///
/// # Errors
///
/// Propagates eigensolver failures; returns
/// [`PartitionError::TooSmall`] for netlists with fewer than two nets.
pub fn spectral_net_ordering(
    hg: &Hypergraph,
    weighting: IgWeighting,
    opts: &LanczosOptions,
) -> Result<Vec<NetId>, PartitionError> {
    spectral_net_ordering_ctx(hg, weighting, opts, &RunContext::unlimited())
}

/// [`spectral_net_ordering`] against an execution context — the single
/// implementation behind every entry point. Every matvec of the
/// eigensolve charges the context's meter; the Laplacian comes from the
/// context's operator cache and its matvecs shard over
/// [`ctx.threads()`](RunContext::threads). The ordering is bit-identical
/// for every thread count.
///
/// # Errors
///
/// The [`spectral_net_ordering`] errors plus [`PartitionError::Budget`]
/// when the meter trips.
pub fn spectral_net_ordering_ctx(
    hg: &Hypergraph,
    weighting: IgWeighting,
    opts: &LanczosOptions,
    ctx: &RunContext<'_>,
) -> Result<Vec<NetId>, PartitionError> {
    charged_net_ordering(hg, weighting, opts, ctx).map(|(order, _)| order)
}

/// [`spectral_net_ordering_ctx`] plus what its eigensolve charged the
/// meter, so a memoized answer can charge the same again
/// ([`SolveCharge::replay`]).
pub(crate) fn charged_net_ordering(
    hg: &Hypergraph,
    weighting: IgWeighting,
    opts: &LanczosOptions,
    ctx: &RunContext<'_>,
) -> Result<(Vec<NetId>, SolveCharge), PartitionError> {
    let m = hg.num_nets();
    if m < 2 {
        return Err(PartitionError::TooSmall {
            modules: hg.num_modules(),
            nets: m,
        });
    }
    let q = ctx.intersection_laplacian(hg, weighting);
    let pair = fiedler_metered(&q.threaded(ctx.threads()), opts, ctx.meter())?;
    let order = order_by_component(&pair.vector)
        .into_iter()
        .map(NetId)
        .collect();
    // the dense path charges its m columns in one go, Lanczos one
    // matvec per application (`np_eigen::smallest_deflated_metered`)
    let step = if m <= opts.dense_cutoff { m as u64 } else { 1 };
    let charge = SolveCharge {
        matvecs: pair.matvecs,
        step,
    };
    Ok((order, charge))
}

/// What a successful eigensolve charged its meter: `matvecs` in all, in
/// charges of `step` each.
///
/// The count is the solver's own ([`EigenPair::matvecs`]), not read off
/// the meter, which other handles of the same scope may be charging at
/// the same time.
///
/// [`EigenPair::matvecs`]: np_eigen::EigenPair::matvecs
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SolveCharge {
    matvecs: u64,
    step: u64,
}

impl SolveCharge {
    /// Charges `meter` as the solve did. Each charge checks the meter,
    /// so a matvec cap trips at the same count, and a spent clock or a
    /// cancel fails.
    pub(crate) fn replay(self, meter: &BudgetMeter) -> Result<(), BudgetExceeded> {
        let mut left = self.matvecs;
        while left > 0 {
            let n = left.min(self.step);
            meter.charge(n)?;
            left -= n;
        }
        Ok(())
    }
}

/// Like [`spectral_net_ordering`], but sparsifies the intersection-graph
/// adjacency by dropping every edge of weight `< threshold` before the
/// eigensolve — the input-thresholding speedup from the paper's
/// conclusions ("The eigenvector computation can be sped up further by
/// additionally sparsifying the input through thresholding"). Note the
/// paper's own caveat (§2.2 footnote 2) that discarding connectivity can
/// also discard partitioning information; `bench --bin paper`'s E13
/// section quantifies the trade-off.
///
/// Returns the ordering and the number of nonzeros dropped.
///
/// # Errors
///
/// Same as [`spectral_net_ordering`].
pub fn spectral_net_ordering_thresholded(
    hg: &Hypergraph,
    weighting: IgWeighting,
    threshold: f64,
    opts: &LanczosOptions,
) -> Result<(Vec<NetId>, usize), PartitionError> {
    if hg.num_nets() < 2 {
        return Err(PartitionError::TooSmall {
            modules: hg.num_modules(),
            nets: hg.num_nets(),
        });
    }
    let adjacency = crate::models::intersection_adjacency(hg, weighting);
    let sparsified = adjacency.drop_below(threshold);
    let dropped = adjacency.nnz() - sparsified.nnz();
    let q = np_sparse::Laplacian::from_adjacency(sparsified);
    let pair = fiedler_metered(&q, opts, &BudgetMeter::unlimited())?;
    Ok((
        order_by_component(&pair.vector)
            .into_iter()
            .map(NetId)
            .collect(),
        dropped,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_netlist::hypergraph_from_nets;

    /// Two 4-cycles of modules joined by one bridge net.
    fn dumbbell() -> Hypergraph {
        hypergraph_from_nets(
            8,
            &[
                vec![0, 1],
                vec![1, 2],
                vec![2, 3],
                vec![0, 3],
                vec![4, 5],
                vec![5, 6],
                vec![6, 7],
                vec![4, 7],
                vec![3, 4],
            ],
        )
    }

    #[test]
    fn order_by_component_stable() {
        let v = [0.3, -1.0, 0.3, 0.0];
        assert_eq!(order_by_component(&v), vec![1, 3, 0, 2]);
    }

    #[test]
    fn order_by_component_total_on_non_finite() {
        // −∞ < finite < +∞ < NaN, deterministically, instead of a panic
        let v = [f64::NAN, 1.0, f64::NEG_INFINITY, f64::INFINITY, 0.0];
        assert_eq!(order_by_component(&v), vec![2, 4, 1, 3, 0]);
    }

    #[test]
    fn module_ordering_separates_clusters() {
        let hg = dumbbell();
        let order = spectral_module_ordering(&hg, &Default::default()).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 8];
            for (rank, m) in order.iter().enumerate() {
                p[m.index()] = rank;
            }
            p
        };
        // all of {0,1,2,3} on one end, {4,5,6,7} on the other
        let left_max = (0..4).map(|i| pos[i]).max().unwrap();
        let right_min = (4..8).map(|i| pos[i]).min().unwrap();
        let ok_forward = left_max < right_min;
        let right_max = (4..8).map(|i| pos[i]).max().unwrap();
        let left_min = (0..4).map(|i| pos[i]).min().unwrap();
        let ok_backward = right_max < left_min;
        assert!(ok_forward || ok_backward, "positions {pos:?}");
    }

    #[test]
    fn net_ordering_puts_bridge_between_clusters() {
        let hg = dumbbell();
        let order = spectral_net_ordering(&hg, IgWeighting::Paper, &Default::default()).unwrap();
        let rank_of = |n: u32| order.iter().position(|&x| x.0 == n).unwrap();
        // bridge net (index 8) should separate cluster-A nets (0..4) from
        // cluster-B nets (4..8)
        let bridge = rank_of(8);
        let a_ranks: Vec<usize> = (0..4).map(rank_of).collect();
        let b_ranks: Vec<usize> = (4..8).map(rank_of).collect();
        let a_side = a_ranks.iter().all(|&r| r < bridge);
        let b_side = b_ranks.iter().all(|&r| r > bridge);
        let a_side_rev = a_ranks.iter().all(|&r| r > bridge);
        let b_side_rev = b_ranks.iter().all(|&r| r < bridge);
        assert!(
            (a_side && b_side) || (a_side_rev && b_side_rev),
            "bridge at {bridge}, A {a_ranks:?}, B {b_ranks:?}"
        );
    }

    #[test]
    fn too_small_instances_rejected() {
        let hg = hypergraph_from_nets(1, &[vec![0]]);
        assert!(matches!(
            spectral_module_ordering(&hg, &Default::default()),
            Err(PartitionError::TooSmall { .. })
        ));
        assert!(matches!(
            spectral_net_ordering(&hg, IgWeighting::Paper, &Default::default()),
            Err(PartitionError::TooSmall { .. })
        ));
    }

    #[test]
    fn orderings_are_permutations() {
        let hg = dumbbell();
        let mo = spectral_module_ordering(&hg, &Default::default()).unwrap();
        let mut m: Vec<u32> = mo.iter().map(|x| x.0).collect();
        m.sort_unstable();
        assert_eq!(m, (0..8).collect::<Vec<_>>());
        let no = spectral_net_ordering(&hg, IgWeighting::Paper, &Default::default()).unwrap();
        let mut n: Vec<u32> = no.iter().map(|x| x.0).collect();
        n.sort_unstable();
        assert_eq!(n, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic() {
        let hg = dumbbell();
        let a = spectral_net_ordering(&hg, IgWeighting::Paper, &Default::default()).unwrap();
        let b = spectral_net_ordering(&hg, IgWeighting::Paper, &Default::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn thresholded_ordering_zero_threshold_matches_plain() {
        let hg = dumbbell();
        let plain = spectral_net_ordering(&hg, IgWeighting::Paper, &Default::default()).unwrap();
        let (thresh, dropped) =
            spectral_net_ordering_thresholded(&hg, IgWeighting::Paper, 0.0, &Default::default())
                .unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(plain, thresh);
    }

    #[test]
    fn thresholded_ordering_drops_weak_edges() {
        let hg = dumbbell();
        let (order, dropped) =
            spectral_net_ordering_thresholded(&hg, IgWeighting::Paper, 0.8, &Default::default())
                .unwrap();
        assert!(dropped > 0);
        assert_eq!(order.len(), hg.num_nets());
        let mut sorted: Vec<u32> = order.iter().map(|n| n.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..hg.num_nets() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn extreme_threshold_still_yields_ordering() {
        // dropping everything leaves the zero Laplacian: λ2 = 0 and an
        // arbitrary (but valid and deterministic) ordering
        let hg = dumbbell();
        let (order, dropped) =
            spectral_net_ordering_thresholded(&hg, IgWeighting::Paper, 1e9, &Default::default())
                .unwrap();
        assert_eq!(order.len(), hg.num_nets());
        assert!(dropped > 0);
    }
}
