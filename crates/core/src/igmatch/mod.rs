//! The IG-Match algorithm (paper §3, Figures 5–7).
//!
//! IG-Match turns a spectral *net* ordering into a *module* partition in
//! two phases per split of the ordering:
//!
//! * **Phase I** — maintain a maximum matching in the bipartite conflict
//!   graph `B(L, R, E_B)` incrementally as the split slides
//!   ([`SplitMatcher`]), and classify nets into winners (`Even` sets),
//!   forced losers (`Odd` sets) and the residual `B'` via alternating-path
//!   BFS. By König duality the winner sets extend to a maximum independent
//!   set, so the number of cut nets in the completion never exceeds the
//!   matching size (Theorems 2–5) — a bound this implementation
//!   debug-asserts on every split;
//! * **Phase II** — pin the winners' modules to their sides and place the
//!   remaining "free" modules first all-left then all-right, keeping the
//!   better ratio cut (Figure 6).
//!
//! The best partition over all `m − 1` splits is returned. A single
//! deterministic execution suffices — no random restarts (paper §5).
//!
//! Both phases are maintained *incrementally* as the split slides
//! (`DESIGN.md` §11): [`SplitMatcher::move_to_r`] reports the affected
//! vertices as a [`MoveDelta`], [`NetClassifier`] updates the two
//! alternating-reachability sets the classes are read from around just
//! the nets the move can change, and [`SweepState`] folds the resulting
//! class changes into maintained module tags and both-orientation cut
//! statistics, so each split costs work proportional to what changed
//! rather than the size of the instance. The winning partition is
//! materialized once, after the sweep, by replaying the winning prefix
//! through a fresh copy of the sweep's [`SplitMatcher`] and completing
//! it with the from-scratch [`CompletionOracle`]. In debug builds every
//! split is cross-checked against the from-scratch
//! [`classify`](SplitMatcher::classify) + [`CompletionOracle`] pipeline.
//!
//! The optional [`IgMatchOptions::refine_free_modules`] implements the
//! extension sketched at the end of §3 ("recursive calls to IG-Match in
//! order to optimally assign modules of B′, B″, etc."): instead of
//! treating the free modules as one indivisible block, their connected
//! components are assigned greedily side-by-side, which can only improve
//! the ratio cut.

mod bipartite;
mod refine;
mod sweep;

pub use bipartite::{
    MoveDelta, NetClass, NetClassChange, NetClassifier, SplitClassification, SplitMatcher,
};
pub use sweep::{CompletionOracle, ModuleTag, OrientedEval, SplitCandidate, SweepState};

use crate::engine::RunContext;
use crate::models::IgWeighting;
use crate::ordering::charged_net_ordering;
use crate::{PartitionError, PartitionResult};
use np_eigen::LanczosOptions;
use np_netlist::{Hypergraph, NetId};

/// Options for [`ig_match`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IgMatchOptions {
    /// Intersection-graph edge weighting used for the spectral ordering.
    pub weighting: IgWeighting,
    /// Eigensolver options.
    pub lanczos: LanczosOptions,
    /// Enables the §3 extension: component-wise assignment of the free
    /// modules of the winning split (never worsens the result).
    pub refine_free_modules: bool,
}

/// Outcome of an IG-Match run: the partition plus the Phase I quantities
/// at the winning split.
#[derive(Clone, Debug, PartialEq)]
pub struct IgMatchOutcome {
    /// The best module partition found over all splits.
    pub result: PartitionResult,
    /// Size of the maximum matching in `B` at the winning split — the
    /// optimal completion bound of Theorem 3.
    pub matching_size: usize,
    /// Loser count charged by the completion at the winning split
    /// (`Odd` sets plus one side of `B'`); `≤ matching_size` by Theorem 5.
    pub loser_count: usize,
}

/// Runs the full IG-Match algorithm: spectral net ordering on the
/// intersection graph, then matching-based completion over every split.
///
/// # Errors
///
/// * [`PartitionError::TooSmall`] for instances with fewer than 2 modules
///   or nets;
/// * [`PartitionError::Eigen`] if the eigensolve fails;
/// * [`PartitionError::Degenerate`] if no split yields two non-empty
///   sides.
///
/// # Example
///
/// ```
/// use np_core::{ig_match, IgMatchOptions};
/// use np_netlist::hypergraph_from_nets;
///
/// let hg = hypergraph_from_nets(
///     6,
///     &[vec![0, 1], vec![1, 2], vec![0, 2], vec![3, 4], vec![4, 5], vec![3, 5], vec![2, 3]],
/// );
/// let out = ig_match(&hg, &IgMatchOptions::default())?;
/// assert_eq!(out.result.stats.cut_nets, 1);
/// assert!(out.result.stats.cut_nets <= out.matching_size);
/// # Ok::<(), np_core::PartitionError>(())
/// ```
pub fn ig_match(hg: &Hypergraph, opts: &IgMatchOptions) -> Result<IgMatchOutcome, PartitionError> {
    ig_match_ctx(hg, opts, &RunContext::unlimited())
}

/// [`ig_match`] against an execution context — the single implementation
/// behind every entry point. The eigensolve charges one
/// matvec-equivalent per operator application against the context's meter
/// and the completion sweep checks the wall clock at every split, so a
/// tripped meter surfaces within one iteration's work.
///
/// The run is a deterministic function of the hypergraph and `opts`, so
/// the context's [`OperatorCache`](crate::engine::OperatorCache)
/// remembers each successful one under its full options. A repeat skips
/// the eigensolve and the sweep: it charges the meter what the solve
/// charged, in the same steps, and returns the remembered answer, so
/// labels, reports and metered spend (a tripped cap, a spent clock, a
/// cancel) are those of a fresh run. Errors are not remembered.
///
/// # Errors
///
/// The [`ig_match`] errors plus [`PartitionError::Budget`] when the
/// context's meter reports a limit hit.
pub fn ig_match_ctx(
    hg: &Hypergraph,
    opts: &IgMatchOptions,
    ctx: &RunContext<'_>,
) -> Result<IgMatchOutcome, PartitionError> {
    if hg.num_modules() < 2 {
        return Err(PartitionError::TooSmall {
            modules: hg.num_modules(),
            nets: hg.num_nets(),
        });
    }
    let memo = ctx.operators();
    if let Some((outcome, charge)) = memo.solved_ig_match(hg, opts) {
        charge.replay(ctx.meter())?;
        return Ok(outcome);
    }
    let (order, charge) = charged_net_ordering(hg, opts.weighting, &opts.lanczos, ctx)?;
    let outcome = ig_match_with_ordering_ctx(hg, &order, opts.refine_free_modules, ctx)?;
    memo.remember_ig_match(opts, &outcome, charge);
    Ok(outcome)
}

/// Runs the IG-Match completion over every split of an explicit net
/// ordering. Exposed so the matching machinery can be driven by
/// non-spectral orderings (tests, ablations).
///
/// # Errors
///
/// * [`PartitionError::InvalidInput`] if `order` is not a permutation of
///   the nets of `hg`;
/// * [`PartitionError::Degenerate`] if no split yields two non-empty
///   sides.
pub fn ig_match_with_ordering(
    hg: &Hypergraph,
    order: &[NetId],
    refine_free_modules: bool,
) -> Result<IgMatchOutcome, PartitionError> {
    ig_match_with_ordering_ctx(hg, order, refine_free_modules, &RunContext::unlimited())
}

/// [`ig_match_with_ordering`] against an execution context — the single
/// implementation behind every entry point. The context meter's wall
/// clock is checked once per split of the sweep.
///
/// # Errors
///
/// The [`ig_match_with_ordering`] errors plus [`PartitionError::Budget`]
/// when the context's meter reports a limit hit.
pub fn ig_match_with_ordering_ctx(
    hg: &Hypergraph,
    order: &[NetId],
    refine_free_modules: bool,
    ctx: &RunContext<'_>,
) -> Result<IgMatchOutcome, PartitionError> {
    let meter = ctx.meter();
    validate_net_ordering(hg, order)?;
    let m = hg.num_nets();
    if m < 2 {
        return Err(PartitionError::TooSmall {
            modules: hg.num_modules(),
            nets: m,
        });
    }

    // one matcher build serves the sweep and, cloned fresh, the replay
    let fresh = SplitMatcher::new(&ctx.intersection_neighbors(hg));
    let mut state = SweepState::new(hg, fresh.clone());

    let mut best: Option<Best> = None;

    // after moving k+1 nets, the split is (R = order[..=k] | L = order[k+1..]);
    // the last move empties L and is skipped (degenerate split)
    for (k, &net) in order[..m - 1].iter().enumerate() {
        meter.check()?;
        let SplitCandidate {
            stats,
            put_free_left,
            losers,
        } = state.advance(hg, net.0).candidate();
        debug_assert!(
            losers <= state.matching_size(),
            "Theorem 5 violated at split {k}: {losers} losers > MM {}",
            state.matching_size()
        );
        debug_assert!(
            stats.cut_nets <= losers,
            "completion cut {} exceeds loser count {losers} at split {k}",
            stats.cut_nets
        );
        let ratio = stats.ratio();
        if ratio.is_finite() && best.as_ref().is_none_or(|b| ratio < b.ratio) {
            best = Some(Best {
                ratio,
                split_rank: k,
                put_free_left,
                matching_size: state.matching_size(),
                loser_count: losers,
            });
        }
    }

    let best = best.ok_or(PartitionError::Degenerate)?;
    // Materialize the winner once, after the sweep: replay the winning
    // prefix through the fresh matcher and classify and complete it from
    // scratch, instead of cloning a partition (and free mask) on every
    // improvement mid-sweep.
    let mut matcher = fresh;
    let mut delta = MoveDelta::default();
    for &net in &order[..=best.split_rank] {
        matcher.move_to_r_into(net.0, &mut delta);
    }
    let mut completion = CompletionOracle::new(hg);
    let eval = completion.evaluate(hg, &matcher.classify());
    debug_assert_eq!(
        eval.candidate().stats.ratio().to_bits(),
        best.ratio.to_bits()
    );
    let mut partition = completion.materialize(hg, best.put_free_left);
    if refine_free_modules {
        refine::refine_free_components(hg, &mut partition, &completion.free_mask(hg));
    }
    let result = PartitionResult::evaluate(hg, partition, "IG-Match", Some(best.split_rank));
    debug_assert!(result.stats.cut_nets <= best.loser_count || refine_free_modules);
    Ok(IgMatchOutcome {
        result,
        matching_size: best.matching_size,
        loser_count: best.loser_count,
    })
}

/// Rejects orderings that are not permutations of the nets of `hg`
/// (wrong length, out-of-range ids or duplicates) — feeding such an
/// ordering to the incremental matcher would corrupt its state.
fn validate_net_ordering(hg: &Hypergraph, order: &[NetId]) -> Result<(), PartitionError> {
    if order.len() != hg.num_nets() {
        return Err(PartitionError::InvalidInput {
            reason: "net ordering length does not match the net count",
        });
    }
    let mut seen = vec![false; hg.num_nets()];
    for &net in order {
        match seen.get_mut(net.index()) {
            Some(slot) if !*slot => *slot = true,
            Some(_) => {
                return Err(PartitionError::InvalidInput {
                    reason: "net ordering contains a duplicate net",
                })
            }
            None => {
                return Err(PartitionError::InvalidInput {
                    reason: "net ordering references a net outside the hypergraph",
                })
            }
        }
    }
    Ok(())
}

/// The winning split of a sweep — just the numbers needed to replay and
/// score it; the partition itself is materialized once, after the loop.
struct Best {
    ratio: f64,
    split_rank: usize,
    put_free_left: bool,
    matching_size: usize,
    loser_count: usize,
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
    fn finds_bridge_cut() {
        let out = ig_match(&two_triangles(), &IgMatchOptions::default()).unwrap();
        assert_eq!(out.result.stats.cut_nets, 1);
        assert_eq!(out.result.stats.areas(), "3:3");
        assert!(out.result.stats.cut_nets <= out.matching_size);
        assert!(out.loser_count <= out.matching_size);
    }

    #[test]
    fn explicit_ordering_perfect_split() {
        let hg = two_triangles();
        let order: Vec<NetId> = [0u32, 1, 2, 6, 3, 4, 5].iter().map(|&i| NetId(i)).collect();
        let out = ig_match_with_ordering(&hg, &order, false).unwrap();
        assert_eq!(out.result.stats.cut_nets, 1);
    }

    #[test]
    fn adversarial_ordering_still_valid() {
        let hg = two_triangles();
        // worst-case interleaving
        let order: Vec<NetId> = [0u32, 3, 1, 4, 2, 5, 6].iter().map(|&i| NetId(i)).collect();
        let out = ig_match_with_ordering(&hg, &order, false).unwrap();
        let s = &out.result.stats;
        assert!(s.left > 0 && s.right > 0);
        assert_eq!(s.left + s.right, 6);
        assert_eq!(*s, out.result.partition.cut_stats(&hg));
        assert!(s.cut_nets <= out.loser_count);
    }

    #[test]
    fn stats_consistent_with_partition() {
        let out = ig_match(&two_triangles(), &IgMatchOptions::default()).unwrap();
        assert_eq!(
            out.result.stats,
            out.result.partition.cut_stats(&two_triangles())
        );
    }

    #[test]
    fn figure4_style_cut_below_matching_bound() {
        // A situation where the completed partition cuts fewer nets than
        // the matching size (paper Figure 4): losers may end up uncut when
        // Phase II pulls all their modules to one side.
        // nets: a={0,1}, b={1,2}, c={2,3}, d={3,4}, e={4,5}
        let hg = hypergraph_from_nets(
            6,
            &[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 5]],
        );
        // sweep all orderings of a path; bound must hold everywhere
        let order: Vec<NetId> = (0..5u32).map(NetId).collect();
        let out = ig_match_with_ordering(&hg, &order, false).unwrap();
        assert!(out.result.stats.cut_nets <= out.matching_size);
    }

    #[test]
    fn malformed_orderings_rejected_not_panicking() {
        let hg = two_triangles();
        // wrong length
        let short: Vec<NetId> = vec![NetId(0)];
        assert!(matches!(
            ig_match_with_ordering(&hg, &short, false),
            Err(PartitionError::InvalidInput { .. })
        ));
        // duplicate net
        let dup: Vec<NetId> = [0u32, 1, 2, 3, 4, 5, 5].iter().map(|&i| NetId(i)).collect();
        assert!(matches!(
            ig_match_with_ordering(&hg, &dup, false),
            Err(PartitionError::InvalidInput { .. })
        ));
        // out-of-range net id
        let oob: Vec<NetId> = [0u32, 1, 2, 3, 4, 5, 99]
            .iter()
            .map(|&i| NetId(i))
            .collect();
        assert!(matches!(
            ig_match_with_ordering(&hg, &oob, false),
            Err(PartitionError::InvalidInput { .. })
        ));
    }

    #[test]
    fn sweep_respects_wall_clock_budget() {
        use np_sparse::Budget;
        use std::time::Duration;
        let hg = two_triangles();
        let order: Vec<NetId> = (0..7u32).map(NetId).collect();
        let ctx = RunContext::with_budget(&Budget::default().with_wall_clock(Duration::ZERO));
        assert!(matches!(
            ig_match_with_ordering_ctx(&hg, &order, false, &ctx),
            Err(PartitionError::Budget(_))
        ));
    }

    #[test]
    fn single_net_rejected() {
        let hg = hypergraph_from_nets(3, &[vec![0, 1, 2]]);
        assert!(matches!(
            ig_match(&hg, &IgMatchOptions::default()),
            Err(PartitionError::TooSmall { .. })
        ));
    }

    #[test]
    fn two_identical_full_nets_degenerate() {
        // both nets contain all modules: every completion has an empty side
        let hg = hypergraph_from_nets(3, &[vec![0, 1, 2], vec![0, 1, 2]]);
        let order: Vec<NetId> = vec![NetId(0), NetId(1)];
        assert!(matches!(
            ig_match_with_ordering(&hg, &order, false),
            Err(PartitionError::Degenerate)
        ));
    }

    #[test]
    fn deterministic() {
        let hg = two_triangles();
        let a = ig_match(&hg, &IgMatchOptions::default()).unwrap();
        let b = ig_match(&hg, &IgMatchOptions::default()).unwrap();
        assert_eq!(a.result.partition, b.result.partition);
    }

    #[test]
    fn refinement_never_worsens() {
        let hg = two_triangles();
        let plain = ig_match(&hg, &IgMatchOptions::default()).unwrap();
        let refined = ig_match(
            &hg,
            &IgMatchOptions {
                refine_free_modules: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(refined.result.ratio() <= plain.result.ratio() + 1e-12);
    }

    #[test]
    fn all_weightings_work() {
        let hg = two_triangles();
        for w in IgWeighting::ALL {
            let out = ig_match(
                &hg,
                &IgMatchOptions {
                    weighting: w,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(out.result.stats.cut_nets, 1, "weighting {}", w.name());
        }
    }

    #[test]
    fn unbalanced_natural_cut_found() {
        // satellite of 2 modules attached by one net to a clique of 6
        let mut nets: Vec<Vec<u32>> = Vec::new();
        for i in 2..8u32 {
            for j in i + 1..8 {
                nets.push(vec![i, j]);
            }
        }
        nets.push(vec![0, 1]); // satellite net
        nets.push(vec![1, 2]); // coupling net
        let hg = hypergraph_from_nets(8, &nets);
        let out = ig_match(&hg, &IgMatchOptions::default()).unwrap();
        assert_eq!(out.result.stats.cut_nets, 1);
        assert_eq!(out.result.stats.areas(), "2:6");
    }
}
