//! Stage adapters for every partitioner in the workspace.
//!
//! Each adapter is a thin struct wrapping the algorithm's option struct
//! and implementing [`Partitioner`] (or [`Stage`] for transformers), so
//! CLI flags, config files or library callers can assemble flows from
//! uniform parts. Seeds that live in the option structs (Lanczos, RCut,
//! KL) stay authoritative, which keeps stage runs bit-identical to the
//! corresponding free functions.

use super::context::{RunContext, StageEvent};
use super::stage::{Partitioner, Stage};
use crate::eig1::Eig1Options;
use crate::igmatch::IgMatchOptions;
use crate::igvote::IgVoteOptions;
use crate::models::clique_adjacency;
use crate::{PartitionError, PartitionResult};
use np_baselines::{
    fm_bisect_metered, kl_bisect_metered, rcut_metered, FmOptions, KlOptions, RcutOptions,
};
use np_netlist::rng::Rng64;
use np_netlist::{Bipartition, Hypergraph, ModuleId, Side};

/// The Hagen–Kahng EIG1 baseline as a stage: spectral module ordering on
/// the clique model plus the best-prefix ratio-cut sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Eig1Stage {
    /// Algorithm options.
    pub opts: Eig1Options,
}

impl Eig1Stage {
    /// A stage with the given options.
    pub fn new(opts: Eig1Options) -> Self {
        Eig1Stage { opts }
    }
}

impl Partitioner for Eig1Stage {
    fn name(&self) -> &'static str {
        "EIG1"
    }

    fn partition(
        &self,
        hg: &Hypergraph,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        crate::eig1::eig1_ctx(hg, &self.opts, ctx)
    }
}

/// The IG-Vote heuristic as a stage: spectral net ordering plus threshold
/// voting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IgVoteStage {
    /// Algorithm options.
    pub opts: IgVoteOptions,
}

impl IgVoteStage {
    /// A stage with the given options.
    pub fn new(opts: IgVoteOptions) -> Self {
        IgVoteStage { opts }
    }
}

impl Default for IgVoteStage {
    fn default() -> Self {
        IgVoteStage::new(IgVoteOptions::default())
    }
}

impl Partitioner for IgVoteStage {
    fn name(&self) -> &'static str {
        "IG-Vote"
    }

    fn partition(
        &self,
        hg: &Hypergraph,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        crate::igvote::ig_vote_ctx(hg, &self.opts, ctx)
    }
}

/// The paper's IG-Match algorithm as a stage.
///
/// The Phase I matching bound at the winning split is reported through
/// [`StageEvent::Detail`], so instrumented runs still see the
/// `cut ≤ |maximum matching|` certificate the free function returns in
/// [`IgMatchOutcome`](crate::IgMatchOutcome).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IgMatchStage {
    /// Algorithm options.
    pub opts: IgMatchOptions,
}

impl IgMatchStage {
    /// A stage with the given options.
    pub fn new(opts: IgMatchOptions) -> Self {
        IgMatchStage { opts }
    }
}

impl Partitioner for IgMatchStage {
    fn name(&self) -> &'static str {
        "IG-Match"
    }

    fn partition(
        &self,
        hg: &Hypergraph,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        let out = crate::igmatch::ig_match_ctx(hg, &self.opts, ctx)?;
        if ctx.has_events() {
            let message = format!(
                "cut {} within matching bound {} ({} forced losers)",
                out.result.stats.cut_nets, out.matching_size, out.loser_count
            );
            ctx.emit(StageEvent::Detail {
                stage: Partitioner::name(self),
                message: &message,
            });
        }
        Ok(out.result)
    }
}

/// Fiduccia–Mattheyses as a stage. Purely combinatorial — no
/// eigensolve — so it serves as the last line of defense in fallback
/// chains.
///
/// [`FmStage::default`] starts from the deterministic "first half left"
/// partition; [`FmStage::seeded`] starts from a random balanced one drawn
/// from its seed, so the attempts of a best-of-N portfolio each start
/// somewhere else.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FmStage {
    /// Algorithm options.
    pub opts: FmOptions,
    /// Seed of the random balanced start; `None` starts from the first
    /// half.
    pub seed: Option<u64>,
}

impl FmStage {
    /// A stage with the given options, from the first-half start.
    pub fn new(opts: FmOptions) -> Self {
        FmStage { opts, seed: None }
    }

    /// A stage with default options from the random balanced start of
    /// `seed`.
    pub fn seeded(seed: u64) -> Self {
        FmStage {
            opts: FmOptions::default(),
            seed: Some(seed),
        }
    }

    /// The start partition on `n` modules: the first `n / 2` modules on
    /// the left, or with a seed, the first half of a shuffle of them.
    pub fn start(&self, n: usize) -> Bipartition {
        let mut order: Vec<u32> = (0..n as u32).collect();
        if let Some(seed) = self.seed {
            Rng64::new(seed).shuffle(&mut order);
        }
        Bipartition::from_left_set(n, order[..n / 2].iter().copied().map(ModuleId))
    }
}

impl Partitioner for FmStage {
    fn name(&self) -> &'static str {
        match self.seed {
            None => "FM",
            Some(_) => "FM-restart",
        }
    }

    fn partition(
        &self,
        hg: &Hypergraph,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        let n = hg.num_modules();
        if n < 2 {
            return Err(PartitionError::TooSmall {
                modules: n,
                nets: hg.num_nets(),
            });
        }
        let improved = fm_bisect_metered(hg, &self.start(n), &self.opts, ctx.meter())?;
        let stats = improved.partition.cut_stats(hg);
        if stats.left == 0 || stats.right == 0 {
            return Err(PartitionError::Degenerate);
        }
        Ok(PartitionResult::evaluate(
            hg,
            improved.partition,
            Partitioner::name(self),
            None,
        ))
    }
}

/// The RCut1.0 stand-in (ratio-cut shifting/group-swapping with random
/// restarts) as a stage. The restart seed comes from
/// [`RcutOptions::seed`], keeping stage runs bit-identical to
/// [`rcut`](np_baselines::rcut()).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RcutStage {
    /// Algorithm options.
    pub opts: RcutOptions,
}

impl RcutStage {
    /// A stage with the given options.
    pub fn new(opts: RcutOptions) -> Self {
        RcutStage { opts }
    }
}

impl Default for RcutStage {
    fn default() -> Self {
        RcutStage::new(RcutOptions::default())
    }
}

impl Partitioner for RcutStage {
    fn name(&self) -> &'static str {
        "RCut"
    }

    fn partition(
        &self,
        hg: &Hypergraph,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        if hg.num_modules() < 2 {
            return Err(PartitionError::TooSmall {
                modules: hg.num_modules(),
                nets: hg.num_nets(),
            });
        }
        let r = rcut_metered(hg, &self.opts, ctx.meter())?;
        Ok(PartitionResult::evaluate(hg, r.partition, "RCut", None))
    }
}

/// Kernighan–Lin bisection on the clique model of the netlist, as a
/// stage. The restart seed comes from [`KlOptions::seed`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KlStage {
    /// Algorithm options.
    pub opts: KlOptions,
}

impl KlStage {
    /// A stage with the given options.
    pub fn new(opts: KlOptions) -> Self {
        KlStage { opts }
    }
}

impl Default for KlStage {
    fn default() -> Self {
        KlStage::new(KlOptions::default())
    }
}

impl Partitioner for KlStage {
    fn name(&self) -> &'static str {
        "KL"
    }

    fn partition(
        &self,
        hg: &Hypergraph,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        if hg.num_modules() < 2 {
            return Err(PartitionError::TooSmall {
                modules: hg.num_modules(),
                nets: hg.num_nets(),
            });
        }
        let graph = clique_adjacency(hg);
        let r = kl_bisect_metered(&graph, &self.opts, ctx.meter())?;
        let sides = r
            .left
            .iter()
            .map(|&l| if l { Side::Left } else { Side::Right })
            .collect();
        let partition = Bipartition::from_sides(sides);
        Ok(PartitionResult::evaluate(hg, partition, "KL", None))
    }
}

/// Ratio-objective FM refinement of an upstream partition — the
/// "standard iterative techniques" post-processing of paper §5. A
/// transformer: it requires pipeline input and preserves the upstream
/// `split_rank`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RatioRefineStage {
    /// Upper bound on refinement passes.
    pub max_passes: usize,
    /// Algorithm label stamped on the refined result (e.g.
    /// `"IG-Match+FM"`).
    pub algorithm: &'static str,
}

impl RatioRefineStage {
    /// A refinement stage with the given pass bound and result label.
    pub fn new(max_passes: usize, algorithm: &'static str) -> Self {
        RatioRefineStage {
            max_passes,
            algorithm,
        }
    }
}

impl Stage for RatioRefineStage {
    fn name(&self) -> &'static str {
        "ratio-refine"
    }

    fn run(
        &self,
        hg: &Hypergraph,
        input: Option<PartitionResult>,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        let prev = input.ok_or(PartitionError::InvalidInput {
            reason: "ratio refinement needs an upstream partition",
        })?;
        let (partition, stats) = np_baselines::rcut::refine_ratio_cut_metered(
            hg,
            &prev.partition,
            self.max_passes,
            ctx.meter(),
        )?;
        Ok(PartitionResult {
            partition,
            stats,
            algorithm: self.algorithm,
            split_rank: prev.split_rank,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::stage::run_stage;
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
    fn every_producer_finds_the_bridge() {
        let hg = two_triangles();
        let ctx = RunContext::unlimited();
        let stages: Vec<Box<dyn Stage>> = vec![
            Box::new(Eig1Stage::default()),
            Box::new(IgVoteStage::default()),
            Box::new(IgMatchStage::default()),
            Box::new(RcutStage::default()),
            Box::new(KlStage::default()),
        ];
        for stage in stages {
            let r = run_stage(stage.as_ref(), &hg, None, &ctx).unwrap();
            assert_eq!(r.stats.cut_nets, 1, "{}", stage.name());
            assert_eq!(r.stats, r.partition.cut_stats(&hg), "{}", stage.name());
        }
    }

    #[test]
    fn fm_stage_improves_the_seed() {
        let hg = two_triangles();
        for (stage, name) in [
            (FmStage::default(), "FM"),
            (FmStage::seeded(7), "FM-restart"),
        ] {
            let r = stage.partition(&hg, &RunContext::unlimited()).unwrap();
            assert!(r.stats.left > 0 && r.stats.right > 0);
            assert_eq!(r.algorithm, name);
        }
        // the first half, or a balanced shuffle that moves with the seed
        let left = |p: Bipartition| {
            p.sides()
                .iter()
                .map(|&s| s == Side::Left)
                .collect::<Vec<_>>()
        };
        let first = left(FmStage::default().start(10));
        assert_eq!(first, (0..10).map(|m| m < 5).collect::<Vec<_>>());
        let shuffled = left(FmStage::seeded(7).start(10));
        assert_eq!(shuffled.iter().filter(|&&l| l).count(), 5);
        assert_ne!(shuffled, first);
        assert_ne!(shuffled, left(FmStage::seeded(8).start(10)));
    }

    #[test]
    fn producers_reject_tiny_instances() {
        let hg = hypergraph_from_nets(1, &[vec![0]]);
        let ctx = RunContext::unlimited();
        for stage in [
            Box::new(FmStage::default()) as Box<dyn Stage>,
            Box::new(RcutStage::default()),
            Box::new(KlStage::default()),
        ] {
            assert!(
                matches!(
                    stage.run(&hg, None, &ctx),
                    Err(PartitionError::TooSmall { .. })
                ),
                "{}",
                stage.name()
            );
        }
    }

    #[test]
    fn refine_without_input_rejected() {
        let hg = two_triangles();
        let stage = RatioRefineStage::new(10, "refined");
        assert!(matches!(
            stage.run(&hg, None, &RunContext::unlimited()),
            Err(PartitionError::InvalidInput { .. })
        ));
    }

    #[test]
    fn refine_preserves_label_and_rank() {
        let hg = two_triangles();
        let ctx = RunContext::unlimited();
        let first = IgMatchStage::default().partition(&hg, &ctx).unwrap();
        let rank = first.split_rank;
        let refined = RatioRefineStage::new(10, "IG-Match+FM")
            .run(&hg, Some(first), &ctx)
            .unwrap();
        assert_eq!(refined.algorithm, "IG-Match+FM");
        assert_eq!(refined.split_rank, rank);
    }

    #[test]
    fn ig_match_stage_emits_matching_bound_detail() {
        use std::sync::Mutex;
        let hg = two_triangles();
        let details = Mutex::new(Vec::<String>::new());
        let sink = |e: &StageEvent<'_>| {
            if let StageEvent::Detail { message, .. } = e {
                details.lock().unwrap().push(message.to_string());
            }
        };
        let ctx = RunContext::unlimited().with_events(&sink);
        IgMatchStage::default().partition(&hg, &ctx).unwrap();
        let details = details.into_inner().unwrap();
        assert_eq!(details.len(), 1);
        assert!(details[0].contains("matching bound"), "{}", details[0]);
    }

    #[test]
    fn stage_budgets_enforced() {
        use np_sparse::Budget;
        let hg = two_triangles();
        let budget = Budget::default().with_matvecs(1);
        for stage in [
            Box::new(Eig1Stage::default()) as Box<dyn Stage>,
            Box::new(IgMatchStage::default()),
            Box::new(RcutStage::default()),
            Box::new(KlStage::default()),
        ] {
            let ctx = RunContext::with_budget(&budget);
            assert!(
                matches!(stage.run(&hg, None, &ctx), Err(PartitionError::Budget(_))),
                "{}",
                stage.name()
            );
        }
    }
}
