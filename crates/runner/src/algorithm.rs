//! The algorithm table: the one place an algorithm name becomes a
//! configured engine stage, for a single run or for portfolio attempt
//! `i`. The `np-part` CLI and the `np-serve` service both build their
//! stages here, so the same name and seed give the same stage in every
//! front end.
//!
//! Every builder takes the spectral choice as an [`IgMatchOptions`]
//! (weighting, free-module refinement); callers without such flags pass
//! the default. IG-Vote takes its weighting from it; EIG1 and the
//! combinatorial baselines ignore it.

use crate::Portfolio;
use np_baselines::{KlOptions, RcutOptions};
use np_core::engine::stages::{Eig1Stage, FmStage, IgMatchStage, IgVoteStage, KlStage, RcutStage};
use np_core::engine::BoxedStage;
use np_core::hybrid::{hybrid_pipeline, HybridOptions};
use np_core::{Eig1Options, IgMatchOptions, IgVoteOptions, RobustOptions, RobustStage};
use np_netlist::rng::derive_seed;

/// A bipartitioning algorithm of the workspace, by its front-end name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// IG-Match, the paper's algorithm (`igmatch`).
    IgMatch,
    /// IG-Vote (`igvote`).
    IgVote,
    /// EIG1 on the clique model (`eig1`).
    Eig1,
    /// The RCut1.0 stand-in (`rcut`).
    Rcut,
    /// Fiduccia–Mattheyses (`fm`).
    Fm,
    /// Kernighan–Lin (`kl`).
    Kl,
    /// IG-Match polished by ratio-objective FM (`hybrid`).
    Hybrid,
    /// The resilient fallback chain (`robust`).
    Robust,
}

impl Algorithm {
    /// Every algorithm, in front-end listing order.
    pub const ALL: [Algorithm; 8] = [
        Algorithm::IgMatch,
        Algorithm::IgVote,
        Algorithm::Eig1,
        Algorithm::Rcut,
        Algorithm::Fm,
        Algorithm::Kl,
        Algorithm::Hybrid,
        Algorithm::Robust,
    ];

    /// The front-end name (`--algorithm` value, wire `algo` value).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::IgMatch => "igmatch",
            Algorithm::IgVote => "igvote",
            Algorithm::Eig1 => "eig1",
            Algorithm::Rcut => "rcut",
            Algorithm::Fm => "fm",
            Algorithm::Kl => "kl",
            Algorithm::Hybrid => "hybrid",
            Algorithm::Robust => "robust",
        }
    }

    /// The algorithm with front-end name `name`, if any.
    pub fn from_name(name: &str) -> Option<Algorithm> {
        Algorithm::ALL.into_iter().find(|a| a.name() == name)
    }

    /// One single run: every option seed keeps its default, RCut1.0 and
    /// KL keep their internal restart loops, and FM starts from its fixed
    /// seed partition.
    pub fn stage(self, ig: IgMatchOptions) -> BoxedStage {
        self.build(ig, None)
    }

    /// One portfolio attempt on seed stream `stream`: every option seed
    /// moves onto the stream and internal restart loops collapse to one
    /// run (the portfolio is the restart loop). FM draws a random start
    /// from `stream` instead of its fixed one.
    pub fn attempt(self, ig: IgMatchOptions, stream: u64) -> BoxedStage {
        self.build(ig, Some(stream))
    }

    /// `n` attempts labelled `"{name}#{i}"`, attempt `i` on seed stream
    /// `derive_seed(seed, i)`.
    pub fn portfolio(self, ig: IgMatchOptions, n: usize, seed: u64) -> Portfolio {
        Portfolio::new().restarts(self.name(), n, |i| {
            self.attempt(ig, derive_seed(seed, i as u64))
        })
    }

    /// The table itself: a single run when `stream` is `None`, a
    /// portfolio attempt otherwise.
    fn build(self, ig: IgMatchOptions, stream: Option<u64>) -> BoxedStage {
        let mut ig = ig;
        let mut vote = IgVoteOptions {
            weighting: ig.weighting,
            ..Default::default()
        };
        let mut eig1 = Eig1Options::default();
        if let Some(seed) = stream {
            ig.lanczos.seed = seed;
            vote.lanczos.seed = seed;
            eig1.lanczos.seed = seed;
        }
        match (self, stream) {
            (Algorithm::IgMatch, _) => Box::new(IgMatchStage::new(ig)),
            (Algorithm::IgVote, _) => Box::new(IgVoteStage::new(vote)),
            (Algorithm::Eig1, _) => Box::new(Eig1Stage::new(eig1)),
            (Algorithm::Hybrid, _) => Box::new(hybrid_pipeline(&HybridOptions {
                ig_match: ig,
                ..Default::default()
            })),
            (Algorithm::Robust, _) => Box::new(RobustStage::new(RobustOptions::new(ig))),
            (Algorithm::Fm, None) => Box::new(FmStage::default()),
            (Algorithm::Fm, Some(seed)) => Box::new(FmStage::seeded(seed)),
            (Algorithm::Rcut, None) => Box::new(RcutStage::default()),
            (Algorithm::Rcut, Some(seed)) => Box::new(RcutStage::new(RcutOptions {
                runs: 1,
                seed,
                ..Default::default()
            })),
            (Algorithm::Kl, None) => Box::new(KlStage::default()),
            (Algorithm::Kl, Some(seed)) => Box::new(KlStage::new(KlOptions {
                runs: 1,
                seed,
                ..Default::default()
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_portfolio, PortfolioOptions};
    use np_core::engine::{run_stage, RunContext};
    use np_netlist::generate::{generate, GeneratorConfig};
    use np_sparse::BudgetMeter;

    #[test]
    fn every_entry_runs_as_a_stage_and_as_a_portfolio() {
        let hg = generate(&GeneratorConfig::new(60, 66, 3));
        let ig = IgMatchOptions::default();
        let opts = PortfolioOptions::default().with_threads(2);
        for a in Algorithm::ALL {
            assert_eq!(Algorithm::from_name(a.name()), Some(a));
            let single = run_stage(a.stage(ig).as_ref(), &hg, None, &RunContext::unlimited());
            assert!(single.unwrap().ratio().is_finite(), "{a:?}");
            let p = a.portfolio(ig, 3, 5);
            assert_eq!(p.attempts()[2].label(), format!("{}#2", a.name()));
            let out = run_portfolio(&hg, &p, &opts, &BudgetMeter::unlimited(), None).unwrap();
            assert_eq!(out.report.attempts.len(), 3, "{a:?}");
            assert!(out.best.ratio().is_finite(), "{a:?}");
        }
    }

    #[test]
    fn attempts_follow_their_stream() {
        // one fixed context: only the stream may move the attempt
        let hg = generate(&GeneratorConfig::new(60, 66, 3));
        let ig = IgMatchOptions::default();
        for a in [Algorithm::Rcut, Algorithm::Kl, Algorithm::Fm] {
            let mut distinct = Vec::new();
            for stream in 0..4 {
                let r = run_stage(
                    a.attempt(ig, stream).as_ref(),
                    &hg,
                    None,
                    &RunContext::unlimited(),
                );
                let sides = r.unwrap().partition.sides().to_vec();
                if !distinct.contains(&sides) {
                    distinct.push(sides);
                }
            }
            assert!(distinct.len() > 1, "{a:?} ignores its stream");
        }
    }
}
