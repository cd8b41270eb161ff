//! Resilient partitioning: a fallback chain with budgets and
//! deterministic fault injection.
//!
//! The plain entry points ([`ig_match`](crate::ig_match),
//! [`eig1`](crate::eig1()), …) propagate the first failure they hit. This
//! module makes partitioning *total*: [`robust_partition`] runs a chain
//! of progressively more conservative strategies and returns either a
//! [`PartitionResult`] or a structured [`RobustFailure`] — never a panic,
//! and (given a wall-clock [`Budget`](np_sparse::Budget)) never a hang. The chain is
//!
//! 1. **IG-Match** on the intersection model — the paper's algorithm,
//!    best quality (§3);
//! 2. **reseeded Lanczos restarts** — the same algorithm with fresh
//!    eigensolver seeds, which recovers from unlucky start vectors;
//! 3. **dense eigensolve** — the same algorithm with the spectral
//!    ordering computed by the dense Jacobi solver instead of Lanczos,
//!    immune to convergence stagnation;
//! 4. **clique-model EIG1** — the Hagen–Kahng baseline on the module
//!    graph, which sidesteps a pathological intersection graph entirely;
//! 5. **FM baseline** — purely combinatorial Fiduccia–Mattheyses from a
//!    deterministic seed partition, requiring no eigensolve at all.
//!
//! Every link is an engine stage: links 1–3 are [`IgMatchStage`]s that
//! differ only in their eigensolver options, link 4 is an [`Eig1Stage`]
//! and link 5 an [`FmStage`]. So the first link *is* `ig_match`, and with
//! no faults a chain that IG-Match solves returns its result bit for bit.
//! [`fallback_chain`] builds it as one [`RobustStage`], as it builds each
//! `np-serve` attempt. A reseed or the dense eigensolve runs only after
//! an eigensolver failure ([`PartitionError::Eigen`]): when λ₂ is simple
//! the Fiedler vector is fixed up to sign, so neither a new seed nor an
//! O(m³) dense solve can change any other outcome.
//!
//! Every attempt is recorded in [`Diagnostics`], so callers can see which
//! stage produced the answer and why earlier stages failed. Budget
//! exhaustion ([`PartitionError::Budget`]) and inputs with fewer than 2
//! modules ([`PartitionError::TooSmall`]) abort the chain immediately:
//! no later stage could succeed. Fewer than 2 nets escalates: the
//! IG-Match links need 2 nets, clique EIG1 and FM do not.
//!
//! With the `fault-inject` feature, a `FaultPlan` wraps chosen links in
//! the engine's fault decorator so every fallback link can be tested.

#[cfg(feature = "fault-inject")]
use crate::engine::fault::{FaultKind, FaultStage};
use crate::engine::stages::{Eig1Stage, FmStage, IgMatchStage};
use crate::engine::{BoxedStage, ChainAttempt, FallbackChain, RunContext, Stage, StageEvent};
use crate::{Eig1Options, IgMatchOptions, PartitionError, PartitionResult};
use np_netlist::rng::derive_seed;
use np_netlist::Hypergraph;
use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Reseeded links after a [`fallback_chain`]'s first link. Reseed `r`
/// (from 1) runs on `derive_seed(stream, r)`, and only after an
/// eigensolver failure ([`PartitionError::Eigen`]) of the link before it.
pub const RESEED_ATTEMPTS: usize = 2;

/// One link of the fallback chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FallbackStage {
    /// IG-Match with the caller's eigensolver options.
    IgMatch,
    /// The requested algorithm: the first link of each `np-serve` attempt.
    Requested,
    /// The first link retried on a reseeded stream.
    ReseededLanczos,
    /// IG-Match with the spectral ordering computed densely.
    DenseEigensolve,
    /// EIG1 on the clique model.
    CliqueEig1,
    /// Fiduccia–Mattheyses, which needs no eigensolve.
    FmBaseline,
}

impl FallbackStage {
    /// Human-readable stage name.
    pub fn name(self) -> &'static str {
        match self {
            FallbackStage::IgMatch => "IG-Match",
            FallbackStage::Requested => "requested",
            FallbackStage::ReseededLanczos => "reseeded Lanczos",
            FallbackStage::DenseEigensolve => "dense eigensolve",
            FallbackStage::CliqueEig1 => "clique EIG1",
            FallbackStage::FmBaseline => "FM baseline",
        }
    }
}

impl fmt::Display for FallbackStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Deterministic fault plan: which [`FaultKind`] to inject at which
/// stage (`fault-inject` builds only).
#[cfg(feature = "fault-inject")]
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<(FallbackStage, FaultKind)>,
}

#[cfg(feature = "fault-inject")]
impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault at `stage` (builder style). A fault at
    /// [`FallbackStage::ReseededLanczos`] fires on every reseed attempt.
    #[must_use]
    pub fn with(mut self, stage: FallbackStage, kind: FaultKind) -> Self {
        self.faults.push((stage, kind));
        self
    }

    /// The fault registered for `stage`, if any (first match wins).
    pub fn fault_at(&self, stage: FallbackStage) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|&(_, k)| k)
    }
}

/// Options for [`robust_partition`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RobustOptions {
    /// Options for the IG-Match links (weighting, eigensolver,
    /// free-module refinement); the clique EIG1 link shares the
    /// eigensolver options.
    pub ig_match: IgMatchOptions,
    /// Deterministic faults to force (testing the chain itself).
    #[cfg(feature = "fault-inject")]
    pub faults: FaultPlan,
}

impl RobustOptions {
    /// Options whose IG-Match links run with `ig_match`, with no faults
    /// planned.
    pub fn new(ig_match: IgMatchOptions) -> Self {
        RobustOptions {
            ig_match,
            #[cfg(feature = "fault-inject")]
            faults: FaultPlan::default(),
        }
    }
}

/// What happened across the whole chain: every attempt in order, the
/// winning stage (if any) and the total resource spend.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostics {
    /// Every stage execution, in chain order. The last entry is the
    /// winning stage on success.
    pub attempts: Vec<ChainAttempt<FallbackStage>>,
    /// The stage that produced the result; `None` if the chain failed.
    pub winning_stage: Option<FallbackStage>,
    /// Matvec-equivalents charged across all stages of this chain.
    pub matvecs: u64,
    /// Wall-clock time for the whole chain.
    pub elapsed: Duration,
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.winning_stage {
            Some(s) => write!(f, "solved by {s} after {} attempt(s)", self.attempts.len())?,
            None => write!(
                f,
                "no stage succeeded in {} attempt(s)",
                self.attempts.len()
            )?,
        }
        write!(
            f,
            ", {} matvecs, {:.1?} elapsed",
            self.matvecs, self.elapsed
        )
    }
}

/// Successful outcome of [`robust_partition`].
#[derive(Clone, Debug, PartialEq)]
pub struct RobustOutcome {
    /// The partition produced by the winning stage.
    pub result: PartitionResult,
    /// The chain's execution record.
    pub diagnostics: Diagnostics,
}

/// Failure of the whole chain, with the execution record attached.
#[derive(Clone, Debug, PartialEq)]
pub struct RobustFailure {
    /// The error that ended the chain: the aborting error for budget
    /// exhaustion / hopeless inputs, otherwise the last stage's error.
    pub error: PartitionError,
    /// The chain's execution record (partial progress included).
    pub diagnostics: Diagnostics,
}

impl fmt::Display for RobustFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "partitioning failed: {} ({})",
            self.error, self.diagnostics
        )
    }
}

impl std::error::Error for RobustFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Runs the fallback chain until a stage produces a partition.
///
/// The stages and escalation policy are described in the
/// [module docs](self). Runs unlimited; [`robust_partition_ctx`] meters
/// the chain.
///
/// # Errors
///
/// [`RobustFailure`] carrying the decisive [`PartitionError`] and the
/// full [`Diagnostics`]. The chain aborts early (without trying later
/// stages) on [`PartitionError::Budget`] and on
/// [`PartitionError::TooSmall`] with fewer than 2 modules; anything else
/// escalates to the next stage.
///
/// # Example
///
/// ```
/// use np_core::robust::{robust_partition, FallbackStage, RobustOptions};
/// use np_netlist::hypergraph_from_nets;
///
/// let hg = hypergraph_from_nets(
///     6,
///     &[vec![0, 1], vec![1, 2], vec![0, 2], vec![3, 4], vec![4, 5], vec![3, 5], vec![2, 3]],
/// );
/// let out = robust_partition(&hg, &RobustOptions::default()).unwrap();
/// assert_eq!(out.result.stats.cut_nets, 1);
/// assert_eq!(out.diagnostics.winning_stage, Some(FallbackStage::IgMatch));
/// ```
pub fn robust_partition(
    hg: &Hypergraph,
    opts: &RobustOptions,
) -> Result<RobustOutcome, RobustFailure> {
    robust_partition_ctx(hg, opts, &RunContext::unlimited())
}

/// [`robust_partition`] against an execution context — the single
/// implementation behind every entry point. All stages share the
/// context's [`BudgetMeter`](np_sparse::BudgetMeter); charging is
/// cooperative at per-iteration granularity, so a tripped budget surfaces
/// within one iteration's work of the requested limits, and a
/// caller-supplied context can share one allowance across several runs.
///
/// An event sink on the context sees every link of the chain as
/// `Started`/`Finished` stage events.
///
/// # Errors
///
/// Same as [`robust_partition`].
pub fn robust_partition_ctx(
    hg: &Hypergraph,
    opts: &RobustOptions,
    ctx: &RunContext<'_>,
) -> Result<RobustOutcome, RobustFailure> {
    RobustStage::new(opts.clone()).climb(hg, ctx)
}

/// Builds a fallback chain as one [`RobustStage`] named `name`: the
/// labelled `first` link (the requested stage on seed stream `stream`),
/// then [`RESEED_ATTEMPTS`] links `reseed(derive_seed(stream, r))` and
/// then the `rescue` links, each run only when the link before it failed
/// with [`PartitionError::Eigen`], then the `tail` links in order.
pub fn fallback_chain(
    name: &'static str,
    first: (FallbackStage, BoxedStage),
    stream: u64,
    reseed: impl Fn(u64) -> BoxedStage,
    rescue: Vec<(FallbackStage, BoxedStage)>,
    tail: Vec<(FallbackStage, BoxedStage)>,
) -> RobustStage {
    let eigen = |e: &PartitionError| matches!(e, PartitionError::Eigen(_));
    let mut chain = FallbackChain::new().link(first.0, first.1);
    for r in 1..=RESEED_ATTEMPTS as u64 {
        let stage = reseed(derive_seed(stream, r));
        chain = chain.link_if(FallbackStage::ReseededLanczos, stage, eigen);
    }
    for (label, stage) in rescue {
        chain = chain.link_if(label, stage, eigen);
    }
    for (label, stage) in tail {
        chain = chain.link(label, stage);
    }
    RobustStage {
        name,
        chain,
        climbed: Mutex::new(Vec::new()),
    }
}

/// A [`fallback_chain`] run as one engine stage, so portfolios and
/// pipelines can treat "a stage with every safety net" as one attempt.
/// An answer's [`Diagnostics`] line goes out as a [`StageEvent::Detail`].
/// It keeps the labels its last run climbed ([`climbed`](Self::climbed)):
/// `np-serve` reads its `fm-fallback` reason and `retries` from them.
pub struct RobustStage {
    name: &'static str,
    chain: FallbackChain<FallbackStage>,
    climbed: Mutex<Vec<FallbackStage>>,
}

impl RobustStage {
    /// The five-link chain of the [module docs](self), named `robust`.
    /// Seeds reseeded links from `opts.ig_match.lanczos.seed`.
    pub fn new(opts: RobustOptions) -> Self {
        let opts = &opts;
        let ig = opts.ig_match;
        let ig_match = |label, ig| link(opts, label, IgMatchStage::new(ig));
        let mut dense = ig;
        dense.lanczos.dense_cutoff = usize::MAX;
        let eig1 = Eig1Options {
            lanczos: ig.lanczos,
        };
        fallback_chain(
            "robust",
            ig_match(FallbackStage::IgMatch, ig),
            ig.lanczos.seed,
            |seed| {
                let mut reseeded = ig;
                reseeded.lanczos.seed = seed;
                ig_match(FallbackStage::ReseededLanczos, reseeded).1
            },
            vec![ig_match(FallbackStage::DenseEigensolve, dense)],
            vec![
                link(opts, FallbackStage::CliqueEig1, Eig1Stage::new(eig1)),
                link(opts, FallbackStage::FmBaseline, FmStage::default()),
            ],
        )
    }

    /// The labels of the links the last run attempted, in order; empty
    /// before the first run and after a run that panicked.
    pub fn climbed(&self) -> Vec<FallbackStage> {
        self.record().clone()
    }

    /// Runs the chain until a link answers, recording the climb. The
    /// diagnostics count what this climb spent through the context's
    /// meter handle, not the pool it shares with other portfolio attempts.
    fn climb(&self, hg: &Hypergraph, ctx: &RunContext<'_>) -> Result<RobustOutcome, RobustFailure> {
        self.record().clear();
        let (started, spent_before) = (Instant::now(), ctx.meter().local_used());
        let diagnostics = |attempts: Vec<ChainAttempt<FallbackStage>>, winning_stage| {
            *self.record() = attempts.iter().map(|a| a.label).collect();
            Diagnostics {
                attempts,
                winning_stage,
                matvecs: ctx.meter().local_used() - spent_before,
                elapsed: started.elapsed(),
            }
        };
        match self.chain.run(hg, ctx) {
            Ok(out) => Ok(RobustOutcome {
                diagnostics: diagnostics(out.attempts, Some(out.winner)),
                result: out.result,
            }),
            Err(fail) => Err(RobustFailure {
                diagnostics: diagnostics(fail.attempts, None),
                error: fail.error,
            }),
        }
    }

    fn record(&self) -> std::sync::MutexGuard<'_, Vec<FallbackStage>> {
        self.climbed.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Stage for RobustStage {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(
        &self,
        hg: &Hypergraph,
        _input: Option<PartitionResult>,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        let outcome = self.climb(hg, ctx).map_err(|failure| failure.error)?;
        if ctx.has_events() {
            let message = outcome.diagnostics.to_string();
            ctx.emit(StageEvent::Detail {
                stage: self.name,
                message: &message,
            });
        }
        Ok(outcome.result)
    }
}

/// `stage` as the link labelled `label`, wrapped in the fault decorator
/// when the plan names the label (`fault-inject` builds only).
fn link(
    opts: &RobustOptions,
    label: FallbackStage,
    stage: impl Stage + Send + Sync + 'static,
) -> (FallbackStage, BoxedStage) {
    #[cfg(feature = "fault-inject")]
    if let Some(kind) = opts.faults.fault_at(label) {
        return (label, Box::new(FaultStage::new(kind, Box::new(stage))));
    }
    #[cfg(not(feature = "fault-inject"))]
    let _ = opts;
    (label, Box::new(stage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_netlist::hypergraph_from_nets;
    use np_sparse::{Budget, BudgetMeter};

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
    fn healthy_input_solved_by_first_stage() {
        let out = robust_partition(&two_triangles(), &RobustOptions::default()).unwrap();
        assert_eq!(out.result.stats.cut_nets, 1);
        assert_eq!(out.diagnostics.winning_stage, Some(FallbackStage::IgMatch));
        assert_eq!(out.diagnostics.attempts.len(), 1);
        assert!(out.diagnostics.attempts[0].error.is_none());
        assert!(out.diagnostics.matvecs > 0);
    }

    #[test]
    fn zero_wall_clock_budget_aborts_with_budget_error() {
        let meter = BudgetMeter::new(&Budget::default().with_wall_clock(Duration::ZERO));
        let fail = robust_partition_ctx(
            &two_triangles(),
            &RobustOptions::default(),
            &RunContext::with_meter(&meter),
        )
        .unwrap_err();
        assert!(matches!(fail.error, PartitionError::Budget(_)));
        // budget exhaustion aborts: later stages are never attempted
        assert_eq!(fail.diagnostics.attempts.len(), 1);
        assert_eq!(fail.diagnostics.winning_stage, None);
        assert!(fail.to_string().contains("budget"));
    }

    #[test]
    fn too_small_input_aborts_immediately() {
        let hg = hypergraph_from_nets(1, &[vec![0]]);
        let fail = robust_partition(&hg, &RobustOptions::default()).unwrap_err();
        assert!(matches!(fail.error, PartitionError::TooSmall { .. }));
        assert_eq!(fail.diagnostics.attempts.len(), 1);
    }

    #[test]
    fn degenerate_intersection_model_falls_back_to_clique() {
        // both nets span all modules: the IG-Match completion is
        // degenerate at every split (all spectral stages fail), but the
        // clique-model EIG1 sweep always returns a finite-ratio split
        let hg = hypergraph_from_nets(4, &[vec![0, 1, 2, 3], vec![0, 1, 2, 3]]);
        let out = robust_partition(&hg, &RobustOptions::default()).unwrap();
        assert_eq!(
            out.diagnostics.winning_stage,
            Some(FallbackStage::CliqueEig1)
        );
        let s = &out.result.stats;
        assert!(s.left > 0 && s.right > 0);
        // IG-Match failed, then clique won: a degenerate split is no
        // eigensolver failure, so neither a reseed nor the dense
        // eigensolve ran
        let labels: Vec<_> = out.diagnostics.attempts.iter().map(|a| a.label).collect();
        assert_eq!(labels, [FallbackStage::IgMatch, FallbackStage::CliqueEig1]);
        for a in &out.diagnostics.attempts[..1] {
            assert!(matches!(a.error, Some(PartitionError::Degenerate)), "{a:?}");
        }
    }

    #[test]
    fn diagnostics_display_mentions_stage() {
        let out = robust_partition(&two_triangles(), &RobustOptions::default()).unwrap();
        let s = out.diagnostics.to_string();
        assert!(s.contains("IG-Match"), "{s}");
        assert!(s.contains("matvecs"), "{s}");
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn fault_plan_lookup() {
        let plan = FaultPlan::new()
            .with(FallbackStage::IgMatch, FaultKind::NoConvergence)
            .with(FallbackStage::FmBaseline, FaultKind::ExhaustBudget);
        assert_eq!(
            plan.fault_at(FallbackStage::IgMatch),
            Some(FaultKind::NoConvergence)
        );
        assert_eq!(plan.fault_at(FallbackStage::CliqueEig1), None);
    }
}
