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
//! [`robust_partition_ctx`] runs the [`FallbackChain`] against a shared
//! [`RunContext`] — the escalation policy is data, not control flow.
//!
//! Every attempt is recorded in [`Diagnostics`], so callers can see which
//! stage produced the answer and why earlier stages failed. Budget
//! exhaustion ([`PartitionError::Budget`]) and structurally hopeless
//! inputs ([`PartitionError::TooSmall`]) abort the chain immediately:
//! later stages share the same spent budget / tiny input and would fail
//! identically.
//!
//! With the `fault-inject` feature, a `FaultPlan` wraps chosen links in
//! the engine's fault decorator so every fallback link can be tested.

#[cfg(feature = "fault-inject")]
use crate::engine::fault::{FaultKind, FaultStage};
use crate::engine::stages::{Eig1Stage, FmStage, IgMatchStage};
use crate::engine::{ChainAttempt, FallbackChain, RunContext, Stage};
use crate::{Eig1Options, IgMatchOptions, PartitionError, PartitionResult};
use np_netlist::rng::derive_seed;
use np_netlist::Hypergraph;
use np_sparse::BudgetMeter;
use std::fmt;
use std::time::Duration;

/// Reseeded IG-Match attempts between the primary IG-Match link and the
/// dense eigensolve. Attempt `i` (from 1) seeds Lanczos with
/// `derive_seed(seed, i)`.
pub const RESEED_ATTEMPTS: usize = 2;

/// One link of the fallback chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FallbackStage {
    /// IG-Match with the caller's eigensolver options.
    IgMatch,
    /// IG-Match retried with a reseeded Lanczos start vector.
    ReseededLanczos,
    /// IG-Match with the spectral ordering computed densely.
    DenseEigensolve,
    /// EIG1 on the clique model.
    CliqueEig1,
    /// Fiduccia–Mattheyses from a deterministic seed partition.
    FmBaseline,
}

impl FallbackStage {
    /// Human-readable stage name.
    pub fn name(self) -> &'static str {
        match self {
            FallbackStage::IgMatch => "IG-Match",
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

/// What happened across the whole chain: every attempt in order, the
/// winning stage (if any) and the total resource spend.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostics {
    /// Every stage execution, in chain order. The last entry is the
    /// winning stage on success.
    pub attempts: Vec<ChainAttempt<FallbackStage>>,
    /// The stage that produced the result; `None` if the chain failed.
    pub winning_stage: Option<FallbackStage>,
    /// Matvec-equivalents charged across all stages.
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
/// stages) on [`PartitionError::Budget`] and
/// [`PartitionError::TooSmall`]; anything else escalates to the next
/// stage.
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
/// context's [`BudgetMeter`]; charging is cooperative at per-iteration
/// granularity, so a tripped budget surfaces within one iteration's work
/// of the requested limits, and a caller-supplied context can share one
/// allowance across several runs.
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
    let chain = build_chain(opts);
    match chain.run(hg, ctx) {
        Ok(out) => Ok(RobustOutcome {
            result: out.result,
            diagnostics: diagnostics(out.attempts, Some(out.winner), ctx.meter()),
        }),
        Err(fail) => Err(RobustFailure {
            error: fail.error,
            diagnostics: diagnostics(fail.attempts, None, ctx.meter()),
        }),
    }
}

/// Declares the five-link escalation policy of the module docs as engine
/// data: one [`FallbackChain`] of engine stages. The chain's
/// [`default_fatal`](crate::engine::default_fatal) policy provides the
/// budget-exhaustion / hopeless-input abort behavior.
fn build_chain(opts: &RobustOptions) -> FallbackChain<FallbackStage> {
    let ig = opts.ig_match;
    let mut chain = link(
        FallbackChain::new(),
        opts,
        FallbackStage::IgMatch,
        IgMatchStage::new(ig),
    );
    for attempt in 1..=RESEED_ATTEMPTS as u64 {
        let mut reseeded = ig;
        reseeded.lanczos.seed = derive_seed(ig.lanczos.seed, attempt);
        chain = link(
            chain,
            opts,
            FallbackStage::ReseededLanczos,
            IgMatchStage::new(reseeded),
        );
    }
    let mut dense = ig;
    dense.lanczos.dense_cutoff = usize::MAX;
    let chain = link(
        chain,
        opts,
        FallbackStage::DenseEigensolve,
        IgMatchStage::new(dense),
    );
    let eig1 = Eig1Options {
        lanczos: ig.lanczos,
    };
    let chain = link(chain, opts, FallbackStage::CliqueEig1, Eig1Stage::new(eig1));
    link(chain, opts, FallbackStage::FmBaseline, FmStage::default())
}

/// Appends `stage` under `label`, wrapped in the fault decorator when the
/// plan names the label (`fault-inject` builds only).
fn link(
    chain: FallbackChain<FallbackStage>,
    opts: &RobustOptions,
    label: FallbackStage,
    stage: impl Stage + Send + Sync + 'static,
) -> FallbackChain<FallbackStage> {
    #[cfg(feature = "fault-inject")]
    if let Some(kind) = opts.faults.fault_at(label) {
        return chain.link(label, FaultStage::new(kind, Box::new(stage)));
    }
    #[cfg(not(feature = "fault-inject"))]
    let _ = opts;
    chain.link(label, stage)
}

/// Bundles the chain's attempt record into the public [`Diagnostics`].
fn diagnostics(
    attempts: Vec<ChainAttempt<FallbackStage>>,
    winning_stage: Option<FallbackStage>,
    meter: &BudgetMeter,
) -> Diagnostics {
    Diagnostics {
        attempts,
        winning_stage,
        matvecs: meter.matvecs_used(),
        elapsed: meter.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_netlist::hypergraph_from_nets;
    use np_sparse::Budget;

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
        // 1 IG-Match + reseeds + dense all failed, then clique won
        assert_eq!(out.diagnostics.attempts.len(), RESEED_ATTEMPTS + 3);
        for a in &out.diagnostics.attempts[..RESEED_ATTEMPTS + 2] {
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
