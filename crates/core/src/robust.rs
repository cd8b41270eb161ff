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
//! 3. **dense eigensolve** — the spectral ordering computed by the dense
//!    Jacobi solver instead of Lanczos, immune to convergence stagnation;
//! 4. **clique-model EIG1** — the Hagen–Kahng baseline on the module
//!    graph, which sidesteps a pathological intersection graph entirely;
//! 5. **FM baseline** — purely combinatorial Fiduccia–Mattheyses from a
//!    deterministic seed partition, requiring no eigensolve at all.
//!
//! Since 0.2.0 the chain is *declarative*: an internal builder assembles
//! a [`FallbackChain`] of engine stages (one link per strategy above) and
//! [`robust_partition_ctx`] runs it against a shared
//! [`RunContext`] — the escalation policy is data, not control flow.
//!
//! Every attempt is recorded in [`Diagnostics`], so callers can see which
//! stage produced the answer and why earlier stages failed. Budget
//! exhaustion ([`PartitionError::Budget`]) and structurally hopeless
//! inputs ([`PartitionError::TooSmall`]) abort the chain immediately:
//! later stages share the same spent budget / tiny input and would fail
//! identically.
//!
//! With the `fault-inject` feature, a [`FaultPlan`] deterministically
//! forces failures at chosen stages so every fallback link can be tested.

use crate::eig1::sweep_module_ordering_ctx;
use crate::engine::stages::FmStage;
use crate::engine::{ChainAttempt, FallbackChain, Partitioner, RunContext};
use crate::igmatch::ig_match_with_ordering_ctx;
use crate::ordering::order_by_component;
use crate::{IgMatchOptions, PartitionError, PartitionResult};
use np_baselines::FmOptions;
use np_eigen::{smallest_deflated_metered, EigenError, EigenPair, LanczosOptions};
use np_netlist::rng::derive_seed;
use np_netlist::{Hypergraph, ModuleId, NetId};
use np_sparse::{BudgetExceeded, BudgetMeter, BudgetResource, Laplacian, LinearOperator};
use std::fmt;
use std::time::Duration;

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

/// The failure a [`FaultPlan`] forces at a stage (test-only machinery;
/// plans only take effect when the `fault-inject` feature is enabled).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The stage fails up front with
    /// [`EigenError::NoConvergence`], as if the eigensolve stagnated.
    ForceNoConvergence,
    /// The stage's operator is wrapped to emit NaN, exercising the
    /// [`EigenError::NonFinite`] detection path. At the (eigensolve-free)
    /// FM stage this short-circuits with `NonFinite` directly.
    PoisonOperator,
    /// The stage fails with [`PartitionError::Budget`] carrying the real
    /// spend so far, as if the budget ran out on entry.
    ExhaustBudget,
}

/// Deterministic fault plan: which [`FaultKind`] to force at which
/// stage. Only consulted when the `fault-inject` feature is enabled;
/// release builds never look at it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<(FallbackStage, FaultKind)>,
}

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
#[derive(Clone, Debug, PartialEq)]
pub struct RobustOptions {
    /// Options for the primary IG-Match stages (weighting, eigensolver,
    /// free-module refinement).
    pub ig_match: IgMatchOptions,
    /// Number of reseeded-Lanczos retries before escalating to the dense
    /// eigensolve.
    pub reseed_attempts: usize,
    /// Options for the final FM stage.
    pub fm: FmOptions,
    /// Deterministic faults to force (testing the chain itself).
    #[cfg(feature = "fault-inject")]
    pub faults: FaultPlan,
}

impl Default for RobustOptions {
    fn default() -> Self {
        RobustOptions {
            ig_match: IgMatchOptions::default(),
            reseed_attempts: 2,
            fm: FmOptions::default(),
            #[cfg(feature = "fault-inject")]
            faults: FaultPlan::default(),
        }
    }
}

/// Record of one stage execution.
#[derive(Clone, Debug, PartialEq)]
pub struct StageAttempt {
    /// Which stage ran.
    pub stage: FallbackStage,
    /// `None` if the stage produced the final result, otherwise the error
    /// that made the chain move on (or abort).
    pub error: Option<PartitionError>,
}

/// What happened across the whole chain: every attempt in order, the
/// winning stage (if any) and the total resource spend.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostics {
    /// Every stage execution, in chain order. The last entry is the
    /// winning stage on success.
    pub attempts: Vec<StageAttempt>,
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
/// data: one [`FallbackChain`] whose links are fault-aware stages. The
/// chain's [`default_fatal`](crate::engine::default_fatal) policy
/// provides the budget-exhaustion / hopeless-input abort behavior.
fn build_chain(opts: &RobustOptions) -> FallbackChain<FallbackStage> {
    let fault_for = |stage: FallbackStage| -> Option<FaultKind> {
        #[cfg(feature = "fault-inject")]
        {
            opts.faults.fault_at(stage)
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            let _ = stage;
            None
        }
    };

    let base = opts.ig_match.lanczos;
    let weighting = opts.ig_match.weighting;
    let refine = opts.ig_match.refine_free_modules;
    let spectral = |stage: FallbackStage, lanczos: LanczosOptions| SpectralIgLink {
        name: stage.name(),
        weighting,
        lanczos,
        refine,
        fault: fault_for(stage),
    };

    let mut chain = FallbackChain::new().link(
        FallbackStage::IgMatch,
        spectral(FallbackStage::IgMatch, base),
    );
    for attempt in 0..opts.reseed_attempts {
        let mut lanczos = base;
        lanczos.seed = derive_seed(base.seed, attempt as u64 + 1);
        chain = chain.link(
            FallbackStage::ReseededLanczos,
            spectral(FallbackStage::ReseededLanczos, lanczos),
        );
    }
    let mut dense = base;
    dense.dense_cutoff = usize::MAX;
    chain
        .link(
            FallbackStage::DenseEigensolve,
            spectral(FallbackStage::DenseEigensolve, dense),
        )
        .link(
            FallbackStage::CliqueEig1,
            CliqueEig1Link {
                lanczos: base,
                fault: fault_for(FallbackStage::CliqueEig1),
            },
        )
        .link(
            FallbackStage::FmBaseline,
            FmLink {
                fm: opts.fm,
                fault: fault_for(FallbackStage::FmBaseline),
            },
        )
}

/// Converts the chain's attempt record into the public [`Diagnostics`].
fn diagnostics(
    attempts: Vec<ChainAttempt<FallbackStage>>,
    winning_stage: Option<FallbackStage>,
    meter: &BudgetMeter,
) -> Diagnostics {
    Diagnostics {
        attempts: attempts
            .into_iter()
            .map(|a| StageAttempt {
                stage: a.label,
                error: a.error,
            })
            .collect(),
        winning_stage,
        matvecs: meter.matvecs_used(),
        elapsed: meter.elapsed(),
    }
}

/// Applies the stage-entry faults common to every stage.
fn short_circuit(fault: Option<FaultKind>, meter: &BudgetMeter) -> Result<(), PartitionError> {
    match fault {
        Some(FaultKind::ForceNoConvergence) => {
            Err(PartitionError::Eigen(EigenError::NoConvergence {
                iterations: 0,
                residual: f64::INFINITY,
            }))
        }
        Some(FaultKind::ExhaustBudget) => Err(PartitionError::Budget(BudgetExceeded {
            resource: BudgetResource::Matvecs,
            matvecs_used: meter.matvecs_used(),
            elapsed: meter.elapsed(),
        })),
        _ => Ok(()),
    }
}

/// Wrapper that corrupts the first output component of every operator
/// application — the fault-injection stand-in for numerically poisoned
/// input.
struct PoisonedOperator<'a> {
    inner: &'a Laplacian,
}

impl LinearOperator for PoisonedOperator<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.inner.apply(x, y);
        if let Some(first) = y.first_mut() {
            *first = f64::NAN;
        }
    }
}

/// Fiedler pair of `q` with the all-ones nullvector deflated, honoring a
/// possible poison fault. Matvecs shard over `threads` OS threads
/// (bit-identical to serial for every count); the poisoned-fault path
/// stays serial because the corruption wrapper is the operator under
/// test.
fn solve_fiedler(
    q: &Laplacian,
    lanczos: &LanczosOptions,
    meter: &BudgetMeter,
    fault: Option<FaultKind>,
    threads: usize,
) -> Result<EigenPair, PartitionError> {
    let n = q.dim();
    let ones = vec![1.0; n];
    let pair = if fault == Some(FaultKind::PoisonOperator) {
        smallest_deflated_metered(&PoisonedOperator { inner: q }, &[ones], lanczos, meter)
    } else {
        smallest_deflated_metered(&q.threaded(threads), &[ones], lanczos, meter)
    }?;
    Ok(pair)
}

/// Links 1–3: spectral net ordering on the intersection graph plus the
/// IG-Match completion sweep, with a link-specific eigensolver
/// configuration (base seed, reseeded, or dense).
struct SpectralIgLink {
    name: &'static str,
    weighting: crate::IgWeighting,
    lanczos: LanczosOptions,
    refine: bool,
    fault: Option<FaultKind>,
}

impl Partitioner for SpectralIgLink {
    fn name(&self) -> &'static str {
        self.name
    }

    fn partition(
        &self,
        hg: &Hypergraph,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        let meter = ctx.meter();
        short_circuit(self.fault, meter)?;
        if hg.num_modules() < 2 || hg.num_nets() < 2 {
            return Err(PartitionError::TooSmall {
                modules: hg.num_modules(),
                nets: hg.num_nets(),
            });
        }
        let q = ctx.intersection_laplacian(hg, self.weighting);
        let pair = solve_fiedler(&q, &self.lanczos, meter, self.fault, ctx.threads())?;
        let order: Vec<NetId> = order_by_component(&pair.vector)
            .into_iter()
            .map(NetId)
            .collect();
        let out = ig_match_with_ordering_ctx(hg, &order, self.refine, ctx)?;
        Ok(out.result)
    }
}

/// Link 4: EIG1 on the clique model. Distinct from
/// [`Eig1Stage`](crate::engine::stages::Eig1Stage) only in supporting
/// fault injection through the poisonable deflated eigensolve.
struct CliqueEig1Link {
    lanczos: LanczosOptions,
    fault: Option<FaultKind>,
}

impl Partitioner for CliqueEig1Link {
    fn name(&self) -> &'static str {
        FallbackStage::CliqueEig1.name()
    }

    fn partition(
        &self,
        hg: &Hypergraph,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        let meter = ctx.meter();
        short_circuit(self.fault, meter)?;
        if hg.num_modules() < 2 {
            return Err(PartitionError::TooSmall {
                modules: hg.num_modules(),
                nets: hg.num_nets(),
            });
        }
        let q = ctx.clique_laplacian(hg);
        let pair = solve_fiedler(&q, &self.lanczos, meter, self.fault, ctx.threads())?;
        let order: Vec<ModuleId> = order_by_component(&pair.vector)
            .into_iter()
            .map(ModuleId)
            .collect();
        sweep_module_ordering_ctx(hg, &order, "EIG1", ctx)
    }
}

/// Link 5: FM from the deterministic "first half left" seed partition —
/// no eigensolve, so it survives any numerical failure mode. Delegates
/// to the engine's [`FmStage`] after the fault checks.
struct FmLink {
    fm: FmOptions,
    fault: Option<FaultKind>,
}

impl Partitioner for FmLink {
    fn name(&self) -> &'static str {
        FallbackStage::FmBaseline.name()
    }

    fn partition(
        &self,
        hg: &Hypergraph,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        short_circuit(self.fault, ctx.meter())?;
        if self.fault == Some(FaultKind::PoisonOperator) {
            // FM has no operator to poison; fail the same way detection would
            return Err(PartitionError::Eigen(EigenError::NonFinite {
                stage: "fault injection",
            }));
        }
        FmStage::new(self.fm).partition(hg, ctx)
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
        let reseeds = RobustOptions::default().reseed_attempts;
        assert_eq!(out.diagnostics.attempts.len(), reseeds + 3);
        for a in &out.diagnostics.attempts[..reseeds + 2] {
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

    #[test]
    fn fault_plan_lookup() {
        let plan = FaultPlan::new()
            .with(FallbackStage::IgMatch, FaultKind::ForceNoConvergence)
            .with(FallbackStage::FmBaseline, FaultKind::ExhaustBudget);
        assert_eq!(
            plan.fault_at(FallbackStage::IgMatch),
            Some(FaultKind::ForceNoConvergence)
        );
        assert_eq!(plan.fault_at(FallbackStage::CliqueEig1), None);
    }
}
