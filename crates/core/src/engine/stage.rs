//! The [`Stage`]/[`Partitioner`] traits and the two stage combinators:
//! sequential [`Pipeline`]s and escalating [`FallbackChain`]s.

use super::context::{RunContext, StageEvent};
use crate::{PartitionError, PartitionResult};
use np_netlist::Hypergraph;
use std::sync::Arc;

/// One step of a partitioning flow: consumes the hypergraph, an optional
/// upstream partition and the shared [`RunContext`], and produces a
/// partition.
///
/// Producers (EIG1, IG-Match, FM, …) ignore `input`; transformers
/// (ratio-cut refinement) require it. Implement [`Partitioner`] instead
/// when the stage never looks at `input` — a blanket impl lifts every
/// `Partitioner` into a `Stage`.
pub trait Stage {
    /// Short human-readable stage name, used in events and diagnostics.
    fn name(&self) -> &'static str;

    /// Executes the stage.
    ///
    /// # Errors
    ///
    /// Any [`PartitionError`]; combinators decide whether an error ends
    /// the flow ([`Pipeline`]) or escalates to the next alternative
    /// ([`FallbackChain`]).
    fn run(
        &self,
        hg: &Hypergraph,
        input: Option<PartitionResult>,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError>;
}

/// A [`Stage`] that produces a partition from scratch, ignoring upstream
/// input. Every `Partitioner` is automatically a `Stage`.
pub trait Partitioner {
    /// Short human-readable name, used in events and diagnostics.
    fn name(&self) -> &'static str;

    /// Produces a partition of `hg`.
    ///
    /// # Errors
    ///
    /// Any [`PartitionError`].
    fn partition(
        &self,
        hg: &Hypergraph,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError>;
}

impl<P: Partitioner> Stage for P {
    fn name(&self) -> &'static str {
        Partitioner::name(self)
    }

    fn run(
        &self,
        hg: &Hypergraph,
        _input: Option<PartitionResult>,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        self.partition(hg, ctx)
    }
}

/// Runs one stage with [`StageEvent::Started`]/[`StageEvent::Finished`]
/// instrumentation around it. The combinators route every stage execution
/// through this, so an attached sink sees the whole stage graph unfold.
///
/// # Errors
///
/// Whatever the stage returns.
pub fn run_stage(
    stage: &dyn Stage,
    hg: &Hypergraph,
    input: Option<PartitionResult>,
    ctx: &RunContext<'_>,
) -> Result<PartitionResult, PartitionError> {
    ctx.emit(StageEvent::Started {
        stage: stage.name(),
    });
    let outcome = stage.run(hg, input, ctx);
    ctx.emit(StageEvent::Finished {
        stage: stage.name(),
        outcome: outcome.as_ref(),
    });
    outcome
}

/// A boxed stage that can be shared across threads — the storage type of
/// the combinators and of every multi-attempt executor (the `np-runner`
/// portfolio pool distributes `BoxedStage`s over scoped worker threads).
/// Every concrete stage in the workspace is a plain options struct, so
/// the bound costs nothing.
pub type BoxedStage = Box<dyn Stage + Send + Sync>;

/// A boxed stage is a stage, so table-built stages (`np-runner`'s
/// algorithm table returns [`BoxedStage`]s) drop into the combinators.
impl Stage for BoxedStage {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn run(
        &self,
        hg: &Hypergraph,
        input: Option<PartitionResult>,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        self.as_ref().run(hg, input, ctx)
    }
}

/// A shared stage is a stage, so a caller can keep a handle on a stage it
/// hands to a portfolio and read what the stage recorded afterwards.
impl<S: Stage + ?Sized> Stage for Arc<S> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn run(
        &self,
        hg: &Hypergraph,
        input: Option<PartitionResult>,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        self.as_ref().run(hg, input, ctx)
    }
}

/// A sequence of stages executed left to right, each receiving the
/// previous stage's partition as input. The pipeline is itself a
/// [`Stage`], so pipelines nest.
///
/// # Example
///
/// ```
/// use np_core::engine::stages::{IgMatchStage, RatioRefineStage};
/// use np_core::engine::{Pipeline, RunContext, Stage};
/// use np_netlist::hypergraph_from_nets;
///
/// let hg = hypergraph_from_nets(
///     6,
///     &[vec![0, 1], vec![1, 2], vec![0, 2], vec![3, 4], vec![4, 5], vec![3, 5], vec![2, 3]],
/// );
/// let flow = Pipeline::named("IG-Match+FM")
///     .then(IgMatchStage::default())
///     .then(RatioRefineStage::new(20, "IG-Match+FM"));
/// let result = flow.run(&hg, None, &RunContext::unlimited())?;
/// assert_eq!(result.stats.cut_nets, 1);
/// # Ok::<(), np_core::PartitionError>(())
/// ```
pub struct Pipeline {
    name: &'static str,
    stages: Vec<BoxedStage>,
}

impl Pipeline {
    /// An empty pipeline with the given display name.
    pub fn named(name: &'static str) -> Self {
        Pipeline {
            name,
            stages: Vec::new(),
        }
    }

    /// Appends a stage (builder style).
    #[must_use]
    pub fn then(mut self, stage: impl Stage + Send + Sync + 'static) -> Self {
        self.stages.push(Box::new(stage));
        self
    }
}

impl Stage for Pipeline {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(
        &self,
        hg: &Hypergraph,
        mut input: Option<PartitionResult>,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        if self.stages.is_empty() {
            return Err(PartitionError::InvalidInput {
                reason: "pipeline has no stages",
            });
        }
        for stage in &self.stages {
            input = Some(run_stage(stage.as_ref(), hg, input.take(), ctx)?);
        }
        Ok(input.expect("non-empty pipeline always produces a result"))
    }
}

/// The fatality predicate of every [`FallbackChain`]: a spent budget or
/// fewer than 2 modules dooms every later link too, so the chain aborts.
/// Fewer than 2 nets is not fatal: module-space stages (EIG1, FM) split
/// such a netlist.
pub fn default_fatal(error: &PartitionError) -> bool {
    match error {
        PartitionError::Budget(_) => true,
        PartitionError::TooSmall { modules, .. } => *modules < 2,
        _ => false,
    }
}

/// Record of one attempted link of a [`FallbackChain`].
#[derive(Clone, Debug, PartialEq)]
pub struct ChainAttempt<L> {
    /// The link's label.
    pub label: L,
    /// `None` if this link produced the final result, otherwise the error
    /// that made the chain move on (or abort).
    pub error: Option<PartitionError>,
}

/// Successful outcome of a [`FallbackChain`] run.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainOutcome<L> {
    /// The partition produced by the winning link.
    pub result: PartitionResult,
    /// Label of the winning link.
    pub winner: L,
    /// Every attempted link in order; the last entry is the winner.
    pub attempts: Vec<ChainAttempt<L>>,
}

/// Failure of a whole [`FallbackChain`], with the attempt record attached.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainFailure<L> {
    /// The decisive error: the aborting error for fatal failures,
    /// otherwise the last link's error.
    pub error: PartitionError,
    /// Every attempted link in order (partial progress included).
    pub attempts: Vec<ChainAttempt<L>>,
}

/// An ordered list of labelled alternatives: each link runs only if every
/// earlier link failed non-fatally. The first success wins; a fatal error
/// (see [`default_fatal`]) aborts the chain at once. A
/// [`link_if`](Self::link_if) link also needs that failure to pass its test.
///
/// Labels are caller-chosen (`&'static str`, an enum, …) and come back in
/// [`ChainOutcome::winner`] and the attempt records, so callers can
/// pattern-match on *which* alternative produced the answer.
///
/// # Example
///
/// ```
/// use np_core::engine::stages::{FmStage, IgMatchStage};
/// use np_core::engine::{FallbackChain, RunContext};
/// use np_netlist::hypergraph_from_nets;
///
/// let hg = hypergraph_from_nets(
///     6,
///     &[vec![0, 1], vec![1, 2], vec![0, 2], vec![3, 4], vec![4, 5], vec![3, 5], vec![2, 3]],
/// );
/// let chain = FallbackChain::new()
///     .link("spectral", IgMatchStage::default())
///     .link("combinatorial", FmStage::default());
/// let out = chain.run(&hg, &RunContext::unlimited()).unwrap();
/// assert_eq!(out.winner, "spectral");
/// ```
pub struct FallbackChain<L> {
    links: Vec<(L, BoxedStage, After)>,
}

/// The condition a link puts on the error the chain moves on from.
type After = fn(&PartitionError) -> bool;

impl<L: Copy> FallbackChain<L> {
    /// An empty chain.
    pub fn new() -> Self {
        FallbackChain { links: Vec::new() }
    }

    /// Appends a labelled alternative (builder style).
    #[must_use]
    pub fn link(self, label: L, stage: impl Stage + Send + Sync + 'static) -> Self {
        self.link_if(label, stage, |_| true)
    }

    /// Appends a labelled alternative that runs only when the error the
    /// chain moves on from satisfies `after` (builder style); a skipped
    /// link leaves no record. As the chain's first link it always runs.
    #[must_use]
    pub fn link_if(
        mut self,
        label: L,
        stage: impl Stage + Send + Sync + 'static,
        after: fn(&PartitionError) -> bool,
    ) -> Self {
        self.links.push((label, Box::new(stage), after));
        self
    }

    /// Runs the chain until a link succeeds.
    ///
    /// # Errors
    ///
    /// [`ChainFailure`] when every link failed, a link failed fatally, or
    /// the chain is empty (reported as
    /// [`PartitionError::InvalidInput`]).
    pub fn run(
        &self,
        hg: &Hypergraph,
        ctx: &RunContext<'_>,
    ) -> Result<ChainOutcome<L>, ChainFailure<L>> {
        let mut attempts: Vec<ChainAttempt<L>> = Vec::new();
        for (label, stage, after) in &self.links {
            let previous = attempts.last().and_then(|a| a.error.as_ref());
            if previous.is_some_and(|e| !after(e)) {
                continue;
            }
            let outcome = run_stage(stage.as_ref(), hg, None, ctx);
            let error = outcome.as_ref().err().cloned();
            attempts.push(ChainAttempt {
                label: *label,
                error,
            });
            match outcome {
                Ok(result) => {
                    let winner = *label;
                    return Ok(ChainOutcome {
                        result,
                        winner,
                        attempts,
                    });
                }
                Err(error) if default_fatal(&error) => {
                    return Err(ChainFailure { error, attempts })
                }
                Err(_) => {}
            }
        }
        // every attempted link failed; only an empty chain attempts none
        let error = attempts.last().and_then(|a| a.error.clone());
        let error = error.unwrap_or(PartitionError::InvalidInput {
            reason: "fallback chain has no links",
        });
        Err(ChainFailure { error, attempts })
    }
}

impl<L: Copy> Default for FallbackChain<L> {
    fn default() -> Self {
        FallbackChain::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_netlist::{hypergraph_from_nets, Bipartition, ModuleId};
    use std::sync::Mutex;

    /// Test double: succeeds or fails on command, recording its inputs.
    struct Scripted {
        name: &'static str,
        fail_with: Option<PartitionError>,
        saw_input: Mutex<Vec<bool>>,
    }

    impl Scripted {
        fn ok(name: &'static str) -> Self {
            Scripted {
                name,
                fail_with: None,
                saw_input: Mutex::new(Vec::new()),
            }
        }

        fn failing(name: &'static str, error: PartitionError) -> Self {
            Scripted {
                name,
                fail_with: Some(error),
                saw_input: Mutex::new(Vec::new()),
            }
        }
    }

    impl Stage for Scripted {
        fn name(&self) -> &'static str {
            self.name
        }

        fn run(
            &self,
            hg: &Hypergraph,
            input: Option<PartitionResult>,
            _ctx: &RunContext<'_>,
        ) -> Result<PartitionResult, PartitionError> {
            self.saw_input.lock().unwrap().push(input.is_some());
            if let Some(e) = &self.fail_with {
                return Err(e.clone());
            }
            let partition = Bipartition::from_left_set(hg.num_modules(), [ModuleId(0)]);
            Ok(PartitionResult::evaluate(hg, partition, self.name, None))
        }
    }

    fn tiny() -> Hypergraph {
        hypergraph_from_nets(4, &[vec![0, 1], vec![1, 2], vec![2, 3]])
    }

    fn budget_error() -> PartitionError {
        use np_sparse::{Budget, BudgetMeter};
        let meter = BudgetMeter::new(&Budget::default().with_matvecs(0));
        PartitionError::Budget(meter.check().unwrap_err())
    }

    #[test]
    fn pipeline_threads_input_forward() {
        let flow = Pipeline::named("flow")
            .then(Scripted::ok("a"))
            .then(Scripted::ok("b"));
        let result = flow.run(&tiny(), None, &RunContext::unlimited()).unwrap();
        assert_eq!(result.algorithm, "b");
    }

    #[test]
    fn pipeline_stops_on_error() {
        let flow = Pipeline::named("flow")
            .then(Scripted::failing("a", PartitionError::Degenerate))
            .then(Scripted::ok("b"));
        assert!(matches!(
            flow.run(&tiny(), None, &RunContext::unlimited()),
            Err(PartitionError::Degenerate)
        ));
    }

    #[test]
    fn empty_pipeline_rejected() {
        let flow = Pipeline::named("empty");
        assert!(matches!(
            flow.run(&tiny(), None, &RunContext::unlimited()),
            Err(PartitionError::InvalidInput { .. })
        ));
    }

    #[test]
    fn chain_first_success_wins() {
        let chain = FallbackChain::new()
            .link("a", Scripted::failing("a", PartitionError::Degenerate))
            .link("b", Scripted::ok("b"))
            .link("c", Scripted::ok("c"));
        let out = chain.run(&tiny(), &RunContext::unlimited()).unwrap();
        assert_eq!(out.winner, "b");
        assert_eq!(out.result.algorithm, "b");
        assert_eq!(out.attempts.len(), 2);
        assert!(out.attempts[0].error.is_some());
        assert!(out.attempts[1].error.is_none());
    }

    #[test]
    fn chain_fatal_error_aborts() {
        let chain = FallbackChain::new()
            .link("a", Scripted::failing("a", budget_error()))
            .link("b", Scripted::ok("b"));
        let fail = chain.run(&tiny(), &RunContext::unlimited()).unwrap_err();
        assert!(matches!(fail.error, PartitionError::Budget(_)));
        assert_eq!(fail.attempts.len(), 1, "link b must never run");
    }

    #[test]
    fn too_small_is_fatal_only_below_two_modules() {
        let too_small = |modules| PartitionError::TooSmall { modules, nets: 1 };
        assert!(default_fatal(&too_small(1)));
        assert!(!default_fatal(&too_small(6)));
        let chain = FallbackChain::new()
            .link("a", Scripted::failing("a", too_small(6)))
            .link("b", Scripted::ok("b"));
        let out = chain.run(&tiny(), &RunContext::unlimited()).unwrap();
        assert_eq!(out.winner, "b");
    }

    #[test]
    fn conditional_link_runs_only_after_a_matching_error() {
        let eigen = |e: &PartitionError| matches!(e, PartitionError::Eigen(_));
        let chain = |first: PartitionError| {
            FallbackChain::new()
                .link("a", Scripted::failing("a", first))
                .link_if("b", Scripted::ok("b"), eigen)
                .link("c", Scripted::ok("c"))
        };
        let no_convergence = PartitionError::Eigen(np_eigen::EigenError::NoConvergence {
            iterations: 1,
            residual: 1.0,
        });
        let out = chain(no_convergence).run(&tiny(), &RunContext::unlimited());
        assert_eq!(out.unwrap().winner, "b");
        // skipped without a record: the climb is a → c
        let out = chain(PartitionError::Degenerate)
            .run(&tiny(), &RunContext::unlimited())
            .unwrap();
        let labels: Vec<_> = out.attempts.iter().map(|a| a.label).collect();
        assert_eq!(labels, ["a", "c"]);
    }

    #[test]
    fn chain_all_fail_reports_last_error() {
        let chain = FallbackChain::new()
            .link("a", Scripted::failing("a", PartitionError::Degenerate))
            .link(
                "b",
                Scripted::failing("b", PartitionError::InvalidInput { reason: "scripted" }),
            );
        let fail = chain.run(&tiny(), &RunContext::unlimited()).unwrap_err();
        assert!(matches!(fail.error, PartitionError::InvalidInput { .. }));
        assert_eq!(fail.attempts.len(), 2);
    }

    #[test]
    fn empty_chain_rejected() {
        let chain: FallbackChain<&'static str> = FallbackChain::new();
        let fail = chain.run(&tiny(), &RunContext::unlimited()).unwrap_err();
        assert!(matches!(fail.error, PartitionError::InvalidInput { .. }));
    }

    #[test]
    fn run_stage_emits_start_and_finish() {
        use super::super::context::StageEvent;
        let log = Mutex::new(Vec::<String>::new());
        let sink = |e: &StageEvent<'_>| {
            let line = match e {
                StageEvent::Started { stage } => format!("start {stage}"),
                StageEvent::Finished { stage, outcome } => {
                    format!("finish {stage} ok={}", outcome.is_ok())
                }
                StageEvent::Detail { stage, message } => format!("detail {stage}: {message}"),
            };
            log.lock().unwrap().push(line);
        };
        let ctx = RunContext::unlimited().with_events(&sink);
        let stage = Scripted::ok("demo");
        run_stage(&stage, &tiny(), None, &ctx).unwrap();
        let log = log.into_inner().unwrap();
        assert_eq!(log, vec!["start demo", "finish demo ok=true"]);
    }
}
