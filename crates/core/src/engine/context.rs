//! The shared execution context threaded through every engine stage.

use crate::engine::OperatorCache;
use crate::models::IgWeighting;
use crate::{PartitionError, PartitionResult};
use np_netlist::rng::{derive_seed, Rng64};
use np_netlist::Hypergraph;
use np_sparse::{Budget, BudgetMeter, Laplacian};
use std::sync::Arc;

/// Default PRNG seed for contexts that do not set one explicitly.
///
/// Stage adapters that already carry a seed in their option structs (the
/// Lanczos seed, the RCut/KL restart seeds) keep using those, so existing
/// results stay bit-identical; this seed only feeds [`RunContext::rng`]
/// for stages with no per-algorithm seed of their own.
pub const DEFAULT_SEED: u64 = 0x0DAC_1992;

/// An instrumentation event emitted while a stage graph executes.
///
/// Events borrow from the emitting stage, so sinks must copy out anything
/// they want to keep.
#[derive(Debug)]
pub enum StageEvent<'a> {
    /// A stage is about to run.
    Started {
        /// Name of the stage.
        stage: &'a str,
    },
    /// A stage finished, successfully or not.
    Finished {
        /// Name of the stage.
        stage: &'a str,
        /// The stage's outcome, by reference.
        outcome: Result<&'a PartitionResult, &'a PartitionError>,
    },
    /// A stage reports a human-readable detail mid-run (e.g. IG-Match's
    /// matching bound at the winning split).
    Detail {
        /// Name of the stage.
        stage: &'a str,
        /// The detail message.
        message: &'a str,
    },
}

/// A sink for [`StageEvent`]s.
///
/// Implemented for any `Fn(&StageEvent<'_>) + Sync` closure, so ad-hoc
/// tracers need no named type:
///
/// ```
/// use np_core::engine::{RunContext, StageEvent};
///
/// let tracer = |e: &StageEvent<'_>| {
///     if let StageEvent::Started { stage } = e {
///         eprintln!("running {stage}");
///     }
/// };
/// let ctx = RunContext::unlimited().with_events(&tracer);
/// ctx.emit(StageEvent::Started { stage: "demo" });
/// ```
pub trait EventSink: Sync {
    /// Receives one event. Called synchronously from the executing stage.
    fn on_event(&self, event: &StageEvent<'_>);
}

impl<F: Fn(&StageEvent<'_>) + Sync> EventSink for F {
    fn on_event(&self, event: &StageEvent<'_>) {
        self(event)
    }
}

/// Either an owned or a borrowed meter, so a context can be built from a
/// [`Budget`] in one call *or* share a caller's existing meter.
#[derive(Debug)]
enum MeterSlot<'a> {
    Owned(BudgetMeter),
    Borrowed(&'a BudgetMeter),
}

/// Everything a [`Stage`](crate::engine::Stage) needs besides the
/// hypergraph: the budget meter, the base PRNG seed and an optional
/// event sink.
///
/// One context is shared by every stage of a run, so all stages charge
/// the same meter and derive their randomness from the same seed. The
/// context is `Sync`, which keeps the door open for stage-level
/// parallelism in later work.
///
/// # Example
///
/// ```
/// use np_core::engine::RunContext;
/// use np_sparse::Budget;
///
/// let ctx = RunContext::with_budget(&Budget::default().with_matvecs(10_000)).with_seed(7);
/// assert_eq!(ctx.seed(), 7);
/// assert!(ctx.meter().check().is_ok());
/// ```
#[derive(Debug)]
pub struct RunContext<'a> {
    meter: MeterSlot<'a>,
    seed: u64,
    events: Option<&'a dyn EventSink>,
    threads: usize,
    operators: Arc<OperatorCache>,
}

impl std::fmt::Debug for dyn EventSink + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EventSink")
    }
}

impl<'a> RunContext<'a> {
    /// A context with no resource limits.
    pub fn unlimited() -> RunContext<'a> {
        RunContext {
            meter: MeterSlot::Owned(BudgetMeter::unlimited()),
            seed: DEFAULT_SEED,
            events: None,
            threads: 1,
            operators: Arc::new(OperatorCache::new()),
        }
    }

    /// A context metering against `budget`, with the wall clock starting
    /// now.
    pub fn with_budget(budget: &Budget) -> RunContext<'a> {
        RunContext {
            meter: MeterSlot::Owned(BudgetMeter::new(budget)),
            seed: DEFAULT_SEED,
            events: None,
            threads: 1,
            operators: Arc::new(OperatorCache::new()),
        }
    }

    /// A context charging a caller-owned meter, so several runs (or a run
    /// plus outside work) can share one allowance.
    pub fn with_meter(meter: &'a BudgetMeter) -> RunContext<'a> {
        RunContext {
            meter: MeterSlot::Borrowed(meter),
            seed: DEFAULT_SEED,
            events: None,
            threads: 1,
            operators: Arc::new(OperatorCache::new()),
        }
    }

    /// Sets the base PRNG seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches an event sink (builder style).
    #[must_use]
    pub fn with_events(mut self, sink: &'a dyn EventSink) -> Self {
        self.events = Some(sink);
        self
    }

    /// Sets the thread count of the row-sharded SpMV inside the
    /// eigensolver (builder style); operators are always built serially.
    /// `0` means all available cores. Results are bit-identical for every
    /// value — this knob trades wall-clock only.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Shares a caller-owned operator cache (builder style), so several
    /// contexts — e.g. every attempt of an `np-runner` portfolio — reuse
    /// one set of Laplacians instead of rebuilding them per attempt.
    #[must_use]
    pub fn with_operator_cache(mut self, cache: Arc<OperatorCache>) -> Self {
        self.operators = cache;
        self
    }

    /// The budget meter every stage of this run charges.
    pub fn meter(&self) -> &BudgetMeter {
        match &self.meter {
            MeterSlot::Owned(m) => m,
            MeterSlot::Borrowed(m) => m,
        }
    }

    /// The base PRNG seed of this run.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A fresh generator seeded with the base seed (stream 0).
    pub fn rng(&self) -> Rng64 {
        Rng64::new(self.seed)
    }

    /// The seed of the `stream`-th decorrelated sub-stream (golden-ratio
    /// stride; see [`derive_seed`]). Stream 0 is the base seed itself.
    pub fn derived_seed(&self, stream: u64) -> u64 {
        derive_seed(self.seed, stream)
    }

    /// Thread count of the sharded SpMV (`0` = all available cores,
    /// default `1`).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The operator cache of this run (shared across runs when built with
    /// [`with_operator_cache`](RunContext::with_operator_cache)).
    pub fn operators(&self) -> &Arc<OperatorCache> {
        &self.operators
    }

    /// The clique-model Laplacian of `hg` from this run's operator cache:
    /// built on first request, shared by every later request — including
    /// other contexts holding the same cache.
    pub fn clique_laplacian(&self, hg: &Hypergraph) -> Arc<Laplacian> {
        self.operators.clique_laplacian(hg)
    }

    /// The intersection-graph Laplacian of `hg` under `weighting` from
    /// this run's operator cache (see
    /// [`clique_laplacian`](RunContext::clique_laplacian)).
    pub fn intersection_laplacian(
        &self,
        hg: &Hypergraph,
        weighting: IgWeighting,
    ) -> Arc<Laplacian> {
        self.operators.intersection_laplacian(hg, weighting)
    }

    /// The unweighted intersection-graph adjacency lists of `hg` from
    /// this run's operator cache — built on first request, shared by
    /// every later request (see
    /// [`clique_laplacian`](RunContext::clique_laplacian)).
    pub fn intersection_neighbors(&self, hg: &Hypergraph) -> Arc<Vec<Vec<u32>>> {
        self.operators.intersection_neighbors(hg)
    }

    /// `true` if an event sink is attached (lets stages skip formatting
    /// detail messages nobody will see).
    pub fn has_events(&self) -> bool {
        self.events.is_some()
    }

    /// Delivers `event` to the attached sink, if any.
    pub fn emit(&self, event: StageEvent<'_>) {
        if let Some(sink) = self.events {
            sink.on_event(&event);
        }
    }
}

impl Default for RunContext<'_> {
    fn default() -> Self {
        RunContext::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn unlimited_meter_never_trips() {
        let ctx = RunContext::unlimited();
        assert!(ctx.meter().charge(1_000_000).is_ok());
    }

    #[test]
    fn budget_context_meters() {
        let ctx = RunContext::with_budget(&Budget::default().with_matvecs(2));
        assert!(ctx.meter().charge(1).is_ok());
        assert!(ctx.meter().charge(1).is_err());
    }

    #[test]
    fn borrowed_meter_shares_spend() {
        let meter = BudgetMeter::unlimited();
        let ctx = RunContext::with_meter(&meter);
        ctx.meter().charge(5).unwrap();
        assert_eq!(meter.matvecs_used(), 5);
    }

    #[test]
    fn rng_streams_deterministic_and_decorrelated() {
        let ctx = RunContext::unlimited().with_seed(42);
        assert_eq!(ctx.rng().next_u64(), Rng64::new(42).next_u64());
        assert_eq!(ctx.derived_seed(0), 42);
        assert_ne!(ctx.derived_seed(1), ctx.derived_seed(2));
    }

    #[test]
    fn threads_default_and_builder() {
        assert_eq!(RunContext::unlimited().threads(), 1);
        assert_eq!(RunContext::unlimited().with_threads(8).threads(), 8);
    }

    #[test]
    fn shared_cache_reuses_operators_across_contexts() {
        let hg = np_netlist::hypergraph_from_nets(3, &[vec![0, 1], vec![1, 2]]);
        let cache = Arc::new(OperatorCache::new());
        let a = RunContext::unlimited()
            .with_operator_cache(Arc::clone(&cache))
            .clique_laplacian(&hg);
        let b = RunContext::unlimited()
            .with_operator_cache(Arc::clone(&cache))
            .with_threads(4)
            .clique_laplacian(&hg);
        assert!(Arc::ptr_eq(&a, &b), "both contexts hit the same slot");
        // a fresh default context owns its own cache
        let c = RunContext::unlimited().clique_laplacian(&hg);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn events_delivered_and_skippable() {
        let count = AtomicUsize::new(0);
        let sink = |_: &StageEvent<'_>| {
            count.fetch_add(1, Ordering::Relaxed);
        };
        let ctx = RunContext::unlimited().with_events(&sink);
        assert!(ctx.has_events());
        ctx.emit(StageEvent::Started { stage: "x" });
        ctx.emit(StageEvent::Detail {
            stage: "x",
            message: "detail",
        });
        assert_eq!(count.load(Ordering::Relaxed), 2);

        let silent = RunContext::unlimited();
        assert!(!silent.has_events());
        silent.emit(StageEvent::Started { stage: "x" }); // no sink: no-op
    }
}
