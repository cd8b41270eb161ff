//! A composable stage/engine layer over every partitioner in the
//! workspace.
//!
//! The engine decomposes a partitioning run into three orthogonal parts:
//!
//! * **[`RunContext`]** — the shared execution state: one
//!   [`BudgetMeter`](np_sparse::BudgetMeter) every stage charges, a base
//!   PRNG seed with golden-ratio-strided sub-streams, and an optional
//!   [`EventSink`] for instrumentation.
//! * **[`Stage`]** — a unit of work that consumes a
//!   [`Hypergraph`](np_netlist::Hypergraph) (plus, for transformers, an
//!   upstream [`PartitionResult`](crate::PartitionResult)) and produces a
//!   new result. Pure producers implement the simpler [`Partitioner`]
//!   trait and get `Stage` for free.
//! * **Combinators** — [`Pipeline`] runs stages sequentially, threading
//!   each output into the next stage's input; [`FallbackChain`] tries
//!   labelled alternatives until one succeeds, aborting early on fatal
//!   errors ([`default_fatal`]).
//!
//! The concrete adapters in [`stages`] wrap EIG1, IG-Vote, IG-Match and
//! the FM/KL/RCut baselines, so entire flows — the robust fallback chain
//! of [`robust_partition`](crate::robust_partition), the IG-Match+FM
//! hybrid — are declarative data rather than bespoke control flow. With
//! the `fault-inject` feature, the `fault` module adds one decorator
//! stage that makes any stage fail, stall, spin or panic on demand.
//!
//! ```
//! use np_core::engine::stages::{IgMatchStage, RatioRefineStage};
//! use np_core::engine::{Pipeline, RunContext, Stage};
//! use np_netlist::hypergraph_from_nets;
//!
//! let hg = hypergraph_from_nets(4, &[vec![0, 1], vec![2, 3], vec![1, 2]]);
//! let flow = Pipeline::named("IG-Match+refine")
//!     .then(IgMatchStage::default())
//!     .then(RatioRefineStage::new(10, "IG-Match+FM"));
//! let result = flow.run(&hg, None, &RunContext::unlimited()).unwrap();
//! assert_eq!(result.algorithm, "IG-Match+FM");
//! ```

pub mod cache;
pub mod context;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod stage;
pub mod stages;
pub mod trace;

pub use cache::OperatorCache;
pub use context::{EventSink, RunContext, StageEvent, DEFAULT_SEED};
pub use stage::{
    default_fatal, run_stage, BoxedStage, ChainAttempt, ChainFailure, ChainOutcome, FallbackChain,
    Partitioner, Pipeline, Stage,
};
pub use trace::{Span, SpanKind, SpanRecorder, SpanRing};
