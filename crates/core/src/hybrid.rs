//! Hybrid pipelines combining the spectral partitioners with iterative
//! post-improvement — the §5 suggestion that "the ratio cuts so obtained
//! may optionally be improved by using standard iterative techniques".
//!
//! [`hybrid_pipeline`] is the one definition of the IG-Match+FM flow:
//! the flat `hybrid` algorithm, the k-way route's bisections and the
//! V-cycle's coarsest level all build it here.

use crate::engine::stages::{IgMatchStage, RatioRefineStage};
use crate::engine::{Pipeline, RunContext, Stage};
use crate::{IgMatchOptions, PartitionError, PartitionResult};
use np_netlist::Hypergraph;

/// Options for [`ig_match_refined`] and [`hybrid_pipeline`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HybridOptions {
    /// Options for the spectral IG-Match stage.
    pub ig_match: IgMatchOptions,
    /// Upper bound on ratio-objective FM passes in the refinement stage.
    pub max_refine_passes: usize,
}

impl Default for HybridOptions {
    fn default() -> Self {
        HybridOptions {
            ig_match: IgMatchOptions::default(),
            max_refine_passes: 20,
        }
    }
}

/// Runs IG-Match, then polishes the result with ratio-objective
/// Fiduccia–Mattheyses shifting passes. The refinement can only improve
/// the ratio cut, so the result is never worse than plain IG-Match — and
/// the pipeline stays fully deterministic (no random restarts anywhere).
/// Runs unlimited; use [`ig_match_refined_ctx`] to meter it.
///
/// # Errors
///
/// Propagates IG-Match failures
/// ([`PartitionError::TooSmall`] / [`Eigen`](PartitionError::Eigen) /
/// [`Degenerate`](PartitionError::Degenerate)).
pub fn ig_match_refined(
    hg: &Hypergraph,
    opts: &HybridOptions,
) -> Result<PartitionResult, PartitionError> {
    ig_match_refined_ctx(hg, opts, &RunContext::unlimited())
}

/// [`ig_match_refined`] against an execution context. The context's
/// meter governs both pipeline stages: the eigensolve and split sweep
/// check it inside IG-Match, and each refinement pass charges one unit.
/// A budget that trips during refinement aborts the whole run rather
/// than returning the unrefined partition, so callers see budget
/// exhaustion uniformly (use [`crate::robust_partition_ctx`] when a
/// best-effort answer is wanted). An event sink on the context sees both
/// stages as `Started`/`Finished` events.
///
/// # Errors
///
/// Same as [`ig_match_refined`], plus budget exhaustion from either
/// stage as [`PartitionError::Budget`].
pub fn ig_match_refined_ctx(
    hg: &Hypergraph,
    opts: &HybridOptions,
    ctx: &RunContext<'_>,
) -> Result<PartitionResult, PartitionError> {
    hybrid_pipeline(opts).run(hg, None, ctx)
}

/// The hybrid flow as declarative engine data: an IG-Match producer
/// feeding a ratio-refinement transformer, both reporting as
/// `"IG-Match+FM"`. Exposed so callers can extend the pipeline with
/// further stages or embed it in a
/// [`FallbackChain`](crate::engine::FallbackChain).
pub fn hybrid_pipeline(opts: &HybridOptions) -> Pipeline {
    Pipeline::named("IG-Match+FM")
        .then(IgMatchStage::new(opts.ig_match))
        .then(RatioRefineStage::new(opts.max_refine_passes, "IG-Match+FM"))
}
