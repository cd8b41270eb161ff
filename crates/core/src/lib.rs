//! Spectral ratio-cut partitioning based on the netlist intersection graph.
//!
//! This crate implements the algorithms of Cong, Hagen and Kahng,
//! *Net Partitions Yield Better Module Partitions* (DAC 1992):
//!
//! * [`models`] — graph representations of the netlist hypergraph: the
//!   standard weighted **clique** net model and the dual **intersection
//!   graph** with the paper's edge weighting (§2);
//! * [`ordering`] — spectral (Fiedler-vector) linear orderings of modules
//!   or nets;
//! * [`eig1`](fn@eig1) — the Hagen–Kahng EIG1 baseline: spectral *module*
//!   ordering on the clique-model graph plus a best-prefix ratio-cut sweep;
//! * [`ig_vote`](fn@ig_vote) — the Hagen–Kahng IG-Vote (EIG1-IG) heuristic:
//!   spectral *net* ordering plus threshold voting (paper Appendix B);
//! * [`ig_match`](fn@ig_match) — the paper's contribution: for every split
//!   of the net ordering, an incremental maximum-matching /
//!   maximum-independent-set computation completes the net partition into a
//!   module partition cutting at most `|maximum matching|` nets
//!   (Theorems 2–5), in `O(|V|·(|V|+|E|))` total for all splits
//!   (Theorem 6);
//! * [`engine`] — the composable stage layer: every algorithm above (plus
//!   the baselines) as a uniform [`Stage`], glued together by
//!   [`Pipeline`]s and [`FallbackChain`]s, sharing one [`RunContext`]
//!   (budget meter, seed, instrumentation);
//! * [`hybrid`] — the IG-Match+FM pipeline: IG-Match polished by
//!   ratio-objective FM passes (the paper's §5 suggestion);
//! * [`kway`] — balanced k-way partitioning with fixed modules, by
//!   recursive bisection of the hybrid pipeline.
//!
//! # Quickstart
//!
//! ```
//! use np_core::{ig_match, IgMatchOptions};
//! use np_netlist::hypergraph_from_nets;
//!
//! // two clusters of modules joined by a single net
//! let hg = hypergraph_from_nets(
//!     8,
//!     &[
//!         vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3],
//!         vec![4, 5], vec![5, 6], vec![6, 7], vec![4, 7],
//!         vec![3, 4], // bridge
//!     ],
//! );
//! let out = ig_match(&hg, &IgMatchOptions::default())?;
//! assert_eq!(out.result.stats.cut_nets, 1); // only the bridge is cut
//! assert_eq!(out.result.stats.areas(), "4:4");
//! # Ok::<(), np_core::PartitionError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod result;

pub mod bounds;
pub mod eig1;
pub mod engine;
pub mod hybrid;
pub mod igmatch;
pub mod igvote;
pub mod kway;
pub mod models;
pub mod ordering;
pub mod placement;
pub mod robust;

pub use eig1::{eig1, eig1_ctx, Eig1Options};
pub use engine::{
    BoxedStage, EventSink, FallbackChain, Partitioner, Pipeline, RunContext, Stage, StageEvent,
};
pub use error::{panic_error, PartitionError};
pub use igmatch::{ig_match, ig_match_ctx, IgMatchOptions, IgMatchOutcome};
pub use igvote::{ig_vote, ig_vote_ctx, IgVoteOptions};
pub use kway::{kway_partition, kway_partition_ctx, KwayMethod, KwayOptions, KwayResult};
pub use models::IgWeighting;
pub use result::PartitionResult;
pub use robust::{
    fallback_chain, robust_partition, robust_partition_ctx, Diagnostics, FallbackStage,
    RobustFailure, RobustOptions, RobustOutcome, RobustStage,
};
