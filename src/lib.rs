//! Reproduction of Cong, Hagen and Kahng, *Net Partitions Yield Better
//! Module Partitions* (DAC 1992).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`netlist`] — hypergraphs, bipartitions, the ratio-cut metric,
//!   benchmark generation and `.hgr` I/O (`np-netlist`);
//! * [`sparse`] — CSR matrices and Laplacian operators (`np-sparse`);
//! * [`eigen`] — Lanczos/Jacobi eigensolvers for Fiedler vectors
//!   (`np-eigen`);
//! * [`core`] — the paper's algorithms: net models, EIG1, IG-Vote and
//!   IG-Match, plus the composable stage engine ([`core::engine`])
//!   every partitioner plugs into (`np-core`);
//! * [`baselines`] — FM, the RCut1.0 stand-in and KL (`np-baselines`);
//! * [`multilevel`] — the coarsen/partition/uncoarsen V-cycle for
//!   instances too large for the flat spectral pipeline
//!   (`np-multilevel`);
//! * [`runner`] — the parallel multi-start portfolio executor with
//!   deterministic best-of-N reduction (`np-runner`).
//!
//! The most common entry points are also re-exported at the crate root.
//!
//! # Example
//!
//! ```
//! use ig_match_repro::{ig_match, IgMatchOptions};
//! use ig_match_repro::netlist::generate::{generate, GeneratorConfig};
//!
//! let hg = generate(&GeneratorConfig::new(120, 130, 7));
//! let out = ig_match(&hg, &IgMatchOptions::default())?;
//! assert!(out.result.ratio().is_finite());
//! # Ok::<(), ig_match_repro::core::PartitionError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod hybrid;

pub use np_baselines as baselines;
pub use np_core as core;
pub use np_eigen as eigen;
pub use np_multilevel as multilevel;
pub use np_netlist as netlist;
pub use np_runner as runner;
pub use np_sparse as sparse;

pub use np_baselines::{
    fm_bisect, fm_bisect_metered, kl_bisect, kl_bisect_metered, rcut, rcut_metered, FmOptions,
    KlOptions, RcutOptions,
};
pub use np_core::{
    eig1, eig1_ctx, ig_match, ig_match_ctx, ig_vote, ig_vote_ctx, robust_partition,
    robust_partition_ctx, BoxedStage, Diagnostics, Eig1Options, EventSink, FallbackChain,
    FallbackStage, IgMatchOptions, IgMatchOutcome, IgVoteOptions, IgWeighting, PartitionError,
    PartitionResult, Partitioner, Pipeline, RobustFailure, RobustOptions, RobustOutcome,
    RunContext, Stage, StageEvent,
};
pub use np_multilevel::{
    multilevel as multilevel_partition, multilevel_ctx, multilevel_kway_ctx, MultilevelOptions,
    MultilevelOutcome, MultilevelStage,
};
pub use np_netlist::{Bipartition, CutStats, Hypergraph, HypergraphBuilder, ModuleId, NetId, Side};
pub use np_runner::{
    run_portfolio, run_portfolio_scored, Portfolio, PortfolioOptions, PortfolioOutcome,
    PortfolioReport,
};
pub use np_sparse::{Budget, BudgetExceeded, BudgetMeter};

// README's Rust blocks compile and run as doctests of this crate.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
