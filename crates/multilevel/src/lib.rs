//! Multilevel V-cycle partitioning — the scale unlock for
//! million-module hypergraphs.
//!
//! Every flat algorithm in the workspace eventually hits the same wall:
//! Lanczos on the full intersection Laplacian. This crate goes around it
//! with the classic multilevel scheme:
//!
//! 1. **coarsen** ([`coarsen`] module) — one contraction, repeated
//!    level by level until the hypergraph fits
//!    [`MultilevelOptions::coarsen_target`]: heavy-edge matching on
//!    clique-model weights, with unmatched modules absorbed into their
//!    best neighbor cluster, area caps and `FixedModules` awareness;
//! 2. **initial partition** — the existing hybrid IG-Match pipeline
//!    (or the recursive k-way route) runs on the coarsest level, where
//!    the eigensolve is cheap;
//! 3. **uncoarsen** ([`vcycle`] module) — labels project up one level at
//!    a time (exactly, thanks to duplicate-net retention) and a
//!    refinement pass cleans up at each level under per-level slices of
//!    the shared [`BudgetMeter`](np_sparse::BudgetMeter).
//!
//! The whole V-cycle is exposed as [`MultilevelStage`], an ordinary
//! engine stage that drops into `Pipeline`s, `FallbackChain`s and
//! `np-runner` portfolios. With `coarsen_target >= n` the stage runs
//! zero levels and is bit-identical to the flat hybrid pipeline — the
//! flat pipeline stays available as the debug-mode oracle.
//!
//! # Example
//!
//! ```
//! use np_multilevel::{multilevel, MultilevelOptions};
//! use np_netlist::generate::{generate, GeneratorConfig};
//!
//! let hg = generate(&GeneratorConfig::new(400, 420, 7));
//! let opts = MultilevelOptions {
//!     coarsen_target: 64,
//!     ..Default::default()
//! };
//! let out = multilevel(&hg, &opts)?;
//! assert!(out.levels > 0);
//! assert!(out.result.ratio() <= out.projected_ratio + 1e-9);
//! # Ok::<(), np_core::PartitionError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod coarsen;
pub mod vcycle;

pub use coarsen::{coarsen_level, Level, DROPPED_NET};
pub use vcycle::{
    build_hierarchy, multilevel, multilevel_ctx, multilevel_kway_ctx, Hierarchy,
    MultilevelKwayOutcome, MultilevelOptions, MultilevelOutcome, MultilevelStage,
};

#[cfg(test)]
mod tests {
    use super::*;
    use np_core::engine::{RunContext, Stage};
    use np_core::KwayOptions;
    use np_netlist::generate::{generate, GeneratorConfig};
    use np_netlist::{FixedModules, ModuleId};

    fn small_opts(target: usize) -> MultilevelOptions {
        MultilevelOptions {
            coarsen_target: target,
            ..Default::default()
        }
    }

    #[test]
    fn vcycle_never_worse_than_pure_projection() {
        let hg = generate(&GeneratorConfig::new(500, 520, 11).with_satellite(0.1, 3));
        let out = multilevel(&hg, &small_opts(50)).unwrap();
        assert!(out.levels > 0);
        assert!(out.coarsest_modules <= 50 || out.levels == 24);
        assert!(out.result.ratio() <= out.projected_ratio + 1e-9);
        assert_eq!(out.result.stats, out.result.partition.cut_stats(&hg));
    }

    #[test]
    fn too_small_rejected() {
        let hg = np_netlist::hypergraph_from_nets(1, &[vec![0]]);
        assert!(matches!(
            multilevel(&hg, &MultilevelOptions::default()),
            Err(np_core::PartitionError::TooSmall { .. })
        ));
    }

    #[test]
    fn kway_vcycle_respects_pins_and_coarse_cut() {
        let hg = generate(&GeneratorConfig::new(400, 420, 19));
        let mut fixed = FixedModules::free(400);
        fixed.pin(ModuleId(0), 0);
        fixed.pin(ModuleId(1), 1);
        fixed.pin(ModuleId(2), 2);
        let kopts = KwayOptions {
            k: 3,
            fixed: Some(fixed),
            ..Default::default()
        };
        let out =
            multilevel_kway_ctx(&hg, &kopts, &small_opts(40), &RunContext::unlimited()).unwrap();
        assert!(out.levels > 0);
        assert!(out.result.stats.cut_nets <= out.coarse_cut);
        assert_eq!(out.result.partition.block_of(ModuleId(0)), 0);
        assert_eq!(out.result.partition.block_of(ModuleId(1)), 1);
        assert_eq!(out.result.partition.block_of(ModuleId(2)), 2);
        assert!(out.result.stats.block_sizes.iter().all(|&s| s > 0));
    }

    #[test]
    fn stage_composes_and_reports_details() {
        use np_core::engine::StageEvent;
        use std::sync::Mutex;
        let hg = generate(&GeneratorConfig::new(300, 320, 23));
        let details = Mutex::new(Vec::<String>::new());
        let sink = |e: &StageEvent<'_>| {
            if let StageEvent::Detail { message, .. } = e {
                details.lock().unwrap().push((*message).to_string());
            }
        };
        let ctx = RunContext::unlimited().with_events(&sink);
        let stage = MultilevelStage::new(small_opts(40));
        let result = stage.run(&hg, None, &ctx).unwrap();
        assert_eq!(result.algorithm, "multilevel");
        let details = details.into_inner().unwrap();
        assert!(
            details.iter().any(|d| d.starts_with("V-cycle:")),
            "missing V-cycle detail event in {details:?}"
        );
    }
}
