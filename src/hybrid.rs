//! Hybrid pipelines combining the spectral partitioners with iterative
//! post-improvement — [`np_core::hybrid`], re-exported. That module holds
//! the one definition of the IG-Match+FM flow.

pub use np_core::hybrid::{hybrid_pipeline, ig_match_refined_ctx, HybridOptions};

/// Runs IG-Match, then polishes the result with ratio-objective FM
/// passes; never worse than plain IG-Match.
///
/// # Example
///
/// ```
/// use ig_match_repro::hybrid::{ig_match_refined, HybridOptions};
/// use ig_match_repro::netlist::generate::{generate, GeneratorConfig};
/// use ig_match_repro::{ig_match, IgMatchOptions};
///
/// let hg = generate(&GeneratorConfig::new(150, 160, 5));
/// let plain = ig_match(&hg, &IgMatchOptions::default())?;
/// let hybrid = ig_match_refined(&hg, &HybridOptions::default())?;
/// assert!(hybrid.ratio() <= plain.result.ratio() + 1e-12);
/// # Ok::<(), ig_match_repro::PartitionError>(())
/// ```
pub use np_core::hybrid::ig_match_refined;

#[cfg(test)]
mod tests {
    use super::*;
    use np_core::engine::{RunContext, Stage};
    use np_core::{ig_match, IgMatchOptions, PartitionError};
    use np_netlist::generate::{generate, GeneratorConfig};
    use np_sparse::{Budget, BudgetMeter};
    use std::time::Duration;

    #[test]
    fn hybrid_never_worse_than_plain() {
        let hg = generate(&GeneratorConfig::new(220, 240, 9).with_satellite(0.1, 4));
        let plain = ig_match(&hg, &IgMatchOptions::default()).unwrap();
        let hybrid = ig_match_refined(&hg, &HybridOptions::default()).unwrap();
        assert!(hybrid.ratio() <= plain.result.ratio() + 1e-12);
        assert_eq!(hybrid.stats, hybrid.partition.cut_stats(&hg));
        assert_eq!(hybrid.algorithm, "IG-Match+FM");
    }

    #[test]
    fn hybrid_deterministic() {
        let hg = generate(&GeneratorConfig::new(180, 190, 2));
        let a = ig_match_refined(&hg, &HybridOptions::default()).unwrap();
        let b = ig_match_refined(&hg, &HybridOptions::default()).unwrap();
        assert_eq!(a.partition, b.partition);
    }

    #[test]
    fn zero_refine_passes_equals_plain() {
        let hg = generate(&GeneratorConfig::new(150, 170, 3));
        let plain = ig_match(&hg, &IgMatchOptions::default()).unwrap();
        let hybrid = ig_match_refined(
            &hg,
            &HybridOptions {
                max_refine_passes: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(hybrid.partition, plain.result.partition);
    }

    #[test]
    fn exhausted_budget_surfaces_as_budget_error() {
        let hg = generate(&GeneratorConfig::new(150, 170, 3));
        let meter = BudgetMeter::new(&Budget::UNLIMITED.with_wall_clock(Duration::ZERO));
        let err = ig_match_refined_ctx(
            &hg,
            &HybridOptions::default(),
            &RunContext::with_meter(&meter),
        )
        .unwrap_err();
        assert!(matches!(err, PartitionError::Budget(_)), "{err}");
    }

    #[test]
    fn pipeline_form_matches_function_form() {
        let hg = generate(&GeneratorConfig::new(150, 170, 3));
        let via_fn = ig_match_refined(&hg, &HybridOptions::default()).unwrap();
        let via_pipeline = hybrid_pipeline(&HybridOptions::default())
            .run(&hg, None, &RunContext::unlimited())
            .unwrap();
        assert_eq!(via_fn.partition, via_pipeline.partition);
        assert_eq!(via_pipeline.algorithm, "IG-Match+FM");
    }

    #[test]
    fn generous_budget_matches_unlimited() {
        let hg = generate(&GeneratorConfig::new(150, 170, 3));
        let unlimited = ig_match_refined(&hg, &HybridOptions::default()).unwrap();
        let meter = BudgetMeter::new(&Budget::UNLIMITED.with_wall_clock(Duration::from_secs(600)));
        let budgeted = ig_match_refined_ctx(
            &hg,
            &HybridOptions::default(),
            &RunContext::with_meter(&meter),
        )
        .unwrap();
        assert_eq!(unlimited.partition, budgeted.partition);
    }
}
