//! The V-cycle driver: build a coarsening hierarchy, partition the
//! coarsest level with the existing flat machinery, then walk back up —
//! projecting labels one level at a time and refining at each level
//! under the shared cooperative budget.
//!
//! # Level invariants
//!
//! Contraction retains duplicate nets and drops only cluster-internal
//! ones (see [`crate::coarsen`]), so projecting a partition one level
//! down *never changes its cut* — the projection step is exact, and the
//! drivers `debug_assert` this at every level. Refinement can therefore
//! only improve on the coarse solution:
//!
//! * **bipartition route** — the ratio-cut denominator counts vertices,
//!   which differ between levels, so a level-local ratio win is not
//!   automatically a flat win. Each level's refinement is accepted only
//!   if its *flat projection* has a ratio no worse than the best seen, so
//!   the final result is ≥ as good (in flat ratio) as the pure
//!   projection of the coarse partition;
//! * **k-way route** — the objective is the net cut, which *is*
//!   level-invariant, and `kway_refine` only makes strictly improving
//!   feasible moves, so the final cut is ≤ the coarse cut directly.
//!
//! # Budget policy
//!
//! Every phase charges the one [`BudgetMeter`] in the [`RunContext`]:
//! coarsening one unit per level, the coarsest partition through the
//! ordinary stage metering, and refinement one unit per pass per level.
//! If the meter trips *before* a partition exists (coarsening, initial
//! partition) the error propagates. If it trips *during uncoarsening*
//! the driver degrades gracefully: remaining levels are pure projections
//! — exact, just unrefined — and the best-so-far partition is returned
//! as a success with [`MultilevelOutcome::budget_degraded`] set.

use crate::coarsen::{coarsen_level, Level};
use np_baselines::rcut::refine_ratio_cut_metered;
use np_core::engine::stages::FmStage;
use np_core::engine::{FallbackChain, RunContext, StageEvent};
use np_core::hybrid::{hybrid_pipeline, HybridOptions};
use np_core::kway::refine::{area_cap, enforce_balance, kway_refine};
use np_core::kway::{prepare, Prepared};
use np_core::{
    kway_partition_ctx, IgMatchOptions, KwayMethod, KwayOptions, KwayResult, PartitionError,
    PartitionResult, Partitioner,
};
use np_netlist::{
    areas::ModuleAreas, Bipartition, FixedModules, Hypergraph, KwayCutTracker, KwayPartition,
    ModuleId, Side,
};
use np_sparse::BudgetMeter;

/// Options for the multilevel V-cycle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MultilevelOptions {
    /// Coarsening stops once a level has at most this many modules (the
    /// driver clamps it to at least 4, and to at least `8·k` on the
    /// k-way route so the coarsest level stays balanceable).
    pub coarsen_target: usize,
    /// Hard cap on the number of coarsening levels.
    pub max_levels: usize,
    /// Refinement passes per uncoarsening level.
    pub refine_passes: usize,
    /// Refinement passes of the *flat* hybrid pipeline used for the
    /// coarsest-level initial partition (and for the whole instance when
    /// no coarsening is needed). Matches the workspace default of 20 so
    /// the zero-level V-cycle is bit-identical to the flat pipeline.
    pub flat_refine_passes: usize,
    /// Options for the IG-Match run on the coarsest level. The Lanczos
    /// seed in here stays authoritative, exactly as for the flat stages.
    pub ig_match: IgMatchOptions,
}

impl Default for MultilevelOptions {
    fn default() -> Self {
        MultilevelOptions {
            coarsen_target: 3000,
            max_levels: 24,
            refine_passes: 4,
            flat_refine_passes: 20,
            ig_match: IgMatchOptions::default(),
        }
    }
}

/// Stall guard: a level must shrink the module count below this fraction
/// of the previous count or coarsening stops (a matching that finds
/// almost no pairs will never reach the target).
const MIN_SHRINK: f64 = 0.95;

/// A coarsening hierarchy. `levels[0]` contracts the input hypergraph;
/// `levels[i]` contracts `levels[i-1].coarse`.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// The contraction steps, finest first.
    pub levels: Vec<Level>,
    /// `flat_maps[i][flat_module]` = module index at level `i` — the
    /// composed projection map, maintained so any level's partition can
    /// be evaluated on the flat hypergraph in O(n).
    pub flat_maps: Vec<Vec<u32>>,
}

impl Hierarchy {
    /// Number of coarsening levels (0 = the input was never contracted).
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// `true` when no contraction step was taken.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }
}

/// Builds the coarsening hierarchy for `hg`, carrying `areas` and
/// `fixed` pins through every contraction. Charges `meter` one unit per
/// level. Stops at `opts.coarsen_target` modules, at `opts.max_levels`
/// levels, or when a level keeps more than 95% of its modules.
///
/// # Errors
///
/// [`PartitionError::Budget`] when the meter trips mid-coarsening.
pub fn build_hierarchy(
    hg: &Hypergraph,
    areas: &ModuleAreas,
    fixed: &FixedModules,
    opts: &MultilevelOptions,
    max_cluster_area: f64,
    meter: &BudgetMeter,
) -> Result<Hierarchy, PartitionError> {
    let target = opts.coarsen_target.max(4);
    // Absorption needs an area cap or star netlists collapse into one
    // mega-cluster: 4x the average cluster area *at the target size*
    // leaves at least target/4 clusters while barely constraining the
    // earlier (finer) levels.
    let max_cluster_area = max_cluster_area.min(4.0 * areas.total() / target as f64);
    let mut levels: Vec<Level> = Vec::new();
    let mut flat_maps: Vec<Vec<u32>> = Vec::new();
    let mut cur_areas = areas.clone();
    let mut cur_fixed = fixed.clone();
    loop {
        let cur_hg: &Hypergraph = levels.last().map_or(hg, |l| &l.coarse);
        let n = cur_hg.num_modules();
        if n <= target || levels.len() >= opts.max_levels {
            break;
        }
        meter.charge(1)?;
        let level = coarsen_level(cur_hg, &cur_areas, &cur_fixed, max_cluster_area);
        let coarse_n = level.coarse.num_modules();
        if coarse_n < 2 || (coarse_n as f64) > MIN_SHRINK * n as f64 {
            break; // stalled (or would become unpartitionable): keep what we have
        }
        cur_areas = level.areas.clone();
        cur_fixed = level.fixed.clone();
        let composed = match flat_maps.last() {
            None => level.map.clone(),
            Some(prev) => prev.iter().map(|&c| level.map[c as usize]).collect(),
        };
        flat_maps.push(composed);
        levels.push(level);
    }
    Ok(Hierarchy { levels, flat_maps })
}

/// Outcome of a bipartition V-cycle.
#[derive(Clone, Debug)]
pub struct MultilevelOutcome {
    /// The final flat partition, evaluated on the input hypergraph.
    pub result: PartitionResult,
    /// Number of coarsening levels (0 = flat pipeline, no V-cycle).
    pub levels: usize,
    /// Module count of the coarsest level actually partitioned.
    pub coarsest_modules: usize,
    /// Net cut of the initial (coarsest-level) partition. By the
    /// projection identity this is also the flat cut of the unrefined
    /// projection.
    pub coarse_cut: usize,
    /// Flat ratio of the *pure* projection of the coarsest partition —
    /// the quality floor: `result.ratio() <= projected_ratio` always.
    pub projected_ratio: f64,
    /// Levels whose refinement was run and accepted.
    pub refined_levels: usize,
    /// `true` when the budget tripped during uncoarsening and the
    /// remaining levels fell back to pure projection.
    pub budget_degraded: bool,
}

/// [`multilevel_ctx`] with an unlimited context.
///
/// # Errors
///
/// See [`multilevel_ctx`].
pub fn multilevel(
    hg: &Hypergraph,
    opts: &MultilevelOptions,
) -> Result<MultilevelOutcome, PartitionError> {
    multilevel_ctx(hg, opts, &RunContext::unlimited())
}

/// Runs the full bipartition V-cycle: coarsen to
/// `opts.coarsen_target`, partition the coarsest level with the hybrid
/// IG-Match pipeline (FM as fallback), then project + refine back up.
/// When the instance already fits the target the flat hybrid pipeline
/// runs directly and the outcome reports zero levels — the V-cycle with
/// `coarsen_target >= n` is bit-identical to the flat pipeline, which is
/// the debug-mode oracle contract.
///
/// # Errors
///
/// * [`PartitionError::TooSmall`] for fewer than 2 modules;
/// * any error of the coarsest-level pipeline (both the hybrid pipeline
///   and the FM fallback failed);
/// * [`PartitionError::Budget`] when the meter trips before a partition
///   exists. A meter tripping *after* the initial partition degrades to
///   projection instead of failing.
pub fn multilevel_ctx(
    hg: &Hypergraph,
    opts: &MultilevelOptions,
    ctx: &RunContext<'_>,
) -> Result<MultilevelOutcome, PartitionError> {
    let n = hg.num_modules();
    if n < 2 {
        return Err(PartitionError::TooSmall {
            modules: n,
            nets: hg.num_nets(),
        });
    }
    let areas = ModuleAreas::uniform(n);
    let fixed = FixedModules::free(n);
    let hierarchy = build_hierarchy(hg, &areas, &fixed, opts, f64::INFINITY, ctx.meter())?;

    if hierarchy.is_empty() {
        let result = initial_partition(hg, opts, ctx)?;
        let projected_ratio = result.ratio();
        let coarse_cut = result.stats.cut_nets;
        return Ok(MultilevelOutcome {
            result,
            levels: 0,
            coarsest_modules: n,
            coarse_cut,
            projected_ratio,
            refined_levels: 0,
            budget_degraded: false,
        });
    }

    let last = hierarchy.levels.len() - 1;
    let coarsest_modules = hierarchy.levels[last].coarse.num_modules();
    // the coarsest level is another netlist: the caller's operator cache
    // stays bound to `hg`
    let coarse_ctx = ctx.for_other_hypergraph();
    let coarse = initial_partition(&hierarchy.levels[last].coarse, opts, &coarse_ctx)?;
    let coarse_cut = coarse.stats.cut_nets;

    // quality floor: the pure projection of the coarsest partition
    let mut labels: Vec<Side> = coarse.partition.sides().to_vec();
    let flat_map = &hierarchy.flat_maps[last];
    let baseline = Bipartition::from_sides((0..n).map(|v| labels[flat_map[v] as usize]).collect());
    let projected_ratio = baseline.cut_stats(hg).ratio();
    let mut best_ratio = projected_ratio;

    let mut refined_levels = 0usize;
    let mut budget_degraded = false;
    let mut current_cut = coarse_cut;
    for idx in (0..hierarchy.levels.len()).rev() {
        let fine_hg = if idx == 0 {
            hg
        } else {
            &hierarchy.levels[idx - 1].coarse
        };
        let map = &hierarchy.levels[idx].map;
        let projected = Bipartition::from_sides(
            (0..fine_hg.num_modules())
                .map(|v| labels[map[v] as usize])
                .collect(),
        );
        debug_assert_eq!(
            projected.cut_stats(fine_hg).cut_nets,
            current_cut,
            "projection must preserve the cut exactly"
        );
        let mut accepted = projected;
        if !budget_degraded {
            match refine_ratio_cut_metered(fine_hg, &accepted, opts.refine_passes, ctx.meter()) {
                Ok((refined, stats)) => {
                    // the level-local ratio counts clusters, not flat
                    // modules — accept only on a flat-projection win
                    let flat_ratio = if idx == 0 {
                        stats.ratio()
                    } else {
                        let fmap = &hierarchy.flat_maps[idx - 1];
                        Bipartition::from_sides(
                            (0..n).map(|v| refined.side(ModuleId(fmap[v]))).collect(),
                        )
                        .cut_stats(hg)
                        .ratio()
                    };
                    if flat_ratio <= best_ratio {
                        best_ratio = flat_ratio;
                        current_cut = stats.cut_nets;
                        accepted = refined;
                        refined_levels += 1;
                    }
                }
                Err(_) => budget_degraded = true,
            }
        }
        labels = accepted.sides().to_vec();
    }

    let result = PartitionResult::evaluate(hg, Bipartition::from_sides(labels), "multilevel", None);
    debug_assert!(
        result.ratio() <= projected_ratio + 1e-9,
        "refined flat ratio must never exceed the pure-projection ratio"
    );
    Ok(MultilevelOutcome {
        result,
        levels: hierarchy.levels.len(),
        coarsest_modules,
        coarse_cut,
        projected_ratio,
        refined_levels,
        budget_degraded,
    })
}

/// The coarsest-level (and flat-path) partitioner: the workspace's hybrid
/// IG-Match pipeline with a purely combinatorial FM fallback for levels
/// too small or too degenerate for the spectral route. Only a spent
/// budget or a netlist of fewer than 2 modules, which FM cannot split
/// either, aborts the chain.
fn initial_partition(
    hg: &Hypergraph,
    opts: &MultilevelOptions,
    ctx: &RunContext<'_>,
) -> Result<PartitionResult, PartitionError> {
    let chain = FallbackChain::new()
        .link(
            "hybrid",
            hybrid_pipeline(&HybridOptions {
                ig_match: opts.ig_match,
                max_refine_passes: opts.flat_refine_passes,
            }),
        )
        .link("fm", FmStage::default());
    chain
        .run(hg, ctx)
        .map(|out| out.result)
        .map_err(|f| f.error)
}

/// Outcome of a k-way V-cycle.
#[derive(Clone, Debug)]
pub struct MultilevelKwayOutcome {
    /// The final flat k-way partition (all blocks non-empty, within the
    /// balance bound, pins respected).
    pub result: KwayResult,
    /// Number of coarsening levels (0 = flat k-way, no V-cycle).
    pub levels: usize,
    /// Module count of the coarsest level actually partitioned.
    pub coarsest_modules: usize,
    /// Net cut of the initial (coarsest-level) partition; the final cut
    /// never exceeds it (the k-way objective is level-invariant).
    pub coarse_cut: usize,
    /// Levels whose refinement ran to completion.
    pub refined_levels: usize,
    /// `true` when the budget tripped during uncoarsening.
    pub budget_degraded: bool,
}

/// Runs the k-way V-cycle: coarsen with areas and pins carried (merges
/// are capped at a third of the balance bound so the coarsest level
/// stays feasible), partition the coarsest level with the recursive
/// k-way route, then project + `kway_refine` back up.
///
/// # Errors
///
/// * [`PartitionError::InvalidInput`] for the inputs the flat route
///   rejects ([`prepare`]);
/// * any error of the coarsest-level k-way route;
/// * [`PartitionError::Budget`] when the meter trips before a partition
///   exists (later trips degrade to projection).
pub fn multilevel_kway_ctx(
    hg: &Hypergraph,
    kopts: &KwayOptions,
    mopts: &MultilevelOptions,
    ctx: &RunContext<'_>,
) -> Result<MultilevelKwayOutcome, PartitionError> {
    let Prepared {
        areas,
        fixed,
        bound,
        ..
    } = prepare(hg, kopts)?;
    let k = kopts.k;
    if k == 1 {
        // one block holds everything: nothing to coarsen
        let result = kway_partition_ctx(hg, kopts, KwayMethod::Recursive, ctx)?;
        return Ok(MultilevelKwayOutcome {
            coarsest_modules: hg.num_modules(),
            coarse_cut: result.stats.cut_nets,
            result,
            levels: 0,
            refined_levels: 0,
            budget_degraded: false,
        });
    }

    let mut opts = *mopts;
    opts.coarsen_target = mopts.coarsen_target.max(8 * k);
    let hierarchy = build_hierarchy(hg, &areas, &fixed, &opts, bound / 3.0, ctx.meter())?;

    let (coarsest_hg, coarse_areas, coarse_fixed) = match hierarchy.levels.last() {
        Some(l) => (&l.coarse, l.areas.clone(), l.fixed.clone()),
        None => (hg, areas.clone(), fixed.clone()),
    };
    let coarsest_modules = coarsest_hg.num_modules();
    let coarse_opts = KwayOptions {
        k,
        epsilon: kopts.epsilon,
        areas: Some(coarse_areas),
        fixed: Some(coarse_fixed),
        ig_match: mopts.ig_match,
        max_refine_passes: kopts.max_refine_passes,
    };
    // a coarser netlist than `hg` runs on its own operator cache
    let own;
    let coarse_ctx = if hierarchy.is_empty() {
        ctx
    } else {
        own = ctx.for_other_hypergraph();
        &own
    };
    let coarse = kway_partition_ctx(coarsest_hg, &coarse_opts, KwayMethod::Recursive, coarse_ctx)?;
    let coarse_cut = coarse.stats.cut_nets;
    if hierarchy.is_empty() {
        return Ok(MultilevelKwayOutcome {
            result: coarse,
            levels: 0,
            coarsest_modules,
            coarse_cut,
            refined_levels: 0,
            budget_degraded: false,
        });
    }

    let cap = area_cap(bound);
    let mut labels: Vec<u32> = coarse.partition.labels().to_vec();
    let mut refined_levels = 0usize;
    let mut budget_degraded = false;
    let mut current_cut = coarse_cut;
    for idx in (0..hierarchy.levels.len()).rev() {
        let fine_hg = if idx == 0 {
            hg
        } else {
            &hierarchy.levels[idx - 1].coarse
        };
        let fine_areas = if idx == 0 {
            &areas
        } else {
            &hierarchy.levels[idx - 1].areas
        };
        let fine_fixed = if idx == 0 {
            &fixed
        } else {
            &hierarchy.levels[idx - 1].fixed
        };
        let map = &hierarchy.levels[idx].map;
        let fine_n = fine_hg.num_modules();
        let projected: Vec<u32> = (0..fine_n).map(|v| labels[map[v] as usize]).collect();
        if budget_degraded {
            labels = projected;
            continue;
        }
        let p = KwayPartition::with_num_blocks(projected.clone(), k);
        let mut tracker = KwayCutTracker::new(fine_hg, &p);
        tracker.set_areas(fine_areas);
        debug_assert_eq!(
            tracker.cut_nets(),
            current_cut,
            "projection must preserve the k-way cut exactly"
        );
        let free: Vec<bool> = (0..fine_n)
            .map(|v| !fine_fixed.is_pinned(ModuleId(v as u32)))
            .collect();
        let step = (|| -> Result<(), PartitionError> {
            // projection preserves block areas and counts exactly, so
            // repair only fires on a genuinely infeasible hand-off
            let needs_repair = tracker.block_counts().contains(&0)
                || tracker.block_areas().iter().any(|&a| a > cap);
            if needs_repair {
                enforce_balance(&mut tracker, &free, bound, ctx.meter())?;
            }
            kway_refine(&mut tracker, &free, bound, mopts.refine_passes, ctx.meter())?;
            Ok(())
        })();
        match step {
            Ok(()) => {
                refined_levels += 1;
                current_cut = tracker.cut_nets();
                labels = tracker.to_partition().labels().to_vec();
            }
            Err(PartitionError::Budget(_)) => {
                budget_degraded = true;
                // keep the tracker's partial moves only if still feasible
                let feasible = tracker.block_counts().iter().all(|&c| c > 0)
                    && tracker.block_areas().iter().all(|&a| a <= cap);
                if feasible {
                    current_cut = tracker.cut_nets();
                    labels = tracker.to_partition().labels().to_vec();
                } else {
                    labels = projected;
                }
            }
            Err(e) => return Err(e),
        }
    }

    let partition = KwayPartition::with_num_blocks(labels, k);
    let result = KwayResult::evaluate(hg, partition, "multilevel-kway");
    debug_assert!(
        result.stats.cut_nets <= coarse_cut,
        "k-way refinement must never worsen the cut"
    );
    Ok(MultilevelKwayOutcome {
        result,
        levels: hierarchy.levels.len(),
        coarsest_modules,
        coarse_cut,
        refined_levels,
        budget_degraded,
    })
}

/// The V-cycle as an engine stage, composable in `Pipeline`s,
/// `FallbackChain`s and `np-runner` portfolios. Reports the level count
/// and coarsest size through [`StageEvent::Detail`] on instrumented
/// runs. When no coarsening is needed the stage is bit-identical to the
/// flat hybrid IG-Match pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MultilevelStage {
    /// V-cycle options.
    pub opts: MultilevelOptions,
}

impl MultilevelStage {
    /// A stage with the given options.
    pub fn new(opts: MultilevelOptions) -> Self {
        MultilevelStage { opts }
    }
}

impl Partitioner for MultilevelStage {
    fn name(&self) -> &'static str {
        "multilevel"
    }

    fn partition(
        &self,
        hg: &Hypergraph,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        let out = multilevel_ctx(hg, &self.opts, ctx)?;
        if ctx.has_events() {
            let message = format!(
                "V-cycle: {} levels, coarsest {} modules, {} levels refined{}",
                out.levels,
                out.coarsest_modules,
                out.refined_levels,
                if out.budget_degraded {
                    " (budget degraded to projection)"
                } else {
                    ""
                }
            );
            ctx.emit(StageEvent::Detail {
                stage: Partitioner::name(self),
                message: &message,
            });
        }
        Ok(out.result)
    }
}
