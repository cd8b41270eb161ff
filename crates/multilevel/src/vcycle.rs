//! The V-cycle driver: build a coarsening hierarchy, partition the
//! coarsest level with the existing flat machinery, then walk back up —
//! projecting labels one level at a time and refining at each level
//! under the shared cooperative budget. Both routes take one walk; each
//! brings its coarsest-level partitioner and its per-level step.
//!
//! # Level invariants
//!
//! Contraction retains duplicate nets and drops only cluster-internal
//! ones (see [`crate::coarsen`]), so projecting a partition one level
//! down *never changes its cut* — the projection step is exact, and the
//! walk `debug_assert`s this at every level. Refinement can therefore
//! only improve on the coarse solution, each route accepting it its way:
//!
//! * **bipartition route** — the ratio-cut denominator counts vertices,
//!   which differ between levels, so a level-local ratio win is not
//!   automatically a flat win. Each level's refinement is accepted only
//!   if its *flat projection* has a ratio no worse than the best seen, so
//!   the final result is ≥ as good (in flat ratio) as the pure
//!   projection of the coarse partition;
//! * **k-way route** — the objective is the net cut, which *is*
//!   level-invariant, and `kway_refine` only makes strictly improving
//!   feasible moves, so every level it finishes is accepted and the
//!   final cut is ≤ the coarse cut directly.
//!
//! # Budget policy
//!
//! Every phase charges the one [`BudgetMeter`] in the [`RunContext`]:
//! coarsening one unit per level, the coarsest partition through the
//! ordinary stage metering, and refinement one unit per pass per level.
//! If the meter trips *before* a partition exists (coarsening, initial
//! partition) the error propagates. If it trips *during uncoarsening*
//! the walk degrades gracefully: remaining levels are pure projections
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
    areas::{area_cut_stats, ModuleAreas},
    Bipartition, FixedModules, Hypergraph, KwayCutTracker, KwayPartition, ModuleId,
};
use np_sparse::BudgetMeter;
use std::cell::Cell;

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

    /// The netlist at `depth`: the input `hg` at 0, the coarse netlist
    /// of `levels[depth - 1]` below it.
    fn netlist<'h>(&'h self, hg: &'h Hypergraph, depth: usize) -> &'h Hypergraph {
        depth.checked_sub(1).map_or(hg, |i| &self.levels[i].coarse)
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
        levels.push(level);
    }
    Ok(Hierarchy { levels })
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
    // the flat ratio of a partition of the netlist at `depth ≥ 1`: its
    // cut is the flat cut (the projection identity) and its carried areas
    // add up to the flat side sizes, whole numbers summed exactly
    let flat_ratio = |depth: usize, partition: &Bipartition| {
        let level = &hierarchy.levels[depth - 1];
        area_cut_stats(&level.coarse, partition, &level.areas).ratio()
    };
    // the pure projection's flat ratio and the best one accepted since
    let (floor, best) = (Cell::new(None), Cell::new(f64::INFINITY));
    let walk = walk(
        hg,
        &hierarchy,
        ctx,
        |coarsest, c| initial_partition(coarsest, opts, c),
        |coarse: &PartitionResult| {
            best.set(flat_ratio(hierarchy.len(), &coarse.partition));
            floor.set(Some(best.get()));
            (coarse.partition.sides().to_vec(), coarse.stats.cut_nets)
        },
        |idx, fine, projected| {
            let projected = Bipartition::from_sides(projected.to_vec());
            // its only error is a tripped meter
            let Ok((refined, stats)) =
                refine_ratio_cut_metered(fine, &projected, opts.refine_passes, ctx.meter())
            else {
                return Ok(Step::Spent(None));
            };
            // the level-local ratio counts clusters, not flat modules —
            // accept only on a flat-projection win
            let ratio = if idx == 0 {
                stats.ratio()
            } else {
                flat_ratio(idx, &refined)
            };
            if ratio > best.get() {
                return Ok(Step::Kept);
            }
            best.set(ratio);
            Ok(Step::Accepted((refined.sides().to_vec(), stats.cut_nets)))
        },
    )?;
    let coarse_cut = walk.coarse.stats.cut_nets;
    let result = match walk.labels {
        Some(labels) => {
            PartitionResult::evaluate(hg, Bipartition::from_sides(labels), "multilevel", None)
        }
        None => walk.coarse,
    };
    let projected_ratio = floor.get().unwrap_or_else(|| result.ratio());
    debug_assert!(
        result.ratio() <= projected_ratio + 1e-9,
        "refined flat ratio must never exceed the pure-projection ratio"
    );
    Ok(MultilevelOutcome {
        result,
        levels: hierarchy.len(),
        coarsest_modules: hierarchy.netlist(hg, hierarchy.len()).num_modules(),
        coarse_cut,
        projected_ratio,
        refined_levels: walk.refined_levels,
        budget_degraded: walk.budget_degraded,
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
/// k-way route, then project + `kway_refine` back up. The coarsest
/// level's IG-Match options come from `mopts`; `k = 1` coarsens nothing.
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
    let mut opts = *mopts;
    opts.coarsen_target = if k == 1 {
        usize::MAX
    } else {
        mopts.coarsen_target.max(8 * k)
    };
    let hierarchy = build_hierarchy(hg, &areas, &fixed, &opts, bound / 3.0, ctx.meter())?;
    // areas and pins of the netlist at `depth` (the input at 0)
    let carried = |depth: usize| match depth.checked_sub(1) {
        None => (&areas, &fixed),
        Some(i) => (&hierarchy.levels[i].areas, &hierarchy.levels[i].fixed),
    };
    let cap = area_cap(bound);
    let feasible = |t: &KwayCutTracker<'_>| {
        t.block_counts().iter().all(|&c| c > 0) && t.block_areas().iter().all(|&a| a <= cap)
    };
    let labeled = |t: &KwayCutTracker<'_>| (t.to_partition().labels().to_vec(), t.cut_nets());
    let walk = walk(
        hg,
        &hierarchy,
        ctx,
        |coarsest, c| {
            let (areas, fixed) = carried(hierarchy.len());
            let opts = KwayOptions {
                k,
                epsilon: kopts.epsilon,
                areas: Some(areas.clone()),
                fixed: Some(fixed.clone()),
                ig_match: mopts.ig_match,
                max_refine_passes: kopts.max_refine_passes,
            };
            kway_partition_ctx(coarsest, &opts, KwayMethod::Recursive, c)
        },
        |coarse: &KwayResult| (coarse.partition.labels().to_vec(), coarse.stats.cut_nets),
        |idx, fine, projected| {
            let (areas, fixed) = carried(idx);
            let p = KwayPartition::with_num_blocks(projected.to_vec(), k);
            let mut tracker = KwayCutTracker::new(fine, &p);
            tracker.set_areas(areas);
            let free: Vec<bool> = (0..fine.num_modules())
                .map(|v| !fixed.is_pinned(ModuleId(v as u32)))
                .collect();
            let step = (|| -> Result<(), PartitionError> {
                // projection preserves block areas and counts exactly, so
                // repair only fires on a genuinely infeasible hand-off
                if !feasible(&tracker) {
                    enforce_balance(&mut tracker, &free, bound, ctx.meter())?;
                }
                kway_refine(&mut tracker, &free, bound, mopts.refine_passes, ctx.meter())?;
                Ok(())
            })();
            match step {
                Ok(()) => Ok(Step::Accepted(labeled(&tracker))),
                // keep the tracker's partial moves only if still feasible
                Err(PartitionError::Budget(_)) => {
                    Ok(Step::Spent(feasible(&tracker).then(|| labeled(&tracker))))
                }
                Err(e) => Err(e),
            }
        },
    )?;
    let coarse_cut = walk.coarse.stats.cut_nets;
    let result = match walk.labels {
        Some(labels) => {
            let partition = KwayPartition::with_num_blocks(labels, k);
            KwayResult::evaluate(hg, partition, "multilevel-kway")
        }
        None => walk.coarse,
    };
    debug_assert!(
        result.stats.cut_nets <= coarse_cut,
        "k-way refinement must never worsen the cut"
    );
    Ok(MultilevelKwayOutcome {
        result,
        levels: hierarchy.len(),
        coarsest_modules: hierarchy.netlist(hg, hierarchy.len()).num_modules(),
        coarse_cut,
        refined_levels: walk.refined_levels,
        budget_degraded: walk.budget_degraded,
    })
}

/// Labels on one level's netlist and their net cut.
type Labeled<L> = (Vec<L>, usize);

/// What a route's refinement made of one level's projected labels.
enum Step<L> {
    /// These labels replace the projection.
    Accepted(Labeled<L>),
    /// The projection stands.
    Kept,
    /// The budget ran out: these labels stand (the projection when
    /// `None`), and every remaining level is a pure projection.
    Spent(Option<Labeled<L>>),
}

/// What [`walk`] hands back to its caller.
struct Walk<C, L> {
    /// The coarsest level's partition; at zero levels, the answer.
    coarse: C,
    /// The input's labels after uncoarsening; `None` at zero levels.
    labels: Option<Vec<L>>,
    refined_levels: usize,
    budget_degraded: bool,
}

/// The V-cycle walk of both routes (see the module docs). `partition`
/// runs on the caller's context at zero levels, where its partition is
/// the answer, and otherwise on [`RunContext::for_other_hypergraph`], so
/// the caller's operator cache stays bound to `hg`. The labels `start`
/// takes from it are projected down one level at a time and `refine`d
/// at each — given the level, the netlist it contracts (the input at 0)
/// and the projected labels — until a [`Step::Spent`].
fn walk<C, L: Copy + PartialEq>(
    hg: &Hypergraph,
    hierarchy: &Hierarchy,
    ctx: &RunContext<'_>,
    partition: impl FnOnce(&Hypergraph, &RunContext<'_>) -> Result<C, PartitionError>,
    start: impl FnOnce(&C) -> Labeled<L>,
    mut refine: impl FnMut(usize, &Hypergraph, &[L]) -> Result<Step<L>, PartitionError>,
) -> Result<Walk<C, L>, PartitionError> {
    let coarse = match hierarchy.levels.last() {
        None => partition(hg, ctx)?,
        Some(coarsest) => partition(&coarsest.coarse, &ctx.for_other_hypergraph())?,
    };
    let mut walk = Walk {
        coarse,
        labels: None,
        refined_levels: 0,
        budget_degraded: false,
    };
    if hierarchy.is_empty() {
        return Ok(walk);
    }
    let (mut labels, mut cut) = start(&walk.coarse);
    for idx in (0..hierarchy.len()).rev() {
        let fine = hierarchy.netlist(hg, idx);
        let map = &hierarchy.levels[idx].map;
        labels = map.iter().map(|&c| labels[c as usize]).collect();
        debug_assert_eq!(
            cut_nets(fine, &labels),
            cut,
            "projection must preserve the cut exactly"
        );
        if walk.budget_degraded {
            continue;
        }
        match refine(idx, fine, &labels)? {
            Step::Accepted(refined) => {
                walk.refined_levels += 1;
                (labels, cut) = refined;
            }
            Step::Kept => {}
            Step::Spent(kept) => {
                walk.budget_degraded = true;
                (labels, cut) = kept.unwrap_or((labels, cut));
            }
        }
    }
    walk.labels = Some(labels);
    Ok(walk)
}

/// Nets of `hg` whose pins carry more than one label; shares no code
/// with the routes' trackers.
fn cut_nets<L: PartialEq>(hg: &Hypergraph, labels: &[L]) -> usize {
    hg.nets()
        .filter(|&e| {
            let pins = hg.pins(e);
            pins.iter()
                .any(|m| labels[m.index()] != labels[pins[0].index()])
        })
        .count()
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
