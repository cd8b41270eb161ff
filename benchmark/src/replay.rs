//! Traced runs: each batch route's wall time split into layers by timing
//! calls into the library's public functions from the outside.
//!
//! The flat bisection route is replayed step by step: the replay *is* the
//! route, and must reproduce it exactly — same partition, same cut
//! statistics, same matvec spend. The k-way and V-cycle routes keep their
//! recursion and level loop private, so each runs as itself under a
//! benchmark-owned [`StageEvent`] sink. The only stages either runs on
//! the caller's context make up one bisection — k-way's top split, the
//! V-cycle's coarsest level — so the sink's first start and last finish
//! cut the route's wall into the time before, during and after that
//! bisection. The bisection is then replayed step by step and must match
//! what the sink saw, and its split is applied to the time the route
//! spent in it. A replay that drifted from the library would otherwise
//! keep reporting a phase split of code that no longer runs.
//!
//! Routes and replays run under an unlimited meter on instances of
//! thousands of modules, so the library's budget-degradation and
//! too-small paths never fire and are not replayed.

use crate::batch::{kway_options, route_context, Outcome, Run};
use crate::stats::ms;
use ig_match_repro::baselines::rcut::refine_ratio_cut_metered;
use ig_match_repro::core::engine::stages::FmStage;
use ig_match_repro::core::engine::{RunContext, StageEvent};
use ig_match_repro::core::igmatch::ig_match_with_ordering_ctx;
use ig_match_repro::core::kway::{kway_partition_ctx, KwayMethod};
use ig_match_repro::core::ordering::order_by_component;
use ig_match_repro::core::{PartitionError, PartitionResult, Partitioner};
use ig_match_repro::eigen::{fiedler_metered, EigenError};
use ig_match_repro::hybrid::HybridOptions;
use ig_match_repro::multilevel::{build_hierarchy, multilevel_ctx, MultilevelOptions};
use ig_match_repro::netlist::areas::ModuleAreas;
use ig_match_repro::netlist::{FixedModules, Hypergraph, NetId};
use ig_match_repro::sparse::BudgetMeter;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const OP_BUILD_MS: &str = "models.op_build_ms";
const NEIGHBORS_MS: &str = "models.neighbors_ms";
const OP_NNZ: &str = "models.op_nnz";
pub const LANCZOS_MS: &str = "eigen.lanczos_ms";
pub const MATVECS: &str = "eigen.matvecs";
pub const NONCONVERGED: &str = "eigen.nonconverged";
pub const SWEEP_MS: &str = "igmatch.sweep_ms";
pub const MOVES: &str = "igmatch.moves";
const REFINE_MS: &str = "baselines.refine_ms";
pub const FM_FALLBACK_MS: &str = "baselines.fm_fallback_ms";
const COARSEN_MS: &str = "multilevel.coarsen_ms";
const LEVELS: &str = "multilevel.levels";
const COARSE_MODULES: &str = "multilevel.coarse_modules";
const COARSE_NETS: &str = "multilevel.coarse_nets";
pub const INITIAL_MS: &str = "multilevel.initial_ms";
const UNCOARSEN_MS: &str = "multilevel.uncoarsen_ms";
pub const TOP_BISECT_MS: &str = "kway.top_bisect_ms";
const REST_MS: &str = "kway.rest_ms";

/// The disjoint steps of a replayed bisection, whose sum should cover
/// the replay's wall time.
const PHASES: [&str; 6] = [
    OP_BUILD_MS,
    NEIGHBORS_MS,
    LANCZOS_MS,
    SWEEP_MS,
    REFINE_MS,
    FM_FALLBACK_MS,
];

/// Milliseconds of `layers` spent in named [`PHASES`].
fn phases_ms(layers: &Layers) -> f64 {
    PHASES.iter().filter_map(|p| layers.get(p)).sum()
}

/// Per-layer numbers of one traced call, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

fn add(layers: &mut Layers, name: &'static str, value: f64) {
    *layers.entry(name).or_insert(0.0) += value;
}

fn add_ms(layers: &mut Layers, name: &'static str, since: Instant) {
    add(layers, name, ms(since.elapsed()));
}

/// One traced call: the reproduced route outcome, the wall time of the
/// traced execution and its layer split.
pub struct Traced {
    pub run: Run,
    pub wall: Duration,
    pub layers: Layers,
    /// The part of `wall` that named phases account for, in ms.
    pub attributed_ms: f64,
    /// Ratio cut of the route's bipartition — the result itself, or the
    /// top bisection on the k-way route — for the optimality gap.
    pub bipartition_ratio: f64,
}

/// The IG-Match+FM pipeline (`hybrid_pipeline`) step by step: operator
/// build, Lanczos, net ordering, sweep, ratio refinement.
///
/// # Errors
///
/// The pipeline's error, such as a Lanczos solve that did not converge.
fn replay_hybrid(
    hg: &Hypergraph,
    opts: &HybridOptions,
    ctx: &RunContext<'_>,
    layers: &mut Layers,
) -> Result<PartitionResult, PartitionError> {
    let t = Instant::now();
    let q = ctx.intersection_laplacian(hg, opts.ig_match.weighting);
    add_ms(layers, OP_BUILD_MS, t);
    add(layers, OP_NNZ, q.nnz() as f64);

    let before = ctx.meter().matvecs_used();
    let t = Instant::now();
    let pair = fiedler_metered(
        &q.threaded(ctx.threads()),
        &opts.ig_match.lanczos,
        ctx.meter(),
    );
    let order: Option<Vec<NetId>> = pair.as_ref().ok().map(|p| {
        order_by_component(&p.vector)
            .into_iter()
            .map(NetId)
            .collect()
    });
    add_ms(layers, LANCZOS_MS, t);
    add(
        layers,
        MATVECS,
        (ctx.meter().matvecs_used() - before) as f64,
    );
    if let Err(e) = pair {
        if matches!(e, EigenError::NoConvergence { .. }) {
            add(layers, NONCONVERGED, 1.0);
        }
        return Err(e.into());
    }
    let order = order.expect("a solved eigenpair yields an ordering");

    let t = Instant::now();
    ctx.intersection_neighbors(hg);
    add_ms(layers, NEIGHBORS_MS, t);

    let t = Instant::now();
    let ig = ig_match_with_ordering_ctx(hg, &order, opts.ig_match.refine_free_modules, ctx)?;
    add_ms(layers, SWEEP_MS, t);
    add(layers, MOVES, (hg.num_nets() - 1) as f64);

    let t = Instant::now();
    let (partition, stats) = refine_ratio_cut_metered(
        hg,
        &ig.result.partition,
        opts.max_refine_passes,
        ctx.meter(),
    )?;
    add_ms(layers, REFINE_MS, t);
    Ok(PartitionResult {
        partition,
        stats,
        algorithm: "IG-Match+FM",
        split_rank: ig.result.split_rank,
    })
}

/// The flat bisection route, replayed step by step.
///
/// # Errors
///
/// The pipeline's error.
pub fn traced_bisect(hg: &Hypergraph) -> Result<Traced, String> {
    let meter = BudgetMeter::unlimited();
    let mut layers = Layers::new();
    let t = Instant::now();
    let result = replay_hybrid(
        hg,
        &HybridOptions::default(),
        &route_context(&meter),
        &mut layers,
    )
    .map_err(|e| e.to_string())?;
    Ok(Traced {
        wall: t.elapsed(),
        attributed_ms: phases_ms(&layers),
        bipartition_ratio: result.ratio(),
        run: Run {
            outcome: Outcome::Bipartition(result),
            matvecs: meter.matvecs_used(),
        },
        layers,
    })
}

/// What the sink saw: the first stage start and the last stage finish on
/// the caller's context, each with the meter reading, and the result of
/// that last stage.
#[derive(Default)]
struct Probe {
    start: Option<(Instant, u64)>,
    end: Option<(Instant, u64)>,
    result: Option<PartitionResult>,
}

/// A route run under a [`Probe`] sink.
struct Observed<T> {
    output: T,
    /// The route's whole metered spend.
    matvecs: u64,
    wall: Duration,
    /// Milliseconds before, during and after the observed bisection.
    before_ms: f64,
    during_ms: f64,
    after_ms: f64,
    /// Metered spend during the observed bisection.
    during_matvecs: u64,
    /// Its result; `None` when its last stage failed.
    result: Option<PartitionResult>,
}

/// Runs `route` on a fresh context under a [`Probe`] sink.
fn observe<T>(
    route: impl FnOnce(&RunContext<'_>) -> Result<T, PartitionError>,
) -> Result<Observed<T>, String> {
    let meter = BudgetMeter::unlimited();
    let probe = Mutex::new(Probe::default());
    let sink = |e: &StageEvent<'_>| {
        let mut p = probe.lock().expect("no panic while holding the probe");
        let now = (Instant::now(), meter.matvecs_used());
        match e {
            StageEvent::Started { .. } if p.start.is_none() => p.start = Some(now),
            StageEvent::Finished { outcome, .. } => {
                p.end = Some(now);
                p.result = outcome.ok().cloned();
            }
            _ => {}
        }
    };
    let ctx = route_context(&meter).with_events(&sink);
    let t = Instant::now();
    let output = route(&ctx).map_err(|e| e.to_string())?;
    let done = Instant::now();
    drop(ctx);
    let probe = probe
        .into_inner()
        .expect("no panic while holding the probe");
    let (Some((t0, mv0)), Some((t1, mv1))) = (probe.start, probe.end) else {
        return Err("no stage ran on the caller's context".into());
    };
    Ok(Observed {
        output,
        matvecs: meter.matvecs_used(),
        wall: done - t,
        before_ms: ms(t0 - t),
        during_ms: ms(t1 - t0),
        after_ms: ms(done - t1),
        during_matvecs: mv1 - mv0,
        result: probe.result,
    })
}

/// Replays the bisection `seen` observed, step by step on `hg`: the
/// hybrid pipeline and, on a route that falls back to it, FM after a
/// failed pipeline. Adds the steps to
/// `layers` and returns the share of the replay's wall they cover.
///
/// # Errors
///
/// When the replay does not reproduce the observed bisection's result
/// and matvec spend.
fn replay_observed<T>(
    hg: &Hypergraph,
    hybrid: &HybridOptions,
    fm_fallback: bool,
    seen: &Observed<T>,
    layers: &mut Layers,
) -> Result<f64, String> {
    let meter = BudgetMeter::unlimited();
    let ctx = route_context(&meter);
    let start = Instant::now();
    let mut result = replay_hybrid(hg, hybrid, &ctx, layers);
    if fm_fallback && result.is_err() {
        let t = Instant::now();
        result = FmStage::default().partition(hg, &ctx);
        add_ms(layers, FM_FALLBACK_MS, t);
    }
    let replay_ms = ms(start.elapsed());
    if result.ok() != seen.result || meter.matvecs_used() != seen.during_matvecs {
        return Err("the bisection replay differs from the route".into());
    }
    Ok(phases_ms(layers) / replay_ms)
}

/// The k-way route under a [`Probe`] sink, which times its top bisection;
/// the rest — sub-bisections, balance repair, refinement — is one phase.
///
/// # Errors
///
/// The route's error, or a replay that does not reproduce the top
/// bisection.
pub fn traced_kway(hg: &Hypergraph) -> Result<Traced, String> {
    let opts = kway_options();
    let seen = observe(|ctx| kway_partition_ctx(hg, &opts, KwayMethod::Recursive, ctx))?;
    let hybrid = HybridOptions {
        ig_match: opts.ig_match,
        max_refine_passes: opts.max_refine_passes,
        ..Default::default()
    };
    let mut layers = Layers::new();
    let covered = replay_observed(hg, &hybrid, false, &seen, &mut layers)?;
    let top = seen
        .result
        .as_ref()
        .ok_or("the top bisection failed")?
        .ratio();
    add(&mut layers, TOP_BISECT_MS, seen.during_ms);
    add(&mut layers, REST_MS, seen.before_ms + seen.after_ms);
    Ok(Traced {
        attributed_ms: seen.before_ms + seen.during_ms * covered + seen.after_ms,
        bipartition_ratio: top,
        run: Run {
            outcome: Outcome::Kway(seen.output),
            matvecs: seen.matvecs,
        },
        wall: seen.wall,
        layers,
    })
}

/// The coarsest level `build_hierarchy` reaches on `hg` under `opts`, or
/// `hg` itself when it already fits the coarsening target.
///
/// # Errors
///
/// The coarsening error.
pub fn coarsest_level(hg: &Hypergraph, opts: &MultilevelOptions) -> Result<Hypergraph, String> {
    let n = hg.num_modules();
    let hierarchy = build_hierarchy(
        hg,
        &ModuleAreas::uniform(n),
        &FixedModules::free(n),
        opts,
        f64::INFINITY,
        &BudgetMeter::unlimited(),
    )
    .map_err(|e| e.to_string())?;
    Ok(hierarchy
        .levels
        .last()
        .map_or_else(|| hg.clone(), |l| l.coarse.clone()))
}

/// The V-cycle route under a [`Probe`] sink, which times its
/// coarsest-level partition (the only stages on the caller's context):
/// coarsening before it, projection and refinement after it.
///
/// # Errors
///
/// The route's error, or a replay that does not reproduce the
/// coarsest-level partition.
pub fn traced_vcycle(hg: &Hypergraph, opts: &MultilevelOptions) -> Result<Traced, String> {
    let seen = observe(|ctx| multilevel_ctx(hg, opts, ctx))?;
    let coarsest = coarsest_level(hg, opts)?;
    let hybrid = HybridOptions {
        ig_match: opts.ig_match,
        max_refine_passes: opts.flat_refine_passes,
        ..Default::default()
    };
    let mut layers = Layers::new();
    let covered = replay_observed(&coarsest, &hybrid, true, &seen, &mut layers)?;
    add(&mut layers, COARSEN_MS, seen.before_ms);
    add(&mut layers, INITIAL_MS, seen.during_ms);
    add(&mut layers, UNCOARSEN_MS, seen.after_ms);
    add(&mut layers, LEVELS, seen.output.levels as f64);
    add(&mut layers, COARSE_MODULES, coarsest.num_modules() as f64);
    add(&mut layers, COARSE_NETS, coarsest.num_nets() as f64);
    Ok(Traced {
        attributed_ms: seen.before_ms + seen.during_ms * covered + seen.after_ms,
        bipartition_ratio: seen.output.result.ratio(),
        run: Run {
            outcome: Outcome::Bipartition(seen.output.result),
            matvecs: seen.matvecs,
        },
        wall: seen.wall,
        layers,
    })
}
