//! The three np-part routes as closed loops: one client runs the route
//! on every instance of a fixed set, pass after pass, until the next
//! pass would overrun the run's seconds. Every result is checked against an independent recount
//! and against the first pass (the routes are deterministic).

use crate::host::HostSpeed;
use crate::inputs::Instance;
use crate::replay::{self, Layers, Traced, LANCZOS_MS, MATVECS, MOVES, SWEEP_MS};
use crate::stats::{geo, mean_over, median, ms, quantile, SETUP_SAMPLE, SETUP_SAMPLES};
use crate::Metrics;
use ig_match_repro::core::bounds::ratio_cut_lower_bound;
use ig_match_repro::core::engine::{run_stage, RunContext, DEFAULT_SEED};
use ig_match_repro::core::kway::refine::area_cap;
use ig_match_repro::core::kway::{kway_partition_ctx, KwayMethod, KwayOptions, KwayResult};
use ig_match_repro::core::{IgMatchOptions, PartitionError, PartitionResult};
use ig_match_repro::eigen::fiedler_metered;
use ig_match_repro::hybrid::{hybrid_pipeline, HybridOptions};
use ig_match_repro::multilevel::{multilevel_ctx, MultilevelOptions};
use ig_match_repro::netlist::io::parse_hgr;
use ig_match_repro::netlist::{balance_bound, Hypergraph, Side};
use ig_match_repro::sparse::BudgetMeter;
use std::time::Instant;

/// Block count of the k-way route (`np-part --k 8`).
const KWAY_K: usize = 8;
/// Balance slack of the k-way route (`np-part --epsilon 0.1`).
const KWAY_EPSILON: f64 = 0.1;
/// A trace whose named phases cover less of the wall than this share is
/// reported as a violation: its split would no longer explain the time.
const MIN_TRACE_COVERAGE: f64 = 0.95;
/// Passes run even when one pass outlasts a third of the run's seconds,
/// so every per-instance median of the end-to-end metrics rests on at
/// least three calls and a host stall during one call does not move it:
/// with two calls, stalled calls put kway-suite's `p50_ms` up to 26%
/// above its ten-run median. A traced run reports no such median and
/// stops after one pass.
const MIN_PASSES: usize = 3;

/// Which np-part route a batch workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// `np-part --algorithm hybrid`: the flat IG-Match+FM pipeline on one
    /// thread.
    Bisect,
    /// `np-part --k 8 --epsilon 0.1`: recursive bisection on one thread.
    Kway,
    /// `np-part --multilevel`: the V-cycle with default options, on one
    /// thread. At `--threads 2` its sharded Lanczos waits on both vCPUs of
    /// a shared 2-vCPU host at every product: on band-3500 it ran 25%
    /// slower than at one thread, and its wall varied twice as much over
    /// eight minutes (interquartile spread 0.20 against 0.10).
    Vcycle,
}

/// The k-way options `np-part --k 8 --epsilon 0.1` builds.
pub fn kway_options() -> KwayOptions {
    KwayOptions {
        k: KWAY_K,
        epsilon: KWAY_EPSILON,
        ..Default::default()
    }
}

/// The context np-part builds for a single run: its default seed and one
/// kernel thread.
pub fn route_context(meter: &BudgetMeter) -> RunContext<'_> {
    RunContext::with_meter(meter)
        .with_seed(DEFAULT_SEED)
        .with_threads(1)
}

/// A route's result.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// The flat or the V-cycle bipartition.
    Bipartition(PartitionResult),
    Kway(KwayResult),
}

impl Outcome {
    /// The route's objective: the ratio cut, or `Σ external/|V_b|` for
    /// k-way.
    pub fn objective(&self) -> f64 {
        match self {
            Outcome::Bipartition(r) => r.ratio(),
            Outcome::Kway(r) => r.stats.ratio(),
        }
    }
}

/// A route's result plus its metered spend; two runs reproduce each other
/// when both match exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    pub outcome: Outcome,
    pub matvecs: u64,
}

/// Runs `route` on `hg` the way np-part does.
///
/// # Errors
///
/// The route's error.
pub fn run_route(route: Route, hg: &Hypergraph) -> Result<Run, PartitionError> {
    let meter = BudgetMeter::unlimited();
    let ctx = route_context(&meter);
    let outcome = match route {
        Route::Bisect => Outcome::Bipartition(run_stage(
            &hybrid_pipeline(&HybridOptions::default()),
            hg,
            None,
            &ctx,
        )?),
        Route::Kway => Outcome::Kway(kway_partition_ctx(
            hg,
            &kway_options(),
            KwayMethod::Recursive,
            &ctx,
        )?),
        Route::Vcycle => {
            Outcome::Bipartition(multilevel_ctx(hg, &MultilevelOptions::default(), &ctx)?.result)
        }
    };
    Ok(Run {
        outcome,
        matvecs: meter.matvecs_used(),
    })
}

/// Runs the traced form of `route` on `hg`.
///
/// # Errors
///
/// The route's error, or a replay that does not reproduce it.
pub fn traced(route: Route, hg: &Hypergraph) -> Result<Traced, String> {
    match route {
        Route::Bisect => replay::traced_bisect(hg),
        Route::Kway => replay::traced_kway(hg),
        Route::Vcycle => replay::traced_vcycle(hg, &MultilevelOptions::default()),
    }
}

/// Checks a route's result against a brute-force recount that shares no
/// code with the library's trackers, plus the k-way balance bound and a
/// non-zero objective.
///
/// # Errors
///
/// A description of the first violated condition.
pub fn check(hg: &Hypergraph, outcome: &Outcome) -> Result<(), String> {
    let n = hg.num_modules();
    match outcome {
        Outcome::Bipartition(r) => {
            let labels: Vec<u32> = r
                .partition
                .sides()
                .iter()
                .map(|&s| u32::from(s == Side::Right))
                .collect();
            if labels.len() != n {
                return Err(format!("partition covers {} of {n} modules", labels.len()));
            }
            let (cut, _) = np_testkit::kway_reference_externals(hg, &labels, 2);
            let right = labels.iter().filter(|&&l| l == 1).count();
            if (cut, n - right, right) != (r.stats.cut_nets, r.stats.left, r.stats.right) {
                return Err(format!(
                    "reported {:?}, recount cut={cut} right={right}",
                    r.stats
                ));
            }
        }
        Outcome::Kway(r) => {
            let labels = r.partition.labels();
            if labels.len() != n || r.partition.num_blocks() != KWAY_K {
                return Err("k-way partition has the wrong shape".into());
            }
            let (cut, external) = np_testkit::kway_reference_externals(hg, labels, KWAY_K);
            let mut sizes = vec![0usize; KWAY_K];
            for &l in labels {
                sizes[l as usize] += 1;
            }
            if cut != r.stats.cut_nets
                || external != r.stats.external
                || sizes != r.stats.block_sizes
            {
                return Err("reported k-way stats differ from the recount".into());
            }
            let cap = area_cap(balance_bound(n as f64, KWAY_K, KWAY_EPSILON));
            if sizes.iter().any(|&s| s == 0 || s as f64 > cap) {
                return Err(format!(
                    "block sizes {sizes:?} break the balance bound {cap:.1}"
                ));
            }
        }
    }
    let objective = outcome.objective();
    if !(objective.is_finite() && objective > 0.0) {
        return Err(format!("degenerate objective {objective}"));
    }
    Ok(())
}

/// Parses every input over and over for at least [`SETUP_SAMPLE`];
/// returns the parsed netlists and the mean seconds one parse of every
/// input took.
fn parse_all(instances: &[Instance]) -> Result<(Vec<Hypergraph>, f64), String> {
    mean_over(SETUP_SAMPLE, || {
        let t = Instant::now();
        let parsed = instances
            .iter()
            .map(|i| parse_hgr(&i.hgr).map_err(|e| format!("{}: {e}", i.name)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((parsed, t.elapsed()))
    })
}

/// Times a third of the set-up samples into `setup`; returns the parsed
/// netlists. A run takes one such group before each of its first
/// [`MIN_PASSES`] passes: the host slows down for seconds at a time, and
/// when every sample fell into one such stretch a run's `setup_s` came
/// out 1.7x its usual value.
fn sample_setup(instances: &[Instance], setup: &mut Vec<f64>) -> Result<Vec<Hypergraph>, String> {
    let mut hgs = Vec::new();
    for _ in 0..SETUP_SAMPLES / MIN_PASSES {
        let (parsed, secs) = parse_all(instances)?;
        setup.push(secs);
        hgs = parsed;
    }
    Ok(hgs)
}

/// Per-instance record of the measured passes.
#[derive(Default)]
struct Record {
    times_ms: Vec<f64>,
    first: Option<Run>,
    traced: Vec<Traced>,
}

/// Runs a batch workload for about `seconds` and returns its metrics:
/// the end-to-end ones, at the reference host speed, or with `trace` the
/// per-layer ones, as measured.
///
/// # Errors
///
/// When an input fails to parse or an instance never produced a result.
pub fn run(
    route: Route,
    instances: &[Instance],
    seconds: f64,
    trace: bool,
) -> Result<Metrics, String> {
    let mut host = HostSpeed::new();
    let mut setup = Vec::new();
    let hgs = sample_setup(instances, &mut setup)?;
    let mut out = Metrics::default();
    let mut records: Vec<Record> = instances.iter().map(|_| Record::default()).collect();
    let start = Instant::now();
    let mut passes = 0;
    loop {
        if (1..MIN_PASSES).contains(&passes) {
            sample_setup(instances, &mut setup)?;
        }
        let pass_start = Instant::now();
        for ((inst, hg), rec) in instances.iter().zip(&hgs).zip(&mut records) {
            out.attempted += 1;
            host.sample();
            let t = Instant::now();
            let result = run_route(route, hg);
            let elapsed = t.elapsed();
            let run = match result {
                Ok(run) => run,
                Err(e) => {
                    out.fail(format!("{}: route failed: {e}", inst.name));
                    continue;
                }
            };
            if let Err(e) = check(hg, &run.outcome) {
                out.violate(format!("{}: {e}", inst.name));
                continue;
            }
            match &rec.first {
                Some(first) if *first != run => {
                    out.violate(format!("{}: pass {passes} differs from pass 0", inst.name));
                    continue;
                }
                Some(_) => {}
                None => rec.first = Some(run.clone()),
            }
            rec.times_ms.push(ms(elapsed));
            if trace {
                match traced(route, hg) {
                    Ok(t) if t.run == run => rec.traced.push(t),
                    Ok(_) => out.violate(format!(
                        "{}: traced replay differs from the route",
                        inst.name
                    )),
                    Err(e) => out.violate(format!("{}: traced replay failed: {e}", inst.name)),
                }
            }
        }
        passes += 1;
        let next_pass_ends = start.elapsed() + pass_start.elapsed();
        let enough = passes >= if trace { 1 } else { MIN_PASSES };
        if enough && next_pass_ends > std::time::Duration::from_secs_f64(seconds) {
            break;
        }
    }

    let mut instance_ms = Vec::new();
    let mut objectives = Vec::new();
    for (inst, rec) in instances.iter().zip(&records) {
        let (Some(t), Some(first)) = (median(&rec.times_ms), &rec.first) else {
            return Err(format!("{}: no pass produced a checked result", inst.name));
        };
        eprintln!(
            "{:>12}: {:>9.1} ms median of {} | objective {:.6e} | {} matvecs",
            inst.name,
            t,
            rec.times_ms.len(),
            first.outcome.objective(),
            first.matvecs
        );
        instance_ms.push(t);
        objectives.push(first.outcome.objective());
    }
    let calls: usize = records.iter().map(|r| r.times_ms.len()).sum();
    let wall_ms: f64 = instance_ms.iter().sum();
    eprintln!("{passes} passes, {calls} calls, pass wall {wall_ms:.1} ms");

    if !trace {
        let scale = host.scale()?;
        out.set("setup_s", median(&setup).expect("set-up ran") * scale);
        out.set("wall_s", wall_ms / 1e3 * scale);
        // quantiles over the fixed instance set, one median latency per
        // instance: over raw calls a quantile lands on whichever
        // instance's block of repeats straddles its rank, and jumps
        // between instances as the repeat count changes
        out.set(
            "p50_ms",
            quantile(&instance_ms, 0.5).expect("instances ran") * scale,
        );
        out.set(
            "p90_ms",
            quantile(&instance_ms, 0.9).expect("instances ran") * scale,
        );
        out.set(
            "objective_geo",
            geo(&objectives).ok_or("degenerate objective")?,
        );
        return Ok(out);
    }

    // per-layer totals of one pass: per instance the median over traced
    // calls, summed over instances
    let mut layers = Layers::new();
    let mut traced_ms = 0.0;
    let mut attributed_ms = 0.0;
    for (inst, rec) in instances.iter().zip(&records) {
        if rec.traced.is_empty() {
            continue;
        }
        let mut names: Vec<&'static str> = rec
            .traced
            .iter()
            .flat_map(|t| t.layers.keys().copied())
            .collect();
        names.sort_unstable();
        names.dedup();
        let mut split = Vec::new();
        for name in names {
            let values: Vec<f64> = rec
                .traced
                .iter()
                .map(|t| t.layers.get(name).copied().unwrap_or(0.0))
                .collect();
            let value = median(&values).expect("non-empty");
            *layers.entry(name).or_insert(0.0) += value;
            if name.ends_with("_ms") {
                split.push(format!("{name} {value:.1}"));
            }
        }
        let walls: Vec<f64> = rec.traced.iter().map(|t| ms(t.wall)).collect();
        let wall = median(&walls).expect("non-empty");
        let covered: Vec<f64> = rec.traced.iter().map(|t| t.attributed_ms).collect();
        traced_ms += wall;
        attributed_ms += median(&covered).expect("non-empty");
        eprintln!(
            "{:>12}: traced {wall:.1} ms | {}",
            inst.name,
            split.join(" + ")
        );
    }
    for (name, value) in &layers {
        out.set(name, *value);
    }
    let per_s = |count: &str, time_ms: &str| {
        let t = layers.get(time_ms).copied().unwrap_or(0.0);
        if t > 0.0 {
            layers.get(count).copied().unwrap_or(0.0) / (t / 1e3)
        } else {
            0.0
        }
    };
    out.set("eigen.matvecs_per_s", per_s(MATVECS, LANCZOS_MS));
    out.set("igmatch.moves_per_s", per_s(MOVES, SWEEP_MS));
    out.set(
        "netlist.parse_ms",
        median(&setup).expect("set-up ran") * 1e3,
    );
    out.set(
        "host.reference_ms",
        host.median_ms().ok_or("the host speed was never sampled")?,
    );
    if traced_ms > 0.0 {
        let unattributed = 1.0 - attributed_ms / traced_ms;
        if unattributed > 1.0 - MIN_TRACE_COVERAGE {
            out.violate(format!(
                "named phases leave {unattributed:.3} of the traced wall unattributed"
            ));
        }
        out.set("trace.unattributed_share", unattributed);
        out.set("trace.overhead_share", traced_ms / wall_ms - 1.0);
    }
    let gaps: Vec<f64> = hgs
        .iter()
        .zip(&records)
        .filter_map(|(hg, rec)| {
            let ratio = rec.traced.first()?.bipartition_ratio;
            let bound = ratio_cut_lower_bound(hg, &IgMatchOptions::default().lanczos).ok()?;
            (bound.bound > 0.0).then(|| ratio / bound.bound)
        })
        .collect();
    out.set("bounds.gap_geo", geo(&gaps).unwrap_or(0.0));
    match shard_speedup(route, &hgs) {
        Ok(s) => out.set("sparse.shard_speedup", s),
        Err(e) => out.violate(e),
    }
    Ok(out)
}

/// One Lanczos solve at 1 and at 2 threads on the same operator — the
/// intersection Laplacian of the largest input, or of the coarsest level
/// of the first input on the V-cycle route — as the ratio of their
/// median wall times. The sharded solve must be bit-identical.
fn shard_speedup(route: Route, hgs: &[Hypergraph]) -> Result<f64, String> {
    let probe = match route {
        Route::Vcycle => replay::coarsest_level(&hgs[0], &MultilevelOptions::default())?,
        Route::Bisect | Route::Kway => hgs
            .iter()
            .max_by_key(|h| h.num_nets())
            .expect("workloads have inputs")
            .clone(),
    };
    let opts = IgMatchOptions::default();
    let q = RunContext::unlimited().intersection_laplacian(&probe, opts.weighting);
    let mut times: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut reference: Option<Vec<f64>> = None;
    for _ in 0..3 {
        for (slot, threads) in [1, 2].into_iter().enumerate() {
            let t = Instant::now();
            let pair = fiedler_metered(
                &q.threaded(threads),
                &opts.lanczos,
                &BudgetMeter::unlimited(),
            )
            .map_err(|e| format!("shard probe: {e}"))?;
            times[slot].push(ms(t.elapsed()));
            match &reference {
                Some(v) if *v != pair.vector => {
                    return Err("sharded Lanczos is not bit-identical to serial".into())
                }
                Some(_) => {}
                None => reference = Some(pair.vector),
            }
        }
    }
    Ok(median(&times[0]).expect("timed") / median(&times[1]).expect("timed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ig_match_repro::netlist::generate::{generate, GeneratorConfig};

    fn circuit(n: usize, seed: u64) -> Hypergraph {
        generate(&GeneratorConfig::new(n, n * 11 / 10, seed))
    }

    #[test]
    fn bisect_replay_is_bit_identical() {
        for seed in [3, 4] {
            let hg = circuit(300, seed);
            let route = run_route(Route::Bisect, &hg).unwrap();
            let t = traced(Route::Bisect, &hg).unwrap();
            assert_eq!(t.run, route);
            assert!(t.layers[SWEEP_MS] > 0.0 && t.layers[MATVECS] > 0.0);
            check(&hg, &route.outcome).unwrap();
        }
    }

    #[test]
    fn kway_replay_is_bit_identical() {
        let hg = circuit(400, 5);
        let route = run_route(Route::Kway, &hg).unwrap();
        let t = traced(Route::Kway, &hg).unwrap();
        assert_eq!(t.run, route);
        assert!(t.layers[replay::TOP_BISECT_MS] > 0.0);
        check(&hg, &route.outcome).unwrap();
    }

    fn small_vcycle(target: usize) -> MultilevelOptions {
        MultilevelOptions {
            coarsen_target: target,
            ..Default::default()
        }
    }

    /// The V-cycle route under `opts`, as `run_route` runs the default.
    fn vcycle_run(hg: &Hypergraph, opts: &MultilevelOptions) -> Run {
        let meter = BudgetMeter::unlimited();
        let ctx = route_context(&meter);
        Run {
            outcome: Outcome::Bipartition(multilevel_ctx(hg, opts, &ctx).unwrap().result),
            matvecs: meter.matvecs_used(),
        }
    }

    #[test]
    fn vcycle_replay_is_bit_identical() {
        let hg = circuit(600, 6);
        for opts in [small_vcycle(80), small_vcycle(10_000)] {
            let t = replay::traced_vcycle(&hg, &opts).unwrap();
            assert_eq!(t.run, vcycle_run(&hg, &opts));
            assert!(t.layers[replay::INITIAL_MS] > 0.0 && t.layers[SWEEP_MS] > 0.0);
        }
    }

    #[test]
    fn vcycle_replay_follows_the_fm_fallback() {
        // a Lanczos allowance too small to converge sends the coarsest
        // level down the FallbackChain to plain FM
        let hg = crate::inputs::connected_band(2, 700, 770, 16).unwrap();
        let mut opts = small_vcycle(200);
        opts.ig_match.lanczos.max_restarts = 0;
        opts.ig_match.lanczos.max_basis = 4;
        let t = replay::traced_vcycle(&hg, &opts).unwrap();
        assert_eq!(t.run, vcycle_run(&hg, &opts));
        assert_eq!(t.layers[replay::NONCONVERGED], 1.0);
        assert!(t.layers.contains_key(replay::FM_FALLBACK_MS));
    }

    #[test]
    fn check_catches_a_misreported_cut() {
        let hg = circuit(200, 7);
        let mut run = run_route(Route::Bisect, &hg).unwrap();
        check(&hg, &run.outcome).unwrap();
        if let Outcome::Bipartition(r) = &mut run.outcome {
            r.stats.cut_nets += 1;
        }
        assert!(check(&hg, &run.outcome).is_err());
    }
}
