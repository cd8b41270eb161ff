//! The differential test matrix (DESIGN.md, "Differential contracts").
//!
//! A *cell* runs one route — the algorithm table's stages, the
//! k-way route, a V-cycle, a portfolio or an np-serve request — on one
//! generated instance, at one thread count, under one [`Meter`]. A *row*
//! pairs two cells under one contract and is one `#[test]`:
//!
//! * [`identical`] — the same labels, the same reported statistics and
//!   the same metered spend, or the same error variant at the same spend;
//! * [`no_worse`] — an objective no worse than the oracle's.
//!
//! This file holds the rows no other root suite checks: portfolio and
//! served-request equivalence, the k-way V-cycle's flat oracle, the
//! budget edges of every route, and the operator cache with its
//! IG-Match memo. The table in DESIGN.md names the suite
//! test that checks each other pair (thread invariance, plain vs context
//! vs stage forms, the sweep, k = 2, the flat V-cycle, the brute-force
//! recount), so every pair is checked once. The
//! `np_testkit` recount shares no code with the incremental trackers.
//! Release CI runs this file with `RUST_TEST_THREADS=1`, so the kernels'
//! shard threads are the only parallelism in play.

use ig_match_repro::core::engine::stages::{IgMatchStage, RcutStage};
use ig_match_repro::core::engine::{run_stage, OperatorCache, DEFAULT_SEED};
use ig_match_repro::core::kway::{kway_partition_ctx, KwayMethod, KwayOptions, KwayResult};
use ig_match_repro::core::ordering::spectral_module_ordering_ctx;
use ig_match_repro::eigen::LanczosOptions;
use ig_match_repro::multilevel::{MultilevelKwayOutcome, MultilevelOutcome};
use ig_match_repro::netlist::generate::{generate, mcnc_benchmark, GeneratorConfig};
use ig_match_repro::netlist::hypergraph_from_nets;
use ig_match_repro::netlist::io::to_hgr_string;
use ig_match_repro::netlist::rng::derive_seed;
use ig_match_repro::netlist::FixedModules;
use ig_match_repro::runner::{Algorithm, PortfolioEvent};
use ig_match_repro::{
    multilevel_ctx, multilevel_kway_ctx, run_portfolio, Bipartition, Budget, BudgetMeter,
    Hypergraph, IgMatchOptions, ModuleId, MultilevelOptions, PartitionError, PartitionResult,
    Portfolio, PortfolioOptions, PortfolioOutcome, RcutOptions, RunContext, Side, StageEvent,
};
use np_serve::json::{self, Value};
use np_serve::{ServeConfig, Service};
use np_testkit::{
    banded_hypergraph, check_cases, hierarchical_hypergraph, kway_reference_cut,
    kway_reference_externals, small_hypergraph,
};
use std::mem::discriminant;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The thread counts of every per-thread-count row. Thread-invariance
/// rows compare a first 1-thread run against a run at each count, the
/// second 1-thread run checking run-to-run determinism.
const THREADS: [usize; 3] = [1, 2, 8];

// ---------------------------------------------------------------- cells

/// What a cell produced, reduced to what the contracts compare.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    /// One block index per module.
    labels: Vec<u32>,
    /// Everything else the route reports, bit-exact: `{:?}` of a float
    /// round-trips its bits.
    report: String,
    /// Matvec-equivalents the cell's meter recorded; `None` for results
    /// that carry no meter.
    spend: Option<u64>,
}

/// A cell's failure: the error and the matvec-equivalents its meter
/// recorded.
#[derive(Clone, Debug)]
struct Failure {
    error: PartitionError,
    spend: Option<u64>,
}

/// A cell's result: an outcome, or the failure it ended in.
type Run = Result<Outcome, Failure>;

/// A route's result as the budget rows drive it, before its spend is
/// attached.
type Routed = Result<Outcome, PartitionError>;

impl Outcome {
    fn new(labels: Vec<u32>, report: String) -> Self {
        Outcome {
            labels,
            report,
            spend: None,
        }
    }
}

/// The budget a cell runs under.
#[derive(Clone, Copy, Debug)]
enum Meter {
    Unlimited,
    /// A matvec cap.
    Matvecs(u64),
    /// A wall clock spent before the route starts.
    ZeroClock,
    /// Unlimited, but the event sink cancels the run at the first stage
    /// start.
    CancelAtFirstStart,
}

/// Runs `route` in a context at `threads` under `meter`; returns the
/// route's result and the meter (spend, cancel flag).
fn cell<T>(
    threads: usize,
    meter: Meter,
    route: impl FnOnce(&RunContext<'_>) -> Result<T, PartitionError>,
) -> (Result<T, PartitionError>, BudgetMeter) {
    cell_on(&Arc::default(), threads, meter, route)
}

/// [`cell`] on a caller's operator cache.
fn cell_on<T>(
    operators: &Arc<OperatorCache>,
    threads: usize,
    meter: Meter,
    route: impl FnOnce(&RunContext<'_>) -> Result<T, PartitionError>,
) -> (Result<T, PartitionError>, BudgetMeter) {
    let budget = match meter {
        Meter::Matvecs(cap) => Budget::default().with_matvecs(cap),
        Meter::ZeroClock => Budget::default().with_wall_clock(Duration::ZERO),
        Meter::Unlimited | Meter::CancelAtFirstStart => Budget::default(),
    };
    let m = BudgetMeter::new(&budget);
    let cancel = |e: &StageEvent<'_>| {
        if matches!(e, StageEvent::Started { .. }) {
            m.cancel();
        }
    };
    let ctx = RunContext::with_meter(&m)
        .with_threads(threads)
        .with_operator_cache(Arc::clone(operators));
    let ctx = match meter {
        Meter::CancelAtFirstStart => ctx.with_events(&cancel),
        _ => ctx,
    };
    (route(&ctx), m.clone())
}

/// `result` under `view`, carrying `spend` on either side.
fn metered<T>(
    result: Result<T, PartitionError>,
    spend: u64,
    view: impl FnOnce(&T) -> Outcome,
) -> Run {
    match result {
        Ok(r) => Ok(Outcome {
            spend: Some(spend),
            ..view(&r)
        }),
        Err(error) => Err(Failure {
            error,
            spend: Some(spend),
        }),
    }
}

/// [`cell`] under `view`, with its metered spend.
fn run<T>(
    threads: usize,
    meter: Meter,
    route: impl FnOnce(&RunContext<'_>) -> Result<T, PartitionError>,
    view: impl FnOnce(&T) -> Outcome,
) -> Run {
    run_on(&Arc::default(), threads, meter, route, view)
}

/// [`run`] on a caller's operator cache.
fn run_on<T>(
    operators: &Arc<OperatorCache>,
    threads: usize,
    meter: Meter,
    route: impl FnOnce(&RunContext<'_>) -> Result<T, PartitionError>,
    view: impl FnOnce(&T) -> Outcome,
) -> Run {
    let (result, m) = cell_on(operators, threads, meter, route);
    metered(result, m.matvecs_used(), view)
}

/// Runs `portfolio` as a route: the context's thread count, the
/// context's meter as the global scope, stage starts forwarded to the
/// context's sink.
fn portfolio_route(
    hg: &Hypergraph,
    portfolio: &Portfolio,
    ctx: &RunContext<'_>,
) -> Result<PortfolioOutcome, PartitionError> {
    let forward = |e: &PortfolioEvent<'_>| {
        if let StageEvent::Started { stage } = e.event {
            ctx.emit(StageEvent::Started { stage });
        }
    };
    let opts = PortfolioOptions::default().with_threads(ctx.threads());
    run_portfolio(hg, portfolio, &opts, ctx.meter(), Some(&forward)).map_err(|e| e.error)
}

// ---------------------------------------------------------------- views

fn sides(p: &Bipartition) -> Vec<u32> {
    p.sides()
        .iter()
        .map(|&s| (s == Side::Right) as u32)
        .collect()
}

/// A bipartition result: labels, statistics, producer and split rank.
fn bisection(r: &PartitionResult) -> Outcome {
    let report = format!("{:?} {} {:?}", r.stats, r.algorithm, r.split_rank);
    Outcome::new(sides(&r.partition), report)
}

/// A portfolio outcome: the winner and the whole report, less the
/// timing fields and the effective thread count.
fn portfolio(o: &PortfolioOutcome) -> Outcome {
    let mut report = o.report.clone();
    report.wall = Duration::ZERO;
    report.threads = 0;
    for a in &mut report.attempts {
        a.wall = Duration::ZERO;
    }
    let mut out = bisection(&o.best);
    out.report += &format!(" winner {} {report:?}", o.winner);
    out
}

/// A partition as the brute-force recount sees it: labels, cut, block
/// sizes and per-block external nets.
fn cut_view(labels: Vec<u32>, cut: usize, sizes: &[usize], external: &[usize]) -> Outcome {
    let report = format!("cut {cut} sizes {sizes:?} external {external:?}");
    Outcome::new(labels, report)
}

/// A bipartition's reported cut; each cut net is external to both sides.
fn bisection_cut(r: &PartitionResult) -> Outcome {
    let s = r.stats;
    let sizes = [s.left, s.right];
    cut_view(sides(&r.partition), s.cut_nets, &sizes, &[s.cut_nets; 2])
}

/// A k-way result: labels, statistics and producer.
fn kway(r: &KwayResult) -> Outcome {
    let report = format!("{:?} {}", r.stats, r.algorithm);
    Outcome::new(r.partition.labels().to_vec(), report)
}

/// A k-way result's reported cut.
fn kway_cut(r: &KwayResult) -> Outcome {
    let s = &r.stats;
    let labels = r.partition.labels().to_vec();
    cut_view(labels, s.cut_nets, &s.block_sizes, &s.external)
}

/// The oracle side of a recount: `o`'s labels re-scored from scratch by
/// `np_testkit`, carrying `o`'s spend.
fn recount(hg: &Hypergraph, o: &Outcome) -> Outcome {
    let k = o.labels.iter().max().map_or(2, |&b| b as usize + 1).max(2);
    let mut sizes = vec![0usize; k];
    for &b in &o.labels {
        sizes[b as usize] += 1;
    }
    let (_, external) = kway_reference_externals(hg, &o.labels, k);
    let cut = kway_reference_cut(hg, &o.labels);
    Outcome {
        spend: o.spend,
        ..cut_view(o.labels.clone(), cut, &sizes, &external)
    }
}

/// The recount contract on one outcome: its report matches the
/// brute-force recount of its labels.
fn recounted(hg: &Hypergraph, o: &Outcome) -> Result<(), String> {
    identical(&Ok(o.clone()), &Ok(recount(hg, o)))
}

// ------------------------------------------------------------ contracts

/// The "identical" contract: the same labels and report, or the same
/// error variant, each at the same spend (when both cells were metered).
/// `Err` names the first mismatch.
fn identical(a: &Run, b: &Run) -> Result<(), String> {
    let (p, q) = match (a, b) {
        (Ok(x), Ok(y)) => {
            let len = x.labels.len().max(y.labels.len());
            if let Some(i) = (0..len).find(|&i| x.labels.get(i) != y.labels.get(i)) {
                return Err(format!("labels differ at {i} of {len}"));
            }
            if x.report != y.report {
                return Err(format!("reports differ: {} | {}", x.report, y.report));
            }
            (x.spend, y.spend)
        }
        (Err(x), Err(y)) if discriminant(&x.error) == discriminant(&y.error) => (x.spend, y.spend),
        (x, y) => {
            return Err(format!(
                "{:?} vs {:?}",
                x.as_ref().map(|o| &o.report),
                y.as_ref().map(|o| &o.report)
            ))
        }
    };
    match (p, q) {
        (Some(p), Some(q)) if p != q => Err(format!("spend differs: {p} vs {q}")),
        _ => Ok(()),
    }
}

/// The "no worse" contract: `value` does not exceed the oracle's
/// objective (lower is better).
fn no_worse(value: f64, oracle: f64) -> Result<(), String> {
    if value <= oracle + 1e-9 {
        Ok(())
    } else {
        Err(format!("{value} is worse than the oracle's {oracle}"))
    }
}

/// Panics with `what` when a contract check failed.
#[track_caller]
fn holds(check: Result<(), String>, what: impl std::fmt::Display) {
    if let Err(e) = check {
        panic!("{what}: {e}");
    }
}

// ------------------------------------------------------------ instances

fn two_triangles() -> Hypergraph {
    let nets = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]];
    hypergraph_from_nets(6, &nets.map(|n| n.to_vec()))
}

fn vcycle_opts(coarsen_target: usize, refine_passes: usize) -> MultilevelOptions {
    MultilevelOptions {
        coarsen_target,
        refine_passes,
        ..Default::default()
    }
}

fn kway_opts(k: usize, epsilon: f64) -> KwayOptions {
    KwayOptions {
        k,
        epsilon,
        ..Default::default()
    }
}

// ------------------------------------------------ portfolios and serving

/// Checks `route` at every count of [`THREADS`] against a first
/// 1-thread run; a failure must be thread-invariant too.
fn thread_invariant<T>(
    name: &str,
    route: impl Fn(&RunContext<'_>) -> Result<T, PartitionError>,
    view: impl Fn(&T) -> Outcome,
) {
    let reference = run(1, Meter::Unlimited, &route, &view);
    for threads in THREADS {
        let other = run(threads, Meter::Unlimited, &route, &view);
        holds(
            identical(&reference, &other),
            format!("{name} at {threads} threads"),
        );
    }
}

#[test]
fn the_portfolio_winner_and_report_at_1_thread_match_2_and_8() {
    check_cases(24, 0x0DAC_5EED, |g| {
        let hg = small_hypergraph(g);
        let seed = g.rng().next_u64();
        let mut mixed = Portfolio::new().attempt("IG-Match", IgMatchStage::default());
        for i in 0..3 {
            let rc = RcutOptions {
                runs: 1,
                seed: derive_seed(seed, i),
                ..RcutOptions::default()
            };
            mixed = mixed.attempt(format!("RCut#{i}"), RcutStage::new(rc));
        }
        let route = |c: &RunContext<'_>| portfolio_route(&hg, &mixed, c);
        thread_invariant("mixed portfolio", route, portfolio);
    });
    check_cases(16, 0xF00D_F00D, |g| {
        let hg = small_hypergraph(g);
        let restarts = Algorithm::Fm.portfolio(IgMatchOptions::default(), 6, 11);
        let route = |c: &RunContext<'_>| portfolio_route(&hg, &restarts, c);
        thread_invariant("FM restarts", route, portfolio);
    });
}

#[test]
fn a_served_request_answers_the_library_portfolio() {
    // the service and np-part build their attempts from one table, so a
    // request's main tier is the library portfolio on the same seed; the
    // instance is the np-serve tests' `small_hgr` netlist
    let hg = banded_hypergraph(7, 48, 64, 6);
    let hgr = json::escape(&to_hgr_string(&hg));
    let seed = derive_seed(7, 0);
    let mut oracle_positive = false;
    for name in ["auto", "igmatch", "igvote", "eig1", "rcut", "fm", "kl"] {
        let algorithm = Algorithm::from_name(name).unwrap_or(Algorithm::IgMatch);
        let attempts = algorithm.portfolio(IgMatchOptions::default(), 3, seed);
        let (library, _) = cell(1, Meter::Unlimited, |c| portfolio_route(&hg, &attempts, c));
        let best = library.expect("the library portfolio partitions").best;
        oracle_positive |= best.ratio() > 0.0;

        let svc = Service::new(ServeConfig::default());
        let frames = Mutex::new(Vec::new());
        let line =
            format!(r#"{{"id":"{name}","hgr":{hgr},"algo":"{name}","restarts":3,"seed":7}}"#);
        svc.handle_line(&line, &|f: &str| frames.lock().unwrap().push(f.to_string()));
        let frames = frames.into_inner().unwrap();
        assert_eq!(frames.len(), 1, "{name}: {frames:?}");
        let doc = json::parse(&frames[0]).unwrap();
        let digits = doc
            .get("partition")
            .and_then(Value::as_str)
            .unwrap_or_default();
        let served = Outcome::new(
            digits.bytes().map(|b| (b - b'0') as u32).collect(),
            format!("cut {:?}", doc.get("cut").and_then(Value::as_u64)),
        );
        match doc.get("tier").and_then(Value::as_str) {
            Some("portfolio") => {
                let library = Outcome::new(
                    sides(&best.partition),
                    format!("cut {:?}", Some(best.stats.cut_nets as u64)),
                );
                holds(identical(&Ok(served), &Ok(library)), name);
            }
            // the insurance answer only stands by beating the portfolio
            Some("insurance") => {
                let ratio = doc.get("ratio").and_then(Value::as_f64).unwrap();
                holds(no_worse(ratio, best.ratio()), name);
            }
            other => panic!("{name}: unexpected tier {other:?} in {frames:?}"),
        }
    }
    assert!(oracle_positive, "every library ratio was zero");
}

// ------------------------------------------------------ the flat oracle

/// With `coarsen_target ≥ n` the k-way V-cycle builds no level and
/// partitions the input with the flat k-way route, on the caller's
/// context: the same labels, report and spend at every thread count,
/// with and without pins. The coarsest level takes its IG-Match options
/// from `MultilevelOptions::ig_match`, so both sides get the same ones
/// (on a seed other than the default).
#[test]
fn a_kway_vcycle_with_no_levels_is_the_flat_kway_route() {
    let hg = generate(&GeneratorConfig::new(150, 160, 5));
    let mut ig = IgMatchOptions::default();
    ig.lanczos.seed = derive_seed(DEFAULT_SEED, 1);
    for k in [3, 4] {
        let mut pins = FixedModules::free(hg.num_modules());
        for b in 0..k {
            pins.pin(ModuleId(7 * b as u32), k - 1 - b);
        }
        for fixed in [None, Some(pins)] {
            let pinned = fixed.is_some();
            let kopts = KwayOptions {
                fixed,
                ig_match: ig,
                ..kway_opts(k, 0.5)
            };
            let mopts = MultilevelOptions {
                coarsen_target: hg.num_modules(),
                ig_match: ig,
                ..Default::default()
            };
            let flat =
                |c: &RunContext<'_>| kway_partition_ctx(&hg, &kopts, KwayMethod::Recursive, c);
            let oracle = run(1, Meter::Unlimited, flat, kway);
            assert!(oracle.is_ok(), "k = {k}: {oracle:?}");
            let vcycle = |c: &RunContext<'_>| multilevel_kway_ctx(&hg, &kopts, &mopts, c);
            let view = |o: &MultilevelKwayOutcome| {
                assert_eq!(o.levels, 0, "a target of n builds no level");
                kway(&o.result)
            };
            for threads in THREADS {
                holds(
                    identical(&oracle, &run(threads, Meter::Unlimited, vcycle, view)),
                    format!("k = {k}, pinned {pinned}, at {threads} threads"),
                );
            }
        }
    }
}

// ---------------------------------------------------------- budget edges

/// A route as the budget rows drive it.
type Route<'a> = Box<dyn Fn(&RunContext<'_>) -> Routed + 'a>;

/// Every route of the workspace on `hg`, viewed as the recount sees it:
/// the algorithm table's stages, the k-way route, both V-cycles and a
/// portfolio.
fn every_route(hg: &Hypergraph) -> Vec<(&'static str, Route<'_>)> {
    let ig = IgMatchOptions::default();
    let mut routes: Vec<(&'static str, Route<'_>)> = Vec::new();
    for a in Algorithm::ALL {
        let stage = a.stage(ig);
        let route = move |c: &RunContext<'_>| run_stage(stage.as_ref(), hg, None, c);
        routes.push((
            a.name(),
            Box::new(move |c| route(c).map(|r| bisection_cut(&r))),
        ));
    }
    let (k, mopts) = (|| kway_opts(4, 0.5), vcycle_opts(16, 4));
    let kway = move |c: &RunContext<'_>| kway_partition_ctx(hg, &k(), KwayMethod::Recursive, c);
    routes.push(("kway", Box::new(move |c| kway(c).map(|r| kway_cut(&r)))));
    let vcycle = move |c: &RunContext<'_>| multilevel_ctx(hg, &mopts, c);
    let vcycle_view = |o: MultilevelOutcome| bisection_cut(&o.result);
    routes.push(("V-cycle", Box::new(move |c| vcycle(c).map(vcycle_view))));
    let kway_vcycle = move |c: &RunContext<'_>| multilevel_kway_ctx(hg, &k(), &mopts, c);
    let kway_vcycle_view = |o: MultilevelKwayOutcome| kway_cut(&o.result);
    routes.push((
        "k-way V-cycle",
        Box::new(move |c| kway_vcycle(c).map(kway_vcycle_view)),
    ));
    let attempts = Algorithm::IgMatch.portfolio(ig, 3, DEFAULT_SEED);
    let portfolio = move |c: &RunContext<'_>| portfolio_route(hg, &attempts, c);
    let portfolio_view = |o: PortfolioOutcome| bisection_cut(&o.best);
    routes.push((
        "portfolio",
        Box::new(move |c| portfolio(c).map(portfolio_view)),
    ));
    routes
}

/// A budget edge ends in `Err(Budget)` before any partition exists, or
/// in a best-so-far result the recount confirms.
fn stops_cleanly(hg: &Hypergraph, name: &str, run: &Routed) {
    match run {
        Err(PartitionError::Budget(_)) => {}
        Ok(o) => holds(recounted(hg, o), name),
        Err(e) => panic!("{name}: unexpected error {e}"),
    }
}

/// Instance for the budget edges; both V-cycle routes coarsen it, so
/// their edges fall inside the hierarchy.
fn budget_instance() -> Hypergraph {
    let hg = hierarchical_hypergraph(23, 4, 16, 12, 8);
    let (opts, mopts) = (kway_opts(4, 0.5), vcycle_opts(16, 4));
    let levels = [
        cell(1, Meter::Unlimited, |c| multilevel_ctx(&hg, &mopts, c))
            .0
            .map(|o| o.levels),
        cell(1, Meter::Unlimited, |c| {
            multilevel_kway_ctx(&hg, &opts, &mopts, c)
        })
        .0
        .map(|o| o.levels),
    ];
    assert!(
        levels.iter().all(|l| l.as_ref().is_ok_and(|&l| l > 0)),
        "{levels:?}"
    );
    hg
}

/// Every route checks its meter before its first metered step, so a
/// spent clock leaves no best-so-far to return: each route fails with
/// the budget error at every thread count.
#[test]
fn every_route_stops_cleanly_at_a_zero_budget() {
    for hg in [budget_instance(), two_triangles()] {
        for (name, route) in every_route(&hg) {
            for threads in THREADS {
                let r = cell(threads, Meter::ZeroClock, &route).0;
                assert!(
                    matches!(r, Err(PartitionError::Budget(_))),
                    "{name} at {threads} threads ignored a spent clock: {r:?}"
                );
            }
        }
    }
}

#[test]
fn every_route_stops_cleanly_on_a_cancel_at_the_first_stage_start() {
    let hg = budget_instance();
    for (name, route) in every_route(&hg) {
        for threads in THREADS {
            let (r, m) = cell(threads, Meter::CancelAtFirstStart, &route);
            assert!(m.is_cancelled(), "{name} started no stage");
            stops_cleanly(&hg, name, &r);
        }
    }
}

#[test]
fn every_route_stops_cleanly_one_matvec_short_of_its_unlimited_spend() {
    let hg = budget_instance();
    for (name, route) in every_route(&hg) {
        let (full, m) = cell(1, Meter::Unlimited, &route);
        assert!(full.is_ok() && m.matvecs_used() > 0, "{name}: {full:?}");
        let cap = Meter::Matvecs(m.matvecs_used() - 1);
        stops_cleanly(&hg, name, &cell(1, cap, &route).0);
    }
}

/// Runs `route` unlimited, then capped one matvec short of that run's
/// spend; returns both outcomes.
fn one_matvec_short<T>(route: impl Fn(&RunContext<'_>) -> Result<T, PartitionError>) -> (T, T) {
    let (full, m) = cell(1, Meter::Unlimited, &route);
    let capped = cell(1, Meter::Matvecs(m.matvecs_used() - 1), &route).0;
    (
        full.expect("the unlimited run partitions"),
        capped.expect("a partition exists"),
    )
}

#[test]
fn a_cap_inside_uncoarsening_degrades_no_worse_than_the_projection() {
    let hg = generate(&GeneratorConfig::new(400, 420, 17));
    let mopts = vcycle_opts(30, MultilevelOptions::default().refine_passes);
    let (full, out) = one_matvec_short(|c| multilevel_ctx(&hg, &mopts, c));
    assert!(full.levels > 0 && !full.budget_degraded, "{full:?}");
    assert!(out.budget_degraded, "the cap must trip inside uncoarsening");
    assert!(out.projected_ratio > 0.0, "the oracle objective is zero");
    holds(
        no_worse(out.result.ratio(), out.projected_ratio),
        "V-cycle vs its projection",
    );
    holds(
        recounted(&hg, &bisection_cut(&out.result)),
        "V-cycle recount",
    );

    let kopts = kway_opts(4, 0.5);
    let (full, out) = one_matvec_short(|c| multilevel_kway_ctx(&hg, &kopts, &mopts, c));
    assert!(full.levels > 0 && !full.budget_degraded, "{full:?}");
    assert!(out.budget_degraded, "the cap must trip inside uncoarsening");
    assert!(out.coarse_cut > 0, "the oracle objective is zero");
    let cut = out.result.stats.cut_nets as f64;
    holds(
        no_worse(cut, out.coarse_cut as f64),
        "k-way V-cycle vs its coarse cut",
    );
    holds(
        recounted(&hg, &kway_cut(&out.result)),
        "k-way V-cycle recount",
    );
}

// ------------------------------------------------------- context reuse

/// One context runs both V-cycles, then every route, on one netlist:
/// each answers, and spends, as it does on a context of its own. The
/// V-cycles partition their coarsest level on an operator cache of its
/// own, so the context's cache stays bound to the input netlist.
#[test]
fn a_reused_context_answers_as_a_fresh_one_after_a_vcycle() {
    let hg = budget_instance();
    let routes = every_route(&hg);
    let vcycles = routes.iter().filter(|(name, _)| name.contains("V-cycle"));
    let shared = RunContext::unlimited();
    for (name, route) in vcycles.chain(&routes) {
        let before = shared.meter().matvecs_used();
        let result = route(&shared);
        let spend = shared.meter().matvecs_used() - before;
        let reused = metered(result, spend, Outcome::clone);
        let fresh = run(1, Meter::Unlimited, route, Outcome::clone);
        holds(
            identical(&fresh, &reused),
            format!("{name} on a reused context"),
        );
    }
}

// ------------------------------------------------------ operator caches

/// Contexts on one shared operator cache, at every thread count, order
/// bm1's modules as a context on a cache of its own does, at the same
/// spend; the cache serves every context the same operator.
#[test]
fn a_shared_operator_cache_orders_like_fresh_builds() {
    let hg = mcnc_benchmark("bm1").expect("suite benchmark").hypergraph;
    let opts = LanczosOptions::default();
    let route = |c: &RunContext<'_>| spectral_module_ordering_ctx(&hg, &opts, c);
    let view =
        |order: &Vec<ModuleId>| Outcome::new(order.iter().map(|m| m.0).collect(), String::new());
    let fresh = run(1, Meter::Unlimited, route, view);
    let shared = Arc::new(OperatorCache::new());
    for threads in THREADS {
        let cached = run_on(&shared, threads, Meter::Unlimited, route, view);
        holds(
            identical(&fresh, &cached),
            format!("a shared cache at {threads} threads"),
        );
    }
    let ctx = RunContext::unlimited()
        .with_operator_cache(Arc::clone(&shared))
        .with_threads(8);
    assert!(Arc::ptr_eq(
        &shared.clique_laplacian(&hg),
        &ctx.clique_laplacian(&hg)
    ));
}

/// Every route that starts with IG-Match under `ig`: the IG-Match
/// stage, hybrid, robust and the k-way route at k = 2 and k = 4.
fn ig_match_routes(hg: &Hypergraph, ig: IgMatchOptions) -> Vec<(&'static str, Route<'_>)> {
    let mut routes: Vec<(&'static str, Route<'_>)> = Vec::new();
    for a in [Algorithm::IgMatch, Algorithm::Hybrid, Algorithm::Robust] {
        let stage = a.stage(ig);
        let route = move |c: &RunContext<'_>| run_stage(stage.as_ref(), hg, None, c);
        routes.push((a.name(), Box::new(move |c| route(c).map(|r| bisection(&r)))));
    }
    for (name, k) in [("k-way k=2", 2), ("k-way k=4", 4)] {
        let opts = KwayOptions {
            ig_match: ig,
            ..kway_opts(k, 0.5)
        };
        let kway =
            move |c: &RunContext<'_>| kway_partition_ctx(hg, &opts, KwayMethod::Recursive, c);
        routes.push((name, Box::new(move |c| kway(c).map(|r| kway_cut(&r)))));
    }
    routes
}

/// One operator cache per thread count runs every IG-Match route on two
/// Lanczos seeds unlimited, which fills its memo; every later run on it
/// answers from the memo, under each meter, with the labels, report and
/// spend of a run on a fresh cache, and a budget error at the same
/// spend. The dense eigensolve (two triangles) charges its columns at
/// once, Lanczos (71 nets) one matvec at a time, and the two seeds
/// spend 42 and 47 matvecs there.
#[test]
fn a_memoized_ig_match_answers_and_spends_like_a_fresh_solve() {
    let seeds = [DEFAULT_SEED, derive_seed(DEFAULT_SEED, 1)];
    for hg in [generate(&GeneratorConfig::new(60, 70, 3)), two_triangles()] {
        let routes: Vec<_> = seeds
            .iter()
            .flat_map(|&seed| {
                let mut ig = IgMatchOptions::default();
                ig.lanczos.seed = seed;
                ig_match_routes(&hg, ig)
            })
            .collect();
        for threads in THREADS {
            let shared = Arc::new(OperatorCache::new());
            let spends: Vec<u64> = routes
                .iter()
                .map(|(name, route)| {
                    let warm = run_on(&shared, threads, Meter::Unlimited, route, Outcome::clone);
                    let spend = warm.as_ref().map_or(0, |o| o.spend.unwrap_or(0));
                    assert!(spend > 0, "{name}: {warm:?}");
                    spend
                })
                .collect();
            // a memo key without the seed would answer the second seed
            // with the first one's spend, which only shows if they differ
            let per_seed = routes.len() / seeds.len();
            if hg.num_nets() > IgMatchOptions::default().lanczos.dense_cutoff {
                let (first, second) = (spends[0], spends[per_seed]);
                assert_ne!(first, second, "both seeds spend {first} matvecs");
            }
            for ((name, route), spend) in routes.iter().zip(spends) {
                for meter in [
                    Meter::Unlimited,
                    Meter::Matvecs(spend - 1),
                    Meter::ZeroClock,
                    Meter::CancelAtFirstStart,
                ] {
                    let hits = shared.ig_match_hits();
                    let memo = run_on(&shared, threads, meter, route, Outcome::clone);
                    if matches!(meter, Meter::Unlimited | Meter::Matvecs(_)) {
                        assert!(shared.ig_match_hits() > hits, "{name}: the memo answered");
                    }
                    let fresh = run_on(&Arc::default(), threads, meter, route, Outcome::clone);
                    let what = format!("{name} from the memo at {threads} threads, {meter:?}");
                    holds(identical(&fresh, &memo), &what);
                }
            }
        }
    }
}

// ------------------------------------------------------ the checkers

#[test]
fn every_contract_checker_reports_a_perturbed_result() {
    let hg = generate(&GeneratorConfig::new(60, 70, 3));
    let stage = Algorithm::IgMatch.stage(IgMatchOptions::default());
    let route = |c: &RunContext<'_>| run_stage(stage.as_ref(), &hg, None, c);
    let base = run(1, Meter::Unlimited, route, bisection_cut);
    let good = base.clone().expect("IG-Match partitions");
    holds(identical(&base, &base.clone()), "an outcome vs itself");

    let mut flipped = good.clone();
    flipped.labels[0] ^= 1;
    let mut overspent = good.clone();
    overspent.spend = overspent.spend.map(|s| s + 1);
    let mut misreported = good.clone();
    misreported.report.push('!');
    let budget = run(1, Meter::ZeroClock, route, bisection);
    let Err(spent) = budget.clone() else {
        panic!("a spent clock partitioned: {budget:?}");
    };
    assert!(
        matches!(spent.error, PartitionError::Budget(_)),
        "{spent:?}"
    );
    holds(identical(&budget, &budget.clone()), "an error vs itself");
    let swapped = Failure {
        error: PartitionError::Degenerate,
        ..spent.clone()
    };
    let error_overspent = Failure {
        spend: spent.spend.map(|s| s + 1),
        ..spent
    };
    for (what, perturbed, against) in [
        ("one label flipped", Ok(flipped.clone()), &base),
        ("spend + 1", Ok(overspent), &base),
        ("report edited", Ok(misreported), &base),
        ("result vs error", budget.clone(), &base),
        ("error variant swapped", Err(swapped), &budget),
        ("error spend + 1", Err(error_overspent), &budget),
    ] {
        assert!(
            identical(&perturbed, against).is_err(),
            "{what} went unreported"
        );
    }
    // the recount sees a flipped label the report does not
    assert!(
        recounted(&hg, &flipped).is_err(),
        "a stale report went unreported"
    );
    holds(recounted(&hg, &good), "the recount of a true report");

    let ratio = 0.25;
    holds(no_worse(ratio, ratio), "an objective vs itself");
    assert!(
        no_worse(ratio + 1e-6, ratio).is_err(),
        "a worse objective went unreported"
    );
}
