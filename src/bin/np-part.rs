//! `np-part` — command-line ratio-cut partitioner.
//!
//! Reads a netlist in hMETIS `.hgr` format, partitions it with the chosen
//! algorithm, prints the cut statistics and optionally writes the
//! partition (one `0`/`1` per module line, hMETIS convention).
//!
//! ```text
//! np-part INPUT.hgr [--algorithm igmatch|igvote|eig1|rcut|fm|kl|hybrid|robust]
//!                   [--refine] [--weighting paper|uniform|shared-count|size-scaled]
//!                   [--budget-ms MS] [--fallback] [--trace]
//!                   [--multilevel] [--coarsen-target N] [--max-levels N]
//!                   [--restarts N] [--threads T] [--seed S]
//!                   [--target-ratio X] [--report-json FILE]
//!                   [--k K] [--epsilon E] [--fixed FIX_FILE]
//!                   [--output PART_FILE] [--table]
//! ```
//!
//! `--multilevel` runs the [`np_multilevel`](ig_match_repro::multilevel)
//! V-cycle instead of a flat algorithm: coarsen to `--coarsen-target`
//! modules (default 3000) over at most `--max-levels` levels, partition
//! the coarsest level with the hybrid IG-Match pipeline, then project
//! and refine back up. It composes with each of the three modes:
//! single-run, portfolio (`--restarts`, each attempt reseeding the
//! coarsest eigensolve) and k-way (`--k K`, carrying `--fixed` pins
//! through the contraction). It takes precedence over `--algorithm` and
//! `--fallback` in every mode. With `--coarsen-target` at or above the
//! module count the V-cycle is bit-identical to `--algorithm hybrid`.
//!
//! `--k K` (with `K != 2`) or `--fixed FILE` switches to **k-way mode**:
//! the netlist is split into `K` blocks, each within `(1+ε)·total/K` of
//! the average area (`--epsilon E`, default 0.1), honouring the hMETIS
//! `.fix`-format pre-assignments in `FIX_FILE` (one line per module:
//! a block id, or `-1` for free), by recursive bisection; `--output`
//! then writes one block id per module line. K-way mode is a single run
//! and takes no portfolio flag: `--restarts`, `--target-ratio` and
//! `--report-json` are rejected together with it.
//!
//! Every algorithm is an engine [`Stage`](ig_match_repro::Stage) built
//! by the shared [`Algorithm`] table (the one `np-serve` uses too) and
//! run against one shared [`RunContext`], so `--budget-ms` (a
//! wall-clock cap on the whole run) applies uniformly and `--trace`
//! streams the stage graph — including the links of the robust fallback
//! chain and the stages of the hybrid pipeline — to stderr as it
//! executes.
//!
//! `--fallback` is shorthand for `--algorithm robust`: run the resilient
//! chain that falls back from IG-Match through reseeded Lanczos, a dense
//! eigensolve and clique-model EIG1 down to plain FM, printing which
//! stage produced the answer. An exhausted budget exits with a
//! structured error.
//!
//! `--restarts N` switches to **portfolio mode** ([`np_runner`]): N
//! attempts of the chosen algorithm run concurrently over `--threads T`
//! workers (0 = one per CPU), each on its own decorrelated seed stream
//! derived from `--seed`, sharing one operator cache so the spectral
//! Laplacians are built once, and the best partition by ratio cut wins.
//! For a fixed seed the winner is identical for every thread count.
//! `--target-ratio X` stops the whole portfolio early once an attempt
//! reaches ratio `X`; `--report-json FILE` writes the per-attempt
//! outcome record.
//!
//! In **single-run mode** (no portfolio flag), `--threads T` instead
//! shards the Lanczos matvec over T OS threads (0 = one per CPU); the
//! net-model operators are always built serially. Results are
//! bit-identical for every thread count; the knob trades wall-clock
//! only. In portfolio mode the workers already use the requested cores,
//! so attempts keep their kernels serial.

use ig_match_repro::core::engine::run_stage;
use ig_match_repro::core::engine::DEFAULT_SEED;
use ig_match_repro::core::kway::{kway_partition_ctx, KwayMethod, KwayOptions};
use ig_match_repro::netlist::io::read_hgr;
use ig_match_repro::netlist::rng::derive_seed;
use ig_match_repro::netlist::stats::{CutBySize, NetlistSummary};
use ig_match_repro::netlist::FixedModules;
use ig_match_repro::runner::{
    run_portfolio, Algorithm, Portfolio, PortfolioEvent, PortfolioOptions,
};
use ig_match_repro::sparse::{Budget, BudgetMeter};
use ig_match_repro::{
    multilevel_kway_ctx, robust_partition_ctx, Bipartition, BoxedStage, IgMatchOptions,
    IgWeighting, MultilevelOptions, MultilevelStage, RobustOptions, RunContext, Side, StageEvent,
};
use std::io::{BufReader, Write};
use std::process::ExitCode;
use std::time::Duration;

#[derive(Debug)]
struct Args {
    input: String,
    algorithm: Algorithm,
    weighting: IgWeighting,
    refine: bool,
    budget_ms: Option<u64>,
    trace: bool,
    output: Option<String>,
    table: bool,
    restarts: Option<usize>,
    threads: Option<usize>,
    seed: u64,
    target_ratio: Option<f64>,
    report_json: Option<String>,
    k: usize,
    epsilon: f64,
    fixed: Option<String>,
    multilevel: bool,
    coarsen_target: Option<usize>,
    max_levels: Option<usize>,
}

impl Args {
    /// Any portfolio flag switches the run onto the `np-runner` path.
    /// `--threads` alone does not: in single-run mode it shards the
    /// Lanczos SpMV instead of running restarts.
    fn portfolio_mode(&self) -> bool {
        self.restarts.is_some() || self.target_ratio.is_some() || self.report_json.is_some()
    }

    /// A non-default block count or any pre-assignment file switches the
    /// run onto the balanced k-way path.
    fn kway_mode(&self) -> bool {
        self.k != 2 || self.fixed.is_some()
    }
}

const USAGE: &str =
    "usage: np-part INPUT.hgr [--algorithm igmatch|igvote|eig1|rcut|fm|kl|hybrid|robust] \
                     [--refine] [--weighting paper|uniform|shared-count|size-scaled] \
                     [--budget-ms MS] [--fallback] [--trace] \
                     [--multilevel] [--coarsen-target N] [--max-levels N] \
                     [--restarts N] [--threads T] [--seed S] \
                     [--target-ratio X] [--report-json FILE] \
                     [--k K] [--epsilon E] [--fixed FIX_FILE] \
                     [--output FILE] [--table]";

/// The value following `flag`.
fn value(iter: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    iter.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// The value following `flag`, parsed; `what` names the expected form.
fn parsed<T: std::str::FromStr>(
    iter: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    let v = value(iter, flag)?;
    v.parse()
        .map_err(|_| format!("{flag} expects {what}, got '{v}'"))
}

/// The value following `flag` as a finite, non-negative number.
fn non_negative(iter: &mut impl Iterator<Item = String>, flag: &str) -> Result<f64, String> {
    let v = value(iter, flag)?;
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
        Ok(_) => Err(format!("{flag} must be finite and >= 0, got '{v}'")),
        Err(_) => Err(format!("{flag} expects a number, got '{v}'")),
    }
}

/// The value following `flag` as a count of at least 1.
fn positive(
    iter: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<usize, String> {
    match parsed(iter, flag, what)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

fn parse_args<I>(args: I) -> Result<Args, String>
where
    I: IntoIterator<Item = String>,
{
    let mut input = None;
    let mut a = Args {
        input: String::new(),
        algorithm: Algorithm::IgMatch,
        weighting: IgWeighting::Paper,
        refine: false,
        budget_ms: None,
        trace: false,
        output: None,
        table: false,
        restarts: None,
        threads: None,
        seed: DEFAULT_SEED,
        target_ratio: None,
        report_json: None,
        k: 2,
        epsilon: 0.1,
        fixed: None,
        multilevel: false,
        coarsen_target: None,
        max_levels: None,
    };
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let it = &mut iter;
        match arg.as_str() {
            "--algorithm" | "--algo" => {
                let name = value(it, "--algorithm")?;
                a.algorithm = Algorithm::from_name(&name)
                    .ok_or_else(|| format!("unknown algorithm '{name}'\n{USAGE}"))?;
            }
            "--weighting" => {
                let w = value(it, "--weighting")?;
                a.weighting = IgWeighting::ALL
                    .into_iter()
                    .find(|x| x.name() == w)
                    .ok_or_else(|| format!("unknown weighting '{w}'"))?;
            }
            "--refine" => a.refine = true,
            "--fallback" => a.algorithm = Algorithm::Robust,
            "--budget-ms" => a.budget_ms = Some(parsed(it, "--budget-ms", "milliseconds")?),
            "--trace" => a.trace = true,
            "--table" => a.table = true,
            "--output" => a.output = Some(value(it, "--output")?),
            "--restarts" => a.restarts = Some(positive(it, "--restarts", "a count")?),
            "--threads" => a.threads = Some(parsed(it, "--threads", "a count (0 = auto)")?),
            "--seed" => a.seed = parsed(it, "--seed", "an unsigned integer")?,
            "--target-ratio" => a.target_ratio = Some(non_negative(it, "--target-ratio")?),
            "--report-json" => a.report_json = Some(value(it, "--report-json")?),
            "--k" => a.k = positive(it, "--k", "a block count")?,
            "--epsilon" => a.epsilon = non_negative(it, "--epsilon")?,
            "--fixed" => a.fixed = Some(value(it, "--fixed")?),
            "--multilevel" => a.multilevel = true,
            "--coarsen-target" => {
                a.coarsen_target = Some(positive(it, "--coarsen-target", "a module count")?)
            }
            "--max-levels" => a.max_levels = Some(parsed(it, "--max-levels", "a count")?),
            "--help" | "-h" => return Err(USAGE.into()),
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument '{other}'\n{USAGE}")),
        }
    }
    a.input = input.ok_or(USAGE)?;
    if a.kway_mode() {
        for (flag, set) in [
            ("--restarts", a.restarts.is_some()),
            ("--target-ratio", a.target_ratio.is_some()),
            ("--report-json", a.report_json.is_some()),
        ] {
            if set {
                return Err(format!(
                    "{flag} does not combine with k-way mode (--k K != 2 or --fixed)"
                ));
            }
        }
    }
    Ok(a)
}

/// Resolves `--budget-ms` into a [`Budget`]; `None` means unlimited.
fn budget_of(args: &Args) -> Budget {
    match args.budget_ms {
        Some(ms) => Budget::UNLIMITED.with_wall_clock(Duration::from_millis(ms)),
        None => Budget::UNLIMITED,
    }
}

/// The spectral choice the CLI flags describe: `--weighting` and
/// `--refine`, every other IG-Match option at its default.
fn ig_match_options_for(args: &Args) -> IgMatchOptions {
    IgMatchOptions {
        weighting: args.weighting,
        refine_free_modules: args.refine,
        ..Default::default()
    }
}

/// Builds the [`MultilevelOptions`] the CLI flags describe:
/// `--coarsen-target`/`--max-levels` override the defaults and the
/// coarsest-level pipeline inherits `--weighting`/`--refine`.
fn multilevel_options_for(args: &Args) -> MultilevelOptions {
    let base = MultilevelOptions::default();
    MultilevelOptions {
        coarsen_target: args.coarsen_target.unwrap_or(base.coarsen_target),
        max_levels: args.max_levels.unwrap_or(base.max_levels),
        ig_match: ig_match_options_for(args),
        ..base
    }
}

/// What a bipartition run executes.
#[derive(Debug, PartialEq)]
enum Route {
    /// The V-cycle, which runs the hybrid pipeline on its coarsest level
    /// itself.
    Multilevel(MultilevelOptions),
    /// An entry of the algorithm table.
    Table(Algorithm),
}

/// Picks the route for single-run and portfolio mode alike.
/// `--multilevel` is checked first, so it overrides `--algorithm` and
/// `--fallback`.
fn route(args: &Args) -> Route {
    if args.multilevel {
        Route::Multilevel(multilevel_options_for(args))
    } else {
        Route::Table(args.algorithm)
    }
}

/// Prints one stage event to stderr behind `tag`: details (e.g.
/// IG-Match's matching bound) always, the per-stage start/finish stream
/// only with `--trace`.
fn print_event(tag: &str, trace: bool, e: &StageEvent<'_>) {
    match e {
        StageEvent::Detail { stage, message } => eprintln!("{tag}{stage}: {message}"),
        StageEvent::Started { stage } if trace => eprintln!("{tag}-> {stage}"),
        StageEvent::Finished { stage, outcome } if trace => match outcome {
            Ok(r) => eprintln!("{tag}<- {stage}: ratio {:.3e}", r.ratio()),
            Err(err) => eprintln!("{tag}<- {stage}: failed: {err}"),
        },
        _ => {}
    }
}

/// Portfolio mode: `--restarts` attempts of the chosen algorithm over
/// the runner's worker pool, reduced to the best ratio cut.
fn run_portfolio_mode(
    args: &Args,
    hg: &ig_match_repro::Hypergraph,
    meter: &BudgetMeter,
) -> Result<(String, Bipartition), String> {
    use ig_match_repro::runner::AttemptStatus;

    let restarts = args.restarts.unwrap_or(1);
    let portfolio = match route(args) {
        // the coarsest-level eigensolve is the V-cycle's only stochastic
        // point, so reseeding it is what diversifies the attempts
        Route::Multilevel(opts) => Portfolio::new().restarts("multilevel", restarts, |i| {
            let mut opts = opts;
            opts.ig_match.lanczos.seed = derive_seed(args.seed, i as u64);
            Box::new(MultilevelStage::new(opts))
        }),
        Route::Table(algorithm) => {
            algorithm.portfolio(ig_match_options_for(args), restarts, args.seed)
        }
    };
    let opts = PortfolioOptions {
        threads: args.threads.unwrap_or(0),
        target_ratio: args.target_ratio,
    };
    // an `[attempt:label]` tag keeps interleaved streams from concurrent
    // attempts attributable
    let sink = |e: &PortfolioEvent<'_>| {
        print_event(
            &format!("[{}:{}] ", e.attempt, e.label),
            args.trace,
            e.event,
        )
    };
    let outcome = run_portfolio(hg, &portfolio, &opts, meter, Some(&sink));
    {
        let report = match &outcome {
            Ok(o) => &o.report,
            Err(e) => &e.report,
        };
        if let Some(path) = &args.report_json {
            std::fs::write(path, report.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("portfolio report written to {path}");
        }
    }
    match outcome {
        Ok(out) => {
            let completed = out
                .report
                .attempts
                .iter()
                .filter(|a| matches!(a.status, AttemptStatus::Won | AttemptStatus::Completed))
                .count();
            eprintln!(
                "portfolio: attempt {} ('{}') wins, {completed}/{restarts} completed, {} thread(s), {:.1} ms",
                out.winner,
                out.report.attempts[out.winner].label,
                out.report.threads,
                out.report.wall.as_secs_f64() * 1e3
            );
            Ok((
                format!("best-of-{restarts}[{}]", out.best.algorithm),
                out.best.partition,
            ))
        }
        Err(err) => Err(err.to_string()),
    }
}

/// Single-run mode: one stage of the route against the shared context.
/// The robust chain runs through its own entry point, whose diagnostics
/// say which link produced the answer.
fn run_single(
    args: &Args,
    hg: &ig_match_repro::Hypergraph,
    ctx: &RunContext<'_>,
) -> Result<(String, Bipartition), String> {
    let stage: BoxedStage = match route(args) {
        Route::Multilevel(opts) => Box::new(MultilevelStage::new(opts)),
        Route::Table(Algorithm::Robust) => {
            let opts = RobustOptions::new(ig_match_options_for(args));
            let outcome = robust_partition_ctx(hg, &opts, ctx).map_err(|failure| {
                eprintln!("{}", failure.diagnostics);
                failure.to_string()
            })?;
            eprintln!("{}", outcome.diagnostics);
            let label = format!("robust[{}]", outcome.result.algorithm);
            return Ok((label, outcome.result.partition));
        }
        Route::Table(algorithm) => algorithm.stage(ig_match_options_for(args)),
    };
    let r = run_stage(stage.as_ref(), hg, None, ctx).map_err(|e| e.to_string())?;
    Ok((r.algorithm.to_string(), r.partition))
}

/// Builds the [`KwayOptions`] the CLI flags describe, loading the
/// `.fix` pre-assignment file when given.
fn kway_options_for(args: &Args, num_modules: usize) -> Result<KwayOptions, String> {
    let fixed = match &args.fixed {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            let f = FixedModules::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            if f.len() != num_modules {
                return Err(format!(
                    "{path}: {} fixed-module lines for {num_modules} modules",
                    f.len()
                ));
            }
            Some(f)
        }
        None => None,
    };
    Ok(KwayOptions {
        k: args.k,
        epsilon: args.epsilon,
        fixed,
        ig_match: ig_match_options_for(args),
        ..Default::default()
    })
}

/// K-way mode: partition into `--k` balanced blocks and print/write the
/// block assignment.
fn run_kway_mode(
    args: &Args,
    hg: &ig_match_repro::Hypergraph,
    meter: &BudgetMeter,
) -> Result<(), String> {
    let opts = kway_options_for(args, hg.num_modules())?;
    let ctx = RunContext::with_meter(meter).with_threads(args.threads.unwrap_or(1));
    let (label, result) = if args.multilevel {
        let mopts = multilevel_options_for(args);
        let out = multilevel_kway_ctx(hg, &opts, &mopts, &ctx).map_err(|e| e.to_string())?;
        eprintln!(
            "multilevel-kway: {} levels, coarsest {} modules, coarse cut {}{}",
            out.levels,
            out.coarsest_modules,
            out.coarse_cut,
            if out.budget_degraded {
                " (budget degraded to projection)"
            } else {
                ""
            }
        );
        (out.result.algorithm, out.result)
    } else {
        let out = kway_partition_ctx(hg, &opts, KwayMethod::Recursive, &ctx)
            .map_err(|e| e.to_string())?;
        (out.algorithm, out)
    };
    println!("{label}: {}", result.stats);
    if let Some(path) = &args.output {
        write_labels(path, result.partition.labels().iter().copied())?;
    }
    Ok(())
}

/// Writes one label per module line (a side `0`/`1`, or a block id).
fn write_labels(path: &str, labels: impl Iterator<Item = u32>) -> Result<(), String> {
    let mut out = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    for b in labels {
        writeln!(out, "{b}").map_err(|e| format!("write failed: {e}"))?;
    }
    eprintln!("partition written to {path}");
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let file =
        std::fs::File::open(&args.input).map_err(|e| format!("cannot open {}: {e}", args.input))?;
    let hg = read_hgr(BufReader::new(file)).map_err(|e| format!("parse failed: {e}"))?;
    eprintln!("{}: {}", args.input, NetlistSummary::of(&hg));

    let budget = budget_of(&args);
    let meter = BudgetMeter::new(&budget);
    if args.kway_mode() {
        return run_kway_mode(&args, &hg, &meter);
    }
    let sink = |e: &StageEvent<'_>| print_event("", args.trace, e);
    let ctx = RunContext::with_meter(&meter)
        .with_threads(args.threads.unwrap_or(1))
        .with_events(&sink);

    let (label, partition): (String, Bipartition) = if args.portfolio_mode() {
        run_portfolio_mode(&args, &hg, &meter)?
    } else {
        run_single(&args, &hg, &ctx)?
    };

    let stats = partition.cut_stats(&hg);
    println!(
        "{label}: cut={} areas={} ratio={:.3e}",
        stats.cut_nets,
        stats.areas(),
        stats.ratio()
    );
    if args.table {
        print!("{}", CutBySize::compute(&hg, &partition));
    }
    if let Some(path) = &args.output {
        write_labels(
            path,
            partition.sides().iter().map(|s| (*s == Side::Right) as u32),
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&["x.hgr"]).unwrap();
        assert_eq!(a.input, "x.hgr");
        assert_eq!(a.algorithm, Algorithm::IgMatch);
        assert_eq!(a.weighting, IgWeighting::Paper);
        assert!(!a.refine && !a.table && !a.trace && a.output.is_none());
        assert_eq!(a.seed, DEFAULT_SEED);
        assert!(!a.portfolio_mode());
    }

    #[test]
    fn full_flags() {
        let a = parse(&[
            "in.hgr",
            "--algorithm",
            "rcut",
            "--weighting",
            "uniform",
            "--refine",
            "--table",
            "--trace",
            "--output",
            "out.part",
        ])
        .unwrap();
        assert_eq!(a.algorithm, Algorithm::Rcut);
        assert_eq!(a.weighting, IgWeighting::Uniform);
        assert!(a.refine && a.table && a.trace);
        assert_eq!(a.output.as_deref(), Some("out.part"));
    }

    #[test]
    fn missing_input_is_usage_error() {
        assert!(parse(&[]).unwrap_err().contains("usage"));
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&["x.hgr", "--bogus"])
            .unwrap_err()
            .contains("unexpected"));
    }

    #[test]
    fn unknown_weighting_rejected() {
        let err = parse(&["x.hgr", "--weighting", "magic"]).unwrap_err();
        assert!(err.contains("unknown weighting"), "{err}");
    }

    #[test]
    fn dangling_value_flag_rejected() {
        assert!(parse(&["x.hgr", "--output"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn fallback_selects_robust_algorithm() {
        let a = parse(&["x.hgr", "--fallback"]).unwrap();
        assert_eq!(a.algorithm, Algorithm::Robust);
    }

    #[test]
    fn budget_ms_parsed() {
        let a = parse(&["x.hgr", "--budget-ms", "250"]).unwrap();
        assert_eq!(a.budget_ms, Some(250));
        assert_eq!(budget_of(&a).wall_clock, Some(Duration::from_millis(250)));
    }

    #[test]
    fn budget_ms_rejects_non_numeric() {
        let err = parse(&["x.hgr", "--budget-ms", "soon"]).unwrap_err();
        assert!(err.contains("milliseconds"), "{err}");
    }

    #[test]
    fn every_engine_algorithm_resolves_to_a_stage() {
        for algo in Algorithm::ALL {
            let a = parse(&["x.hgr", "--algorithm", algo.name()]).unwrap();
            assert_eq!(route(&a), Route::Table(algo));
            let stage = algo.stage(ig_match_options_for(&a));
            assert!(!stage.name().is_empty(), "{algo:?}");
        }
        // an unknown name fails at parse time, before any input is read
        let err = parse(&["x.hgr", "--algorithm", "magic"]).unwrap_err();
        assert!(err.contains("unknown algorithm 'magic'"), "{err}");
    }

    #[test]
    fn portfolio_flags_parsed() {
        let a = parse(&[
            "x.hgr",
            "--algo",
            "fm",
            "--restarts",
            "16",
            "--threads",
            "8",
            "--seed",
            "42",
            "--target-ratio",
            "0.125",
            "--report-json",
            "report.json",
        ])
        .unwrap();
        assert_eq!(a.algorithm, Algorithm::Fm);
        assert_eq!(a.restarts, Some(16));
        assert_eq!(a.threads, Some(8));
        assert_eq!(a.seed, 42);
        assert_eq!(a.target_ratio, Some(0.125));
        assert_eq!(a.report_json.as_deref(), Some("report.json"));
        assert!(a.portfolio_mode());
    }

    #[test]
    fn any_portfolio_flag_enables_portfolio_mode() {
        for flags in [
            &["x.hgr", "--restarts", "4"][..],
            &["x.hgr", "--target-ratio", "0.5"][..],
            &["x.hgr", "--report-json", "r.json"][..],
        ] {
            assert!(parse(flags).unwrap().portfolio_mode(), "{flags:?}");
        }
    }

    #[test]
    fn threads_alone_stays_single_run() {
        // --threads without a portfolio flag shards the SpMV of one run;
        // it must not silently switch to restart mode
        let a = parse(&["x.hgr", "--threads", "2"]).unwrap();
        assert!(!a.portfolio_mode());
        assert_eq!(a.threads, Some(2));
    }

    #[test]
    fn zero_restarts_rejected() {
        let err = parse(&["x.hgr", "--restarts", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn bad_target_ratio_rejected() {
        assert!(parse(&["x.hgr", "--target-ratio", "-1"]).is_err());
        assert!(parse(&["x.hgr", "--target-ratio", "inf"]).is_err());
        assert!(parse(&["x.hgr", "--target-ratio", "soon"]).is_err());
    }

    #[test]
    fn kway_flags_parsed() {
        let a = parse(&[
            "x.hgr",
            "--k",
            "4",
            "--epsilon",
            "0.25",
            "--fixed",
            "pins.fix",
        ])
        .unwrap();
        assert_eq!(a.k, 4);
        assert_eq!(a.epsilon, 0.25);
        assert_eq!(a.fixed.as_deref(), Some("pins.fix"));
        assert!(a.kway_mode());
    }

    #[test]
    fn default_k_is_bipartition_mode() {
        let a = parse(&["x.hgr"]).unwrap();
        assert_eq!(a.k, 2);
        assert!(!a.kway_mode());
        // a fixed file forces the k-way path even at k = 2
        let b = parse(&["x.hgr", "--fixed", "p.fix"]).unwrap();
        assert!(b.kway_mode());
    }

    #[test]
    fn bad_kway_flags_rejected() {
        assert!(parse(&["x.hgr", "--k", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["x.hgr", "--epsilon", "-0.1"]).is_err());
        assert!(parse(&["x.hgr", "--epsilon", "nan"]).is_err());
    }

    #[test]
    fn portfolio_flags_rejected_in_kway_mode() {
        for flag in [
            &["--restarts", "4"][..],
            &["--target-ratio", "0.5"][..],
            &["--report-json", "r.json"][..],
        ] {
            for mode in [&["--k", "4"][..], &["--fixed", "p.fix"][..]] {
                // either order: the check runs after every flag is read
                for args in [[flag, mode].concat(), [mode, flag].concat()] {
                    let argv: Vec<&str> = std::iter::once("x.hgr").chain(args).collect();
                    let err = parse(&argv).unwrap_err();
                    assert!(err.contains(flag[0]), "{argv:?}: {err}");
                    assert!(err.contains("k-way"), "{argv:?}: {err}");
                    assert!(!err.contains('\n'), "one-line error: {err}");
                }
            }
        }
        // --k 2 without --fixed is bipartition mode, where they belong
        assert!(parse(&["x.hgr", "--k", "2", "--restarts", "4"])
            .unwrap()
            .portfolio_mode());
    }

    #[test]
    fn multilevel_flags_parsed() {
        let a = parse(&[
            "x.hgr",
            "--multilevel",
            "--coarsen-target",
            "500",
            "--max-levels",
            "6",
        ])
        .unwrap();
        assert!(a.multilevel);
        assert_eq!(a.coarsen_target, Some(500));
        assert_eq!(a.max_levels, Some(6));
        let o = multilevel_options_for(&a);
        assert_eq!(o.coarsen_target, 500);
        assert_eq!(o.max_levels, 6);
        // defaults flow through when the knobs are omitted
        let b = parse(&["x.hgr", "--multilevel"]).unwrap();
        let d = MultilevelOptions::default();
        let o = multilevel_options_for(&b);
        assert_eq!(o.coarsen_target, d.coarsen_target);
        assert_eq!(o.max_levels, d.max_levels);
    }

    #[test]
    fn bad_multilevel_flags_rejected() {
        assert!(parse(&["x.hgr", "--coarsen-target", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["x.hgr", "--coarsen-target", "many"]).is_err());
        assert!(parse(&["x.hgr", "--max-levels", "deep"]).is_err());
    }

    #[test]
    fn multilevel_overrides_the_algorithm_stage() {
        let a = parse(&["x.hgr", "--multilevel", "--algorithm", "rcut"]).unwrap();
        assert_eq!(route(&a), Route::Multilevel(multilevel_options_for(&a)));
        // --weighting/--refine reach the coarsest-level pipeline
        let b = parse(&[
            "x.hgr",
            "--multilevel",
            "--weighting",
            "uniform",
            "--refine",
        ])
        .unwrap();
        let o = multilevel_options_for(&b);
        assert_eq!(o.ig_match.weighting, IgWeighting::Uniform);
        assert!(o.ig_match.refine_free_modules);
    }

    #[test]
    fn every_algorithm_resolves_to_an_attempt_stage() {
        for algo in Algorithm::ALL {
            let a = parse(&["x.hgr", "--algorithm", algo.name(), "--restarts", "2"]).unwrap();
            assert_eq!(route(&a), Route::Table(algo));
            let p = algo.portfolio(ig_match_options_for(&a), 2, a.seed);
            let [s0, s1] = p.attempts() else {
                panic!("{algo:?}: two attempts expected")
            };
            assert_eq!(s0.label(), format!("{}#0", algo.name()));
            assert_eq!(s1.label(), format!("{}#1", algo.name()));
        }
        let bad = parse(&["x.hgr", "--algorithm", "magic", "--restarts", "2"]);
        assert!(bad.unwrap_err().contains("unknown algorithm"));
    }

    #[test]
    fn fallback_with_multilevel_runs_the_vcycle_in_every_mode() {
        // --multilevel wins over --fallback / --algorithm robust in both
        // orders, in single-run mode as in portfolio mode
        for argv in [
            &["x.hgr", "--fallback", "--multilevel"][..],
            &["x.hgr", "--multilevel", "--fallback"][..],
            &["x.hgr", "--multilevel", "--algorithm", "robust"][..],
            &[
                "x.hgr",
                "--multilevel",
                "--algorithm",
                "robust",
                "--restarts",
                "2",
            ][..],
        ] {
            let a = parse(argv).unwrap();
            assert_eq!(a.algorithm, Algorithm::Robust, "{argv:?}");
            assert!(
                matches!(route(&a), Route::Multilevel(_)),
                "{argv:?} must resolve to the V-cycle"
            );
        }
    }
}
