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
//! through the contraction). With `--coarsen-target` at or above the
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
//! Every algorithm is an engine [`Stage`](ig_match_repro::Stage) assembled from the CLI flags
//! and run against one shared [`RunContext`], so `--budget-ms` (a
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
//! shards the spectral kernels — the Lanczos matvec and the net-model
//! graph builds — over T OS threads (0 = one per CPU). Results are
//! bit-identical for every thread count; the knob trades wall-clock
//! only. In portfolio mode the workers already use the requested cores,
//! so attempts keep their kernels serial.

use ig_match_repro::core::engine::run_stage;
use ig_match_repro::core::engine::stages::{
    Eig1Stage, FmStage, IgMatchStage, IgVoteStage, KlStage, RcutStage, RobustStage,
};
use ig_match_repro::core::engine::DEFAULT_SEED;
use ig_match_repro::core::kway::{kway_partition_ctx, KwayMethod, KwayOptions};
use ig_match_repro::hybrid::{hybrid_pipeline, HybridOptions};
use ig_match_repro::netlist::io::read_hgr;
use ig_match_repro::netlist::rng::derive_seed;
use ig_match_repro::netlist::stats::{CutBySize, NetlistSummary};
use ig_match_repro::netlist::{FixedModules, KwayPartition};
use ig_match_repro::runner::{
    run_portfolio, Portfolio, PortfolioEvent, PortfolioOptions, RandomStartFmStage,
};
use ig_match_repro::sparse::{Budget, BudgetMeter};
use ig_match_repro::{
    multilevel_kway_ctx, robust_partition_ctx, Bipartition, BoxedStage, Eig1Options,
    IgMatchOptions, IgVoteOptions, IgWeighting, KlOptions, MultilevelOptions, MultilevelStage,
    RcutOptions, RobustOptions, RunContext, Side, StageEvent,
};
use std::io::{BufReader, Write};
use std::process::ExitCode;
use std::time::Duration;

#[derive(Debug)]
struct Args {
    input: String,
    algorithm: String,
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
    /// spectral kernels (SpMV, graph builds) instead of running restarts.
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

fn parse_args<I>(args: I) -> Result<Args, String>
where
    I: IntoIterator<Item = String>,
{
    let mut input = None;
    let mut algorithm = "igmatch".to_string();
    let mut weighting = IgWeighting::Paper;
    let mut refine = false;
    let mut budget_ms = None;
    let mut trace = false;
    let mut output = None;
    let mut table = false;
    let mut restarts = None;
    let mut threads = None;
    let mut seed = DEFAULT_SEED;
    let mut target_ratio = None;
    let mut report_json = None;
    let mut k = 2usize;
    let mut epsilon = 0.1f64;
    let mut fixed = None;
    let mut multilevel = false;
    let mut coarsen_target = None;
    let mut max_levels = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--algorithm" | "--algo" => {
                algorithm = iter.next().ok_or("--algorithm needs a value")?;
            }
            "--weighting" => {
                let w = iter.next().ok_or("--weighting needs a value")?;
                weighting = IgWeighting::ALL
                    .into_iter()
                    .find(|x| x.name() == w)
                    .ok_or_else(|| format!("unknown weighting '{w}'"))?;
            }
            "--refine" => refine = true,
            "--fallback" => algorithm = "robust".to_string(),
            "--budget-ms" => {
                let v = iter.next().ok_or("--budget-ms needs a value")?;
                budget_ms = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--budget-ms expects milliseconds, got '{v}'"))?,
                );
            }
            "--trace" => trace = true,
            "--table" => table = true,
            "--output" => output = Some(iter.next().ok_or("--output needs a value")?),
            "--restarts" => {
                let v = iter.next().ok_or("--restarts needs a value")?;
                let n = v
                    .parse::<usize>()
                    .map_err(|_| format!("--restarts expects a count, got '{v}'"))?;
                if n == 0 {
                    return Err("--restarts must be at least 1".into());
                }
                restarts = Some(n);
            }
            "--threads" => {
                let v = iter.next().ok_or("--threads needs a value")?;
                threads = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("--threads expects a count (0 = auto), got '{v}'"))?,
                );
            }
            "--seed" => {
                let v = iter.next().ok_or("--seed needs a value")?;
                seed = v
                    .parse::<u64>()
                    .map_err(|_| format!("--seed expects an unsigned integer, got '{v}'"))?;
            }
            "--target-ratio" => {
                let v = iter.next().ok_or("--target-ratio needs a value")?;
                let x = v
                    .parse::<f64>()
                    .map_err(|_| format!("--target-ratio expects a number, got '{v}'"))?;
                if !x.is_finite() || x < 0.0 {
                    return Err(format!("--target-ratio must be finite and >= 0, got '{v}'"));
                }
                target_ratio = Some(x);
            }
            "--report-json" => {
                report_json = Some(iter.next().ok_or("--report-json needs a value")?);
            }
            "--k" => {
                let v = iter.next().ok_or("--k needs a value")?;
                k = v
                    .parse::<usize>()
                    .map_err(|_| format!("--k expects a block count, got '{v}'"))?;
                if k == 0 {
                    return Err("--k must be at least 1".into());
                }
            }
            "--epsilon" => {
                let v = iter.next().ok_or("--epsilon needs a value")?;
                epsilon = v
                    .parse::<f64>()
                    .map_err(|_| format!("--epsilon expects a number, got '{v}'"))?;
                if !epsilon.is_finite() || epsilon < 0.0 {
                    return Err(format!("--epsilon must be finite and >= 0, got '{v}'"));
                }
            }
            "--fixed" => {
                fixed = Some(iter.next().ok_or("--fixed needs a value")?);
            }
            "--multilevel" => multilevel = true,
            "--coarsen-target" => {
                let v = iter.next().ok_or("--coarsen-target needs a value")?;
                let t = v
                    .parse::<usize>()
                    .map_err(|_| format!("--coarsen-target expects a module count, got '{v}'"))?;
                if t == 0 {
                    return Err("--coarsen-target must be at least 1".into());
                }
                coarsen_target = Some(t);
            }
            "--max-levels" => {
                let v = iter.next().ok_or("--max-levels needs a value")?;
                max_levels = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("--max-levels expects a count, got '{v}'"))?,
                );
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument '{other}'\n{USAGE}")),
        }
    }
    let args = Args {
        input: input.ok_or(USAGE)?,
        algorithm,
        weighting,
        refine,
        budget_ms,
        trace,
        output,
        table,
        restarts,
        threads,
        seed,
        target_ratio,
        report_json,
        k,
        epsilon,
        fixed,
        multilevel,
        coarsen_target,
        max_levels,
    };
    if args.kway_mode() {
        for (flag, set) in [
            ("--restarts", args.restarts.is_some()),
            ("--target-ratio", args.target_ratio.is_some()),
            ("--report-json", args.report_json.is_some()),
        ] {
            if set {
                return Err(format!(
                    "{flag} does not combine with k-way mode (--k K != 2 or --fixed)"
                ));
            }
        }
    }
    Ok(args)
}

/// Resolves `--budget-ms` into a [`Budget`]; `None` means unlimited.
fn budget_of(args: &Args) -> Budget {
    match args.budget_ms {
        Some(ms) => Budget::UNLIMITED.with_wall_clock(Duration::from_millis(ms)),
        None => Budget::UNLIMITED,
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
        ig_match: IgMatchOptions {
            weighting: args.weighting,
            refine_free_modules: args.refine,
            ..Default::default()
        },
        ..base
    }
}

/// Builds the engine stage the CLI flags describe. `robust` is handled
/// separately (its chain reports structured diagnostics), and
/// `--multilevel` takes precedence over `--algorithm` (the V-cycle runs
/// the hybrid pipeline on the coarsest level itself).
fn stage_for(args: &Args) -> Result<BoxedStage, String> {
    if args.multilevel {
        return Ok(Box::new(MultilevelStage::new(multilevel_options_for(args))));
    }
    let ig_match = IgMatchOptions {
        weighting: args.weighting,
        refine_free_modules: args.refine,
        ..Default::default()
    };
    Ok(match args.algorithm.as_str() {
        "igmatch" => Box::new(IgMatchStage::new(ig_match)),
        "igvote" => Box::new(IgVoteStage::new(IgVoteOptions {
            weighting: args.weighting,
            ..Default::default()
        })),
        "eig1" => Box::new(Eig1Stage::default()),
        "rcut" => Box::new(RcutStage::default()),
        "fm" => Box::new(FmStage::default()),
        "kl" => Box::new(KlStage::default()),
        "hybrid" => Box::new(hybrid_pipeline(&HybridOptions {
            ig_match,
            ..Default::default()
        })),
        other => return Err(format!("unknown algorithm '{other}'\n{USAGE}")),
    })
}

/// Builds the stage portfolio attempt `idx` runs: the CLI's algorithm
/// with every internal seed moved onto the attempt's `derive_seed`
/// stream, and internal restart loops collapsed to a single run (the
/// portfolio *is* the restart loop).
fn attempt_stage_for(args: &Args, idx: usize) -> Result<BoxedStage, String> {
    let stream = derive_seed(args.seed, idx as u64);
    if args.multilevel {
        // the coarsest-level eigensolve is the V-cycle's only stochastic
        // point, so reseeding it is what diversifies the attempts
        let mut opts = multilevel_options_for(args);
        opts.ig_match.lanczos.seed = stream;
        return Ok(Box::new(MultilevelStage::new(opts)));
    }
    let ig_match = {
        let mut o = IgMatchOptions {
            weighting: args.weighting,
            refine_free_modules: args.refine,
            ..Default::default()
        };
        o.lanczos.seed = stream;
        o
    };
    Ok(match args.algorithm.as_str() {
        "igmatch" => Box::new(IgMatchStage::new(ig_match)),
        "igvote" => {
            let mut o = IgVoteOptions {
                weighting: args.weighting,
                ..Default::default()
            };
            o.lanczos.seed = stream;
            Box::new(IgVoteStage::new(o))
        }
        "eig1" => {
            let mut o = Eig1Options::default();
            o.lanczos.seed = stream;
            Box::new(Eig1Stage { opts: o })
        }
        "rcut" => Box::new(RcutStage {
            opts: RcutOptions {
                runs: 1,
                seed: stream,
                ..Default::default()
            },
        }),
        // FM draws its random start from the attempt context's seed
        "fm" => Box::new(RandomStartFmStage::default()),
        "kl" => Box::new(KlStage {
            opts: KlOptions {
                runs: 1,
                seed: stream,
                ..Default::default()
            },
        }),
        "hybrid" => Box::new(hybrid_pipeline(&HybridOptions {
            ig_match,
            ..Default::default()
        })),
        "robust" => Box::new(RobustStage {
            opts: RobustOptions {
                ig_match,
                ..Default::default()
            },
        }),
        other => return Err(format!("unknown algorithm '{other}'\n{USAGE}")),
    })
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
    let family = if args.multilevel {
        "multilevel"
    } else {
        args.algorithm.as_str()
    };
    let mut portfolio = Portfolio::new();
    for i in 0..restarts {
        portfolio = portfolio.attempt_boxed(format!("{family}#{i}"), attempt_stage_for(args, i)?);
    }
    let opts = PortfolioOptions {
        threads: args.threads.unwrap_or(0),
        seed: args.seed,
        target_ratio: args.target_ratio,
    };
    let trace = args.trace;
    // same policy as the single-run sink, with an `[attempt:label]` tag
    // so interleaved streams from concurrent attempts stay attributable
    let sink = move |e: &PortfolioEvent<'_>| match e.event {
        StageEvent::Detail { stage, message } => {
            eprintln!("[{}:{}] {stage}: {message}", e.attempt, e.label)
        }
        StageEvent::Started { stage } if trace => {
            eprintln!("[{}:{}] -> {stage}", e.attempt, e.label)
        }
        StageEvent::Finished { stage, outcome } if trace => match outcome {
            Ok(r) => eprintln!(
                "[{}:{}] <- {stage}: ratio {:.3e}",
                e.attempt,
                e.label,
                r.ratio()
            ),
            Err(err) => eprintln!("[{}:{}] <- {stage}: failed: {err}", e.attempt, e.label),
        },
        _ => {}
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
        ig_match: IgMatchOptions {
            weighting: args.weighting,
            refine_free_modules: args.refine,
            ..Default::default()
        },
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
    let ctx = RunContext::with_meter(meter)
        .with_seed(args.seed)
        .with_threads(args.threads.unwrap_or(1));
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
        write_kway_partition(path, &result.partition)?;
        eprintln!("partition written to {path}");
    }
    Ok(())
}

fn write_kway_partition(path: &str, partition: &KwayPartition) -> Result<(), String> {
    let mut out = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    for &b in partition.labels() {
        writeln!(out, "{b}").map_err(|e| format!("write failed: {e}"))?;
    }
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
    let trace = args.trace;
    // details (e.g. IG-Match's matching bound) always go to stderr; the
    // per-stage start/finish stream only with --trace
    let sink = move |e: &StageEvent<'_>| match e {
        StageEvent::Detail { stage, message } => eprintln!("{stage}: {message}"),
        StageEvent::Started { stage } if trace => eprintln!("-> {stage}"),
        StageEvent::Finished { stage, outcome } if trace => match outcome {
            Ok(r) => eprintln!("<- {stage}: ratio {:.3e}", r.ratio()),
            Err(e) => eprintln!("<- {stage}: failed: {e}"),
        },
        _ => {}
    };
    let ctx = RunContext::with_meter(&meter)
        .with_seed(args.seed)
        .with_threads(args.threads.unwrap_or(1))
        .with_events(&sink);

    let (label, partition): (String, Bipartition) = if args.portfolio_mode() {
        run_portfolio_mode(&args, &hg, &meter)?
    } else if args.algorithm == "robust" {
        let opts = RobustOptions {
            ig_match: IgMatchOptions {
                weighting: args.weighting,
                refine_free_modules: args.refine,
                ..Default::default()
            },
            ..Default::default()
        };
        match robust_partition_ctx(&hg, &opts, &ctx) {
            Ok(outcome) => {
                eprintln!("{}", outcome.diagnostics);
                (
                    format!("robust[{}]", outcome.result.algorithm),
                    outcome.result.partition,
                )
            }
            Err(failure) => {
                eprintln!("{}", failure.diagnostics);
                return Err(failure.to_string());
            }
        }
    } else {
        let stage = stage_for(&args)?;
        let r = run_stage(stage.as_ref(), &hg, None, &ctx).map_err(|e| e.to_string())?;
        (r.algorithm.to_string(), r.partition)
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
    if let Some(path) = args.output {
        let mut out =
            std::fs::File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
        for side in partition.sides() {
            writeln!(out, "{}", if *side == Side::Left { 0 } else { 1 })
                .map_err(|e| format!("write failed: {e}"))?;
        }
        eprintln!("partition written to {path}");
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
        assert_eq!(a.algorithm, "igmatch");
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
        assert_eq!(a.algorithm, "rcut");
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
        assert_eq!(a.algorithm, "robust");
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
        for algo in ["igmatch", "igvote", "eig1", "rcut", "fm", "kl", "hybrid"] {
            let a = parse(&["x.hgr", "--algorithm", algo]).unwrap();
            let stage = stage_for(&a).unwrap();
            assert!(!stage.name().is_empty(), "{algo}");
        }
        let bad = parse(&["x.hgr", "--algorithm", "magic"]).unwrap();
        let err = stage_for(&bad)
            .err()
            .expect("unknown algorithm must be rejected");
        assert!(err.contains("unknown algorithm"), "{err}");
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
        assert_eq!(a.algorithm, "fm");
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
        // --threads without a portfolio flag shards the spectral kernels
        // of one run; it must not silently switch to restart mode
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
        assert_eq!(stage_for(&a).unwrap().name(), "multilevel");
        assert_eq!(attempt_stage_for(&a, 0).unwrap().name(), "multilevel");
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
        for algo in [
            "igmatch", "igvote", "eig1", "rcut", "fm", "kl", "hybrid", "robust",
        ] {
            let a = parse(&["x.hgr", "--algorithm", algo, "--restarts", "2"]).unwrap();
            let s0 = attempt_stage_for(&a, 0).unwrap();
            let s1 = attempt_stage_for(&a, 1).unwrap();
            assert!(!s0.name().is_empty(), "{algo}");
            assert_eq!(s0.name(), s1.name(), "{algo}");
        }
        let bad = parse(&["x.hgr", "--algorithm", "magic", "--restarts", "2"]).unwrap();
        assert!(attempt_stage_for(&bad, 0).is_err());
    }
}
