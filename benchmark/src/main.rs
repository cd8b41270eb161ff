//! End-to-end benchmark of the np-part routes and of np-serve.
//!
//! ```text
//! benchmark --workload bisect-suite|kway-suite|vcycle-mix|serve-open
//!           --seed N --seconds S --trace 0|1 --np-serve PATH
//! ```
//!
//! Builds its inputs from the seed, measures one workload for about `S`
//! seconds, checks every output, and prints one JSON line as the last
//! line of stdout: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! same workload runs with traced replays and the metrics are the
//! per-layer ones. Progress and diagnostics go to stderr. `run.sh` builds
//! np-serve and this binary from source and passes `--np-serve`.

mod batch;
mod host;
mod inputs;
mod replay;
mod serve;
mod stats;

use batch::Route;
use np_serve::json::Obj;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics (name, unit), reported with `--trace 0`. Times of
/// compute in closed loops are scaled to the reference host speed (see
/// `host`).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("objective_geo", "ratio"),
];

/// Per-layer metrics (name, unit), reported with `--trace 1`. A layer
/// the workload's route never enters reports 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("netlist.parse_ms", "ms"),
    ("models.op_build_ms", "ms"),
    ("models.neighbors_ms", "ms"),
    ("models.op_nnz", "count"),
    ("eigen.lanczos_ms", "ms"),
    ("eigen.matvecs", "count"),
    ("eigen.matvecs_per_s", "1/s"),
    ("eigen.nonconverged", "count"),
    ("sparse.shard_speedup", "ratio"),
    ("igmatch.sweep_ms", "ms"),
    ("igmatch.moves", "count"),
    ("igmatch.moves_per_s", "1/s"),
    ("baselines.refine_ms", "ms"),
    ("baselines.fm_fallback_ms", "ms"),
    ("multilevel.coarsen_ms", "ms"),
    ("multilevel.levels", "count"),
    ("multilevel.coarse_modules", "count"),
    ("multilevel.coarse_nets", "count"),
    ("multilevel.initial_ms", "ms"),
    ("multilevel.uncoarsen_ms", "ms"),
    ("kway.top_bisect_ms", "ms"),
    ("kway.rest_ms", "ms"),
    ("bounds.gap_geo", "ratio"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p90_ms", "ms"),
    ("serve.compute_p50_ms", "ms"),
    ("serve.compute_hit_p50_ms", "ms"),
    ("serve.compute_miss_p50_ms", "ms"),
    ("serve.transport_p50_ms", "ms"),
    ("serve.cache_hit_share", "share"),
    ("serve.tier_share.portfolio", "share"),
    ("serve.tier_share.insurance", "share"),
    ("serve.tier_share.fm-fallback", "share"),
    ("serve.degraded_share", "share"),
    ("serve.gen_lag_p90_ms", "ms"),
    ("serve.p90_ms_r1", "ms"),
    ("serve.p90_ms_r3", "ms"),
    ("serve.max_rps_slo", "1/s"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead_share", "share"),
    ("host.reference_ms", "ms"),
];

/// What a workload measured: metric values by name, plus the operation
/// counts and any output-check violations.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    failed: u64,
    violations: u64,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// An operation failed (an error, a shed, a missing answer).
    pub fn fail(&mut self, what: String) {
        eprintln!("failed: {what}");
        self.failed += 1;
    }

    /// An output check failed; the operation also counts as failed.
    pub fn violate(&mut self, what: String) {
        eprintln!("check violated: {what}");
        self.failed += 1;
        self.violations += 1;
    }

    /// The result line. Every metric of `table` must be present, except
    /// that per-layer metrics of layers the route never entered are 0.
    fn render(&self, table: &[(&'static str, &str)], fill_missing: bool) -> Result<String, String> {
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !table.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric '{extra}' is not in the reported table"));
        }
        let mut metrics = Obj::new();
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if fill_missing => 0.0,
                None => return Err(format!("metric '{name}' was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric '{name}' is {value}"));
            }
            metrics = metrics.raw(
                name,
                Obj::new().num("value", value).str("unit", unit).render(),
            );
        }
        Ok(Obj::new()
            .bool("correct", self.violations == 0)
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .raw("metrics", metrics.render())
            .render())
    }
}

const WORKLOADS: [&str; 4] = ["bisect-suite", "kway-suite", "vcycle-mix", "serve-open"];

const USAGE: &str = "usage: benchmark --workload bisect-suite|kway-suite|vcycle-mix|serve-open \
                     --seed N --seconds S --trace 0|1 --np-serve PATH";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    np_serve: String,
}

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut np_serve = None;
    let mut iter = args.into_iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload '{value}'")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got '{value}'"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got '{value}'")),
                })
            }
            "--np-serve" => np_serve = Some(value),
            _ => return Err(format!("unexpected argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        np_serve: np_serve.ok_or("--np-serve is required")?,
    })
}

fn run(args: &Args) -> Result<Metrics, String> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "bisect-suite" => batch::run(Route::Bisect, &inputs::suite(seed), seconds, trace),
        "kway-suite" => batch::run(Route::Kway, &inputs::suite(seed), seconds, trace),
        "vcycle-mix" => batch::run(Route::Vcycle, &inputs::vcycle_mix(seed)?, seconds, trace),
        "serve-open" => serve::run(&args.np_serve, seed, seconds, trace),
        other => unreachable!("workload '{other}' passed validation"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let line = run(&args).and_then(|m| Ok((m.render(table, args.trace)?, m.violations)));
    match line {
        Ok((line, violations)) => {
            println!("{line}");
            if violations == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_serve::json::{self, Value};

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_line_arguments_parse() {
        let a = parse(&[
            "--workload",
            "kway-suite",
            "--seed",
            "2",
            "--seconds",
            "20",
            "--trace",
            "1",
            "--np-serve",
            "x",
        ])
        .unwrap();
        assert_eq!(a.workload, "kway-suite");
        assert_eq!((a.seed, a.seconds, a.trace), (2, 20.0, true));
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "-1"][..],
            &["--seconds", "0"][..],
            &["--trace", "yes"][..],
            &["--workload"][..],
            &["--seed", "1"][..],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics {
            attempted: 3,
            ..Default::default()
        };
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let doc = json::parse(&m.render(&END_TO_END, false).unwrap()).unwrap();
        assert_eq!(
            doc.keys().unwrap(),
            ["correct", "attempted", "failed", "metrics"]
        );
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        let wall = doc.get("metrics").and_then(|v| v.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(1.5));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
        // an end-to-end metric may not silently default
        let mut partial = Metrics::default();
        partial.set("wall_s", 1.0);
        assert!(partial.render(&END_TO_END, false).is_err());
        // per-layer metrics of untouched layers read 0
        assert!(
            partial.render(&PER_LAYER, true).is_err(),
            "wall_s is not a layer metric"
        );
        let doc = json::parse(&Metrics::default().render(&PER_LAYER, true).unwrap()).unwrap();
        assert_eq!(
            doc.get("metrics").unwrap().keys().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn violations_make_the_run_incorrect() {
        let mut m = Metrics::default();
        m.fail("shed".into());
        let doc = json::parse(&m.render(&PER_LAYER, true).unwrap()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        m.violate("bad cut".into());
        let doc = json::parse(&m.render(&PER_LAYER, true).unwrap()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Value::as_u64), Some(2));
    }

    /// BENCHMARK.json at the repository root must list exactly the
    /// workloads and metrics this binary reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k| {
                            m.get(k)
                                .and_then(Value::as_str)
                                .unwrap_or_default()
                                .to_string()
                        };
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json lacks '{key}'"),
            }
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
