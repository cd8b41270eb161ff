//! Shared machinery for the table-regeneration binaries.
//!
//! Every table and figure of the paper's evaluation (§4) has a binary in
//! `src/bin/` that regenerates it against the synthetic MCNC stand-in
//! suite (see `DESIGN.md` §3 for the experiment index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1` | Table 1 — cut statistics by net size (Primary2) |
//! | `table2` | Table 2 — IG-Match vs RCut1.0 |
//! | `table3` | Table 3 — IG-Match vs IG-Vote |
//! | `eig1_compare` | §4 text — IG-Match vs EIG1 (22% claim) |
//! | `sparsity` | §1.2/§2.1 — intersection-graph vs clique nonzeros |
//! | `timing` | §4 text — spectral vs multi-start FM CPU time |
//! | `ablation_weights` | §2.2 — IG weighting robustness |
//! | `ablation_recursive` | §3 — free-module refinement extension |
//! | `ablation_threshold` | §5 — input sparsification by thresholding |
//! | `ablation_cluster` | §5 — clustering condensation hybrid |
//! | `ablation_areas` | §4 — area-oblivious spectral vs area-aware RCut |
//! | `hybrid` | §5 — IG-Match + ratio-FM post-refinement |
//! | `bounds` | Theorem 1 — per-instance optimality certificates |
//! | `suite_explore` | developer harness for calibrating the suite |
//!
//! Three more binaries gate what the end-to-end benchmark in
//! `benchmark/` cannot:
//!
//! | binary | gate |
//! |---|---|
//! | `sweep` | incremental vs from-scratch IG-Match sweep, bit-identical winners (`BENCH_sweep.json`) |
//! | `multilevel` | V-cycle vs flat cut on the band ladder (`BENCH_multilevel.json`) |
//! | `soak` | np-serve endurance run: no leaked permits, threads or cache bytes |
//!
//! `sweep` and `multilevel` build their rows with `np_runner::json::Obj`
//! and wrap them in one [`record`] envelope,
//! `{"schema": "bench/<name>/v1", "kernel": …, "benchmarks": […]}`, so
//! every record has the same shape and parses with
//! `np_runner::json::parse`.
//!
//! The best-of-N baselines (`table2`'s RCut1.0, `ablation_areas`'
//! area-aware RCut) run their restart loops as `np-runner` portfolios:
//! every start is an independent attempt on a decorrelated seed stream,
//! executed over a scoped worker pool and reduced deterministically by
//! `(score, attempt index)`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use np_netlist::generate::{mcnc_suite, Benchmark};
use np_netlist::CutStats;
use np_runner::json::Obj;
use std::time::{Duration, Instant};

/// One comparison row: a circuit name plus the two contestants' stats.
#[derive(Clone, Debug)]
pub struct ComparisonRow {
    /// Benchmark name (paper's "Test problem" column).
    pub name: String,
    /// Number of modules (paper's "Number of elements").
    pub elements: usize,
    /// Baseline cut statistics.
    pub baseline: CutStats,
    /// Contender (IG-Match etc.) cut statistics.
    pub contender: CutStats,
}

impl ComparisonRow {
    /// Percent improvement of the contender's ratio cut over the
    /// baseline's, as the paper computes it:
    /// `(baseline − contender) / baseline · 100`.
    pub fn improvement_percent(&self) -> f64 {
        let b = self.baseline.ratio();
        let c = self.contender.ratio();
        if !b.is_finite() || b == 0.0 {
            0.0
        } else {
            (b - c) / b * 100.0
        }
    }
}

/// Formats a ratio the way the paper's tables do (e.g. `5.53e-5`).
pub fn fmt_ratio(r: f64) -> String {
    if r.is_finite() {
        format!("{r:.2e}")
    } else {
        "inf".into()
    }
}

/// Prints a paper-style comparison table and returns the average
/// improvement.
pub fn print_comparison(
    title: &str,
    baseline_name: &str,
    contender_name: &str,
    rows: &[ComparisonRow],
) -> f64 {
    println!("\n=== {title} ===");
    println!(
        "{:<8} {:>9} | {:>11} {:>8} {:>10} | {:>11} {:>8} {:>10} | {:>7}",
        "Test", "elements", "areas", "cut", baseline_name, "areas", "cut", contender_name, "impr %"
    );
    let mut sum = 0.0;
    for r in rows {
        println!(
            "{:<8} {:>9} | {:>11} {:>8} {:>10} | {:>11} {:>8} {:>10} | {:>7.0}",
            r.name,
            r.elements,
            r.baseline.areas(),
            r.baseline.cut_nets,
            fmt_ratio(r.baseline.ratio()),
            r.contender.areas(),
            r.contender.cut_nets,
            fmt_ratio(r.contender.ratio()),
            r.improvement_percent()
        );
        sum += r.improvement_percent();
    }
    let avg = sum / rows.len().max(1) as f64;
    println!("average ratio-cut improvement of {contender_name} over {baseline_name}: {avg:.1}%");
    avg
}

/// The benchmark suite used by all experiment binaries.
pub fn suite() -> Vec<Benchmark> {
    mcnc_suite()
}

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Runs `f` `iters` times and returns the last result together with the
/// **minimum** elapsed wall-clock time — the noise-robust point estimate
/// `sweep` reports.
pub fn best_of<T>(iters: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let (mut out, mut best) = timed(&mut f);
    for _ in 1..iters.max(1) {
        let (value, dt) = timed(&mut f);
        if dt < best {
            best = dt;
        }
        out = value;
    }
    (out, best)
}

/// Events per second: `count` events over `wall`. A zero wall records
/// 0 — a rate computed from an unmeasurably fast run carries no
/// information.
pub fn per_sec(count: usize, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

/// The shared JSON envelope of the CI-tracked benchmark binaries,
/// rendered on one line:
/// `{"schema": "bench/<name>/v1", "kernel": …, "benchmarks": [<rows>]}`.
///
/// # Example
///
/// ```
/// use np_runner::json::{parse, Obj};
///
/// let doc = bench::record("demo", "noop", &[Obj::new().str("name", "bm1").int("modules", 882)]);
/// let doc = parse(&doc).unwrap();
/// assert_eq!(doc.get("schema").and_then(|s| s.as_str()), Some("bench/demo/v1"));
/// ```
pub fn record(name: &str, kernel: &str, rows: &[Obj]) -> String {
    Obj::new()
        .str("schema", &format!("bench/{name}/v1"))
        .str("kernel", kernel)
        .array("benchmarks", rows.iter().map(Obj::render))
        .render()
}

/// Writes `json` plus a newline to `path` and logs the destination,
/// exiting with a panic on I/O failure (benchmark binaries have no
/// caller to report to).
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write(path: &str, json: &str) {
    std::fs::write(path, format!("{json}\n"))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("written to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_runner::json::{parse, Value};

    #[test]
    fn improvement_matches_paper_arithmetic() {
        // bm1 row of Table 2: 12.73e-5 -> 5.53e-5 is a 57% improvement
        let row = ComparisonRow {
            name: "bm1".into(),
            elements: 882,
            baseline: CutStats {
                cut_nets: 1,
                left: 9,
                right: 873,
            },
            contender: CutStats {
                cut_nets: 1,
                left: 21,
                right: 861,
            },
        };
        assert!((row.improvement_percent() - 57.0).abs() < 1.0);
    }

    #[test]
    fn fmt_ratio_forms() {
        assert_eq!(fmt_ratio(5.53e-5), "5.53e-5");
        assert_eq!(fmt_ratio(f64::INFINITY), "inf");
    }

    #[test]
    fn record_envelope_round_trips() {
        let rows = [
            Obj::new()
                .str("name", "bm\n\u{1}end")
                .int("modules", 882)
                .num("wall_ms", 1.23456)
                .num("ratio", 5.53e-5),
            Obj::new().str("name", "bm2").int("modules", 7),
        ];
        let json = record("demo", "ci\\runner \"eu-1\"", &rows);
        assert!(!json.contains('\n'), "{json}");
        let doc = parse(&json).unwrap();
        assert_eq!(doc.keys(), Some(vec!["schema", "kernel", "benchmarks"]));
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("bench/demo/v1")
        );
        assert_eq!(
            doc.get("kernel").and_then(Value::as_str),
            Some("ci\\runner \"eu-1\"")
        );
        let Some(Value::Array(benchmarks)) = doc.get("benchmarks") else {
            panic!("benchmarks is not an array: {json}");
        };
        assert_eq!(benchmarks.len(), 2);
        assert_eq!(
            benchmarks[0].get("name").and_then(Value::as_str),
            Some("bm\n\u{1}end")
        );
        assert_eq!(
            benchmarks[0].get("ratio").and_then(Value::as_f64),
            Some(5.53e-5)
        );
        assert_eq!(
            benchmarks[1].get("modules").and_then(Value::as_u64),
            Some(7)
        );
    }

    #[test]
    fn checked_in_records_parse() {
        for name in ["sweep", "multilevel"] {
            let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap();
            let doc = parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert_eq!(doc.keys(), Some(vec!["schema", "kernel", "benchmarks"]));
            let schema = format!("bench/{name}/v1");
            assert_eq!(doc.get("schema").and_then(Value::as_str), Some(&*schema));
            assert!(matches!(doc.get("benchmarks"), Some(Value::Array(rows)) if !rows.is_empty()));
        }
    }

    #[test]
    fn rates_are_events_per_second() {
        assert_eq!(per_sec(500, Duration::from_millis(250)), 2000.0);
        assert_eq!(per_sec(500, Duration::ZERO), 0.0);
    }

    #[test]
    fn best_of_keeps_minimum_and_last_result() {
        let mut runs = 0u32;
        let (last, best) = best_of(5, || {
            runs += 1;
            std::thread::sleep(Duration::from_micros(50));
            runs
        });
        assert_eq!(runs, 5, "exactly `iters` timed runs");
        assert_eq!(last, 5);
        assert!(best >= Duration::from_micros(50));
    }

    #[test]
    fn negative_improvement_possible() {
        let row = ComparisonRow {
            name: "19ks".into(),
            elements: 2844,
            baseline: CutStats {
                cut_nets: 10,
                left: 100,
                right: 100,
            },
            contender: CutStats {
                cut_nets: 11,
                left: 100,
                right: 100,
            },
        };
        assert!(row.improvement_percent() < 0.0);
    }
}
