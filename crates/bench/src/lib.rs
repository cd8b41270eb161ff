//! Shared machinery for the table-regeneration binaries and timing
//! benches.
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
//! | `portfolio` | best-of-16 portfolio tracking (`BENCH_portfolio.json`) |
//! | `spectral` | operator cache + sharded SpMV vs serial rebuilds (`BENCH_spectral.json`) |
//! | `sweep` | incremental vs from-scratch IG-Match sweep (`BENCH_sweep.json`) |
//! | `suite_explore` | developer harness for calibrating the suite |
//!
//! The CI-tracked binaries (`portfolio`, `spectral`, `sweep`) emit their
//! JSON records through the shared [`BenchReport`] harness and take their
//! noise-robust point estimates from [`best_of`], so every record carries
//! the same `{"schema": "bench/<name>/v1", ..., "benchmarks": [...]}`
//! envelope.
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
use np_runner::escape_json;
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
/// **minimum** elapsed wall-clock time — the standard noise-robust point
/// estimate all CI-tracked benchmark binaries report.
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

/// One benchmark record of a [`BenchReport`]: an ordered list of
/// key/value fields rendered as a JSON object.
///
/// The build environment has no JSON crate, so values are rendered at
/// insertion time by typed builder methods; string values pass through
/// [`escape_json`], while keys are expected to be plain identifiers (no
/// escaping is performed).
#[derive(Clone, Debug, Default)]
pub struct BenchEntry {
    fields: Vec<(String, String)>,
}

impl BenchEntry {
    /// An empty record.
    pub fn new() -> Self {
        BenchEntry::default()
    }

    /// Adds a string field.
    #[must_use]
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields.push((key.into(), escape_json(value)));
        self
    }

    /// Adds an integer field.
    #[must_use]
    pub fn int(mut self, key: &str, value: usize) -> Self {
        self.fields.push((key.into(), value.to_string()));
        self
    }

    /// Adds a fixed-point field (three decimals — the convention for
    /// millisecond timings and speedups).
    #[must_use]
    pub fn fixed(mut self, key: &str, value: f64) -> Self {
        self.fields.push((key.into(), format!("{value:.3}")));
        self
    }

    /// Adds a scientific-notation field (the convention for ratio cuts).
    #[must_use]
    pub fn sci(mut self, key: &str, value: f64) -> Self {
        self.fields.push((key.into(), format!("{value:e}")));
        self
    }

    /// Adds a throughput field: `count` events over `wall`, rendered as
    /// events per second. A zero wall records 0 — a rate computed from
    /// an unmeasurably fast run carries no information.
    #[must_use]
    pub fn rate(self, key: &str, count: usize, wall: Duration) -> Self {
        let secs = wall.as_secs_f64();
        let per_sec = if secs > 0.0 { count as f64 / secs } else { 0.0 };
        self.fixed(key, per_sec)
    }

    fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("    {{{}}}", body.join(", "))
    }
}

/// The shared JSON envelope of the CI-tracked benchmark binaries:
/// `{"schema": "bench/<name>/v1", <meta...>, "benchmarks": [<entries>]}`.
///
/// # Example
///
/// ```
/// use bench::{BenchEntry, BenchReport};
///
/// let mut report = BenchReport::new("demo");
/// report.meta("kernel", "noop");
/// report.push(BenchEntry::new().str("name", "bm1").int("modules", 882));
/// assert!(report.to_json().contains("\"schema\": \"bench/demo/v1\""));
/// ```
#[derive(Clone, Debug)]
pub struct BenchReport {
    schema: String,
    meta: Vec<(String, String)>,
    entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// A report for schema `bench/<name>/v1` with no records yet.
    pub fn new(name: &str) -> Self {
        BenchReport {
            schema: format!("bench/{name}/v1"),
            meta: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Adds a top-level string field after `"schema"` (e.g. the kernel or
    /// algorithm the record tracks).
    pub fn meta(&mut self, key: &str, value: &str) {
        self.meta.push((key.into(), escape_json(value)));
    }

    /// Appends one benchmark record.
    pub fn push(&mut self, entry: BenchEntry) {
        self.entries.push(entry);
    }

    /// Renders the full JSON document (trailing newline included).
    pub fn to_json(&self) -> String {
        let mut top = vec![format!("  \"schema\": \"{}\"", self.schema)];
        top.extend(self.meta.iter().map(|(k, v)| format!("  \"{k}\": {v}")));
        let entries: Vec<String> = self.entries.iter().map(BenchEntry::render).collect();
        format!(
            "{{\n{},\n  \"benchmarks\": [\n{}\n  ]\n}}\n",
            top.join(",\n"),
            entries.join(",\n")
        )
    }

    /// Writes the document to `path` and logs the destination, exiting
    /// with a panic on I/O failure (benchmark binaries have no caller to
    /// report to).
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.to_json()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("written to {path}");
    }
}

/// Minimal micro-benchmark runner for the `benches/` targets: one warmup
/// run, then `iters` timed runs, printing the minimum and mean
/// per-iteration wall-clock time. (The build environment has no external
/// benchmarking framework; `cargo bench` drives these harness-free
/// binaries directly.)
pub fn bench_case<T>(label: &str, iters: usize, mut f: impl FnMut() -> T) {
    std::hint::black_box(f());
    let mut best = Duration::MAX;
    let mut total = Duration::ZERO;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        std::hint::black_box(f());
        let dt = start.elapsed();
        best = best.min(dt);
        total += dt;
    }
    let mean = total / iters.max(1) as u32;
    println!("{label:<44} min {best:>12.3?}  mean {mean:>12.3?}");
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn report_envelope_shape() {
        let mut report = BenchReport::new("demo");
        report.meta("algorithm", "noop");
        report.push(
            BenchEntry::new()
                .str("name", "bm1")
                .int("modules", 882)
                .fixed("wall_ms", 1.23456)
                .sci("ratio", 5.53e-5),
        );
        report.push(BenchEntry::new().str("name", "bm2").int("modules", 7));
        assert_eq!(
            report.to_json(),
            "{\n  \"schema\": \"bench/demo/v1\",\n  \"algorithm\": \"noop\",\n  \
             \"benchmarks\": [\n    {\"name\": \"bm1\", \"modules\": 882, \
             \"wall_ms\": 1.235, \"ratio\": 5.53e-5},\n    \
             {\"name\": \"bm2\", \"modules\": 7}\n  ]\n}\n"
        );
    }

    #[test]
    fn rate_fields_are_events_per_second() {
        let entry = BenchEntry::new()
            .rate("moves_per_sec", 500, Duration::from_millis(250))
            .rate("degenerate", 500, Duration::ZERO);
        let rendered = entry.render();
        assert!(
            rendered.contains("\"moves_per_sec\": 2000.000"),
            "{rendered}"
        );
        assert!(rendered.contains("\"degenerate\": 0.000"), "{rendered}");
    }

    #[test]
    fn string_fields_are_escaped() {
        let mut report = BenchReport::new("demo");
        report.meta("host", "ci\\runner \"eu-1\"");
        report.push(BenchEntry::new().str("name", "bm\n\u{1}end"));
        let json = report.to_json();
        assert!(json.contains("\"host\": \"ci\\\\runner \\\"eu-1\\\"\""));
        assert!(json.contains("\"name\": \"bm\\n\\u0001end\""));
        assert!(json.chars().all(|c| c == '\n' || (c as u32) >= 0x20));
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
