//! Shared machinery for the table-regeneration binaries.
//!
//! One binary regenerates the paper's claims against the synthetic MCNC
//! stand-in suite (see `DESIGN.md` §3 for the experiment index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `paper` | Tables 1–3, the EIG1 and sparsity claims, the §4 CPU-time claim, the weighting, free-module, FM-polish, thresholding, condensation and module-area ablations and the Theorem-1 certificates in one pass (`BENCH_paper.json`, checked by [`paper_floors`]) |
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
//! `paper`, `sweep` and `multilevel` build their rows with
//! `np_runner::json::Obj` and wrap them in one [`record`] envelope,
//! `{"schema": "bench/<name>/v1", "kernel": …, "benchmarks": […]}`, so
//! every record has the same shape and parses with
//! `np_runner::json::parse`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use np_core::IgWeighting;
use np_netlist::generate::{mcnc_suite, Benchmark};
use np_runner::json::{Obj, Value};
use std::time::{Duration, Instant};

/// Percent improvement of a contender's ratio cut over a baseline's, as
/// the paper computes it: `(baseline − contender) / baseline · 100`
/// (0 against a zero or non-finite baseline).
pub fn improvement_percent(baseline: f64, contender: f64) -> f64 {
    if !baseline.is_finite() || baseline == 0.0 {
        0.0
    } else {
        (baseline - contender) / baseline * 100.0
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
/// `sweep` and `paper` report.
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

/// Number of circuits in the paper's suite (Tables 2 and 3).
const PAPER_CIRCUITS: usize = 9;

/// A floor's measured value, or why it could not be measured.
type Measured = Result<f64, String>;

/// A floor: experiment id, claim, measured value, and the test the value
/// must pass.
type Floor = (&'static str, &'static str, Measured, fn(f64) -> bool);

/// Checks a `bench/paper/v1` record against the floors of the claims
/// `EXPERIMENTS.md` marks reproduced (✅), set at the paper's figure
/// where the paper states one (E2's 28.8%, E5's 10×, E6a's 0.41×).
///
/// Every floor first checks that its baselines are positive (the RCut,
/// IG-Vote and EIG1 ratios, the bound, the nonzero counts, the
/// eigensolve and RCut times), so none holds vacuously on zeros.
/// Returns one message per failed floor, prefixed with its experiment
/// id; an empty list means every floor holds.
pub fn paper_floors(record: &Value) -> Vec<String> {
    let rows = match record.get("benchmarks") {
        Some(Value::Array(rows)) if rows.len() == PAPER_CIRCUITS => rows,
        _ => return vec![format!("record: expected {PAPER_CIRCUITS} circuit rows")],
    };
    let named = |name: &str| {
        let row = rows
            .iter()
            .find(|r| lookup(r, "name").and_then(Value::as_str) == Some(name));
        row.ok_or(format!("no {name} row"))
    };
    let ln_geo = |path: &str| mean(rows, |r| Ok(positive(r, path)?.ln()));
    let e1 = named("Prim2").and_then(|r| {
        positive(r, "table1_cut")?;
        let monotone = lookup(r, "table1_monotone").and_then(Value::as_bool);
        Ok(f64::from(monotone.ok_or("Prim2: no table1_monotone")?))
    });
    let e2 = mean(rows, |r| {
        let rcut = positive(r, "rcut_ratio")?;
        Ok(improvement_percent(rcut, positive(r, "igmatch_ratio")?))
    });
    let e5 = named("Test05").and_then(|r| Ok(positive(r, "clique_nnz")? / positive(r, "ig_nnz")?));
    // the largest share of 10 RCut runs one eigensolve costs
    let e6a = rows.iter().try_fold(0.0f64, |worst, r| {
        Ok(worst.max(positive(r, "ig_eig_ms")? / positive(r, "rcut_x10_ms")?))
    });
    let e6b =
        named("Test05").and_then(|r| Ok(positive(r, "clique_eig_ms")? / positive(r, "ig_eig_ms")?));
    // the largest relative distance of a weighting's geo-mean from the paper's
    let e10 = ln_geo("weighting_ratio.paper").and_then(|paper| {
        IgWeighting::ALL.into_iter().try_fold(0.0f64, |spread, w| {
            let geo = ln_geo(&format!("weighting_ratio.{}", w.name()))?;
            Ok(spread.max(((geo - paper).exp() - 1.0).abs()))
        })
    });
    let e19 =
        ln_geo("rcut_area_ratio").and_then(|rcut| Ok((rcut - ln_geo("igmatch_area_ratio")?).exp()));
    let igm_at_most = |ratio: &str| no_worse(rows, "igmatch_ratio", ratio, 1e-15);
    let at_most_igm = |ratio: &str| no_worse(rows, ratio, "igmatch_ratio", 1e-15);
    let (e3, e4) = (igm_at_most("igvote_ratio"), igm_at_most("eig1_ratio"));
    let (e11, e12) = (at_most_igm("refined_ratio"), at_most_igm("hybrid_ratio"));
    let e18 = no_worse(rows, "bound", "igmatch_ratio", 1e-12);
    let all: fn(f64) -> bool = |x| x == PAPER_CIRCUITS as f64;
    let floors: [Floor; 12] = [
        ("E1", "Table 1 is not monotone", e1, |x| x == 0.0),
        ("E2", "mean gain over RCut >= 28.8%", e2, |x| x >= 28.8),
        ("E3", "IG-Match <= IG-Vote on 9/9", e3, all),
        ("E4", "IG-Match <= EIG1 on 9/9", e4, all),
        ("E5", "Test05 clique/IG nnz >= 10x", e5, |x| x >= 10.0),
        ("E6a", "IG eig <= 0.41x RCut x10, 9/9", e6a, |x| x <= 0.41),
        ("E6b", "Test05 clique/IG eig time >= 2x", e6b, |x| x >= 2.0),
        ("E10", "weightings within 5% of paper", e10, |x| x <= 0.05),
        ("E11", "refined <= IG-Match on 9/9", e11, all),
        ("E12", "IG-Match+FM <= IG-Match on 9/9", e12, all),
        ("E18", "bound <= IG-Match on 9/9", e18, all),
        ("E19", "area RCut / IG-Match geo > 1", e19, |x| x > 1.0),
    ];
    floors
        .into_iter()
        .filter_map(|(id, claim, measured, holds)| match measured {
            Ok(x) if holds(x) => None,
            Ok(x) => Some(format!("{id}: {claim} fails (measured {x})")),
            Err(e) => Some(format!("{id}: {e}")),
        })
        .collect()
}

/// `row[path]` for a dotted `path` (`weighting_ratio.paper`).
fn lookup<'a>(row: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.').try_fold(row, |v, key| v.get(key))
}

/// `row[path]`, which must be a positive finite number.
fn positive(row: &Value, path: &str) -> Measured {
    let name = lookup(row, "name").and_then(Value::as_str).unwrap_or("?");
    match lookup(row, path).and_then(Value::as_f64) {
        Some(x) if x > 0.0 && x.is_finite() => Ok(x),
        Some(x) => Err(format!("{name}: {path} is {x:e}, not positive")),
        None => Err(format!("{name}: no {path}")),
    }
}

fn mean(rows: &[Value], f: impl Fn(&Value) -> Measured) -> Measured {
    Ok(rows.iter().map(f).sum::<Measured>()? / rows.len() as f64)
}

/// On how many rows `row[lhs] ≤ row[rhs] + slack`.
fn no_worse(rows: &[Value], lhs: &str, rhs: &str, slack: f64) -> Measured {
    rows.iter().try_fold(0.0, |n, r| {
        Ok(n + f64::from(positive(r, lhs)? <= positive(r, rhs)? + slack))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_runner::json::{parse, Value};

    #[test]
    fn improvement_matches_paper_arithmetic() {
        // bm1 row of Table 2: 12.73e-5 -> 5.53e-5 is a 57% improvement
        assert!((improvement_percent(12.73e-5, 5.53e-5) - 57.0).abs() < 1.0);
        assert!(improvement_percent(10.0, 11.0) < 0.0);
        assert_eq!(improvement_percent(0.0, 1.0), 0.0);
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
        for name in ["sweep", "multilevel", "paper"] {
            let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap();
            let doc = parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert_eq!(doc.keys(), Some(vec!["schema", "kernel", "benchmarks"]));
            let schema = format!("bench/{name}/v1");
            assert_eq!(doc.get("schema").and_then(Value::as_str), Some(&*schema));
            assert!(matches!(doc.get("benchmarks"), Some(Value::Array(rows)) if !rows.is_empty()));
        }
    }

    /// `v[key]` of an object, mutably.
    fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        let Value::Object(fields) = v else {
            panic!("{key} of a non-object")
        };
        &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    #[test]
    fn paper_floors_hold_on_the_checked_in_record_and_catch_each_regression() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
        let head = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(paper_floors(&head), Vec::<String>::new());
        // (floor, circuit or "*" for all, field, set to `of · factor`; a
        // flag flips instead)
        let cases = [
            ("E1", "Prim2", "table1_monotone", "table1_monotone", 1.0),
            // a mean improvement over RCut of 28.7%
            (
                "E2",
                "*",
                "rcut_ratio",
                "igmatch_ratio",
                1.0 / (1.0 - 0.287),
            ),
            ("E2", "bm1", "rcut_ratio", "rcut_ratio", 0.0),
            ("E3", "19ks", "igvote_ratio", "igmatch_ratio", 0.99),
            ("E3", "19ks", "igvote_ratio", "igvote_ratio", 0.0),
            ("E4", "Test06", "eig1_ratio", "igmatch_ratio", 0.99),
            ("E4", "Test06", "eig1_ratio", "eig1_ratio", 0.0),
            ("E5", "Test05", "clique_nnz", "ig_nnz", 9.9),
            ("E5", "Test05", "ig_nnz", "ig_nnz", 0.0),
            ("E6a", "Prim2", "ig_eig_ms", "rcut_x10_ms", 0.42),
            ("E6a", "Prim2", "rcut_x10_ms", "rcut_x10_ms", 0.0),
            // a zero IG time would hold vacuously without the positivity check
            ("E6a", "Prim2", "ig_eig_ms", "ig_eig_ms", 0.0),
            ("E6b", "Test05", "clique_eig_ms", "ig_eig_ms", 1.9),
            // zeroing Test05's IG time would trip E6a too
            ("E6b", "Test05", "clique_eig_ms", "clique_eig_ms", 0.0),
            (
                "E10",
                "*",
                "weighting_ratio.uniform",
                "weighting_ratio.paper",
                1.051,
            ),
            ("E11", "Prim1", "refined_ratio", "igmatch_ratio", 1.01),
            ("E12", "Prim1", "hybrid_ratio", "igmatch_ratio", 1.01),
            ("E18", "Test03", "bound", "igmatch_ratio", 1.01),
            ("E18", "Test03", "bound", "bound", 0.0),
            ("E19", "*", "rcut_area_ratio", "igmatch_area_ratio", 1.0),
        ];
        for (id, circuit, path, of, factor) in cases {
            let mut doc = head.clone();
            let Value::Array(rows) = field(&mut doc, "benchmarks") else {
                unreachable!()
            };
            let picked = |r: &&mut Value| {
                circuit == "*" || lookup(r, "name").and_then(Value::as_str) == Some(circuit)
            };
            for row in rows.iter_mut().filter(picked) {
                let new = match lookup(row, of) {
                    Some(Value::Bool(flag)) => Value::Bool(!flag),
                    v => Value::Number(v.and_then(Value::as_f64).unwrap() * factor),
                };
                *path.split('.').fold(row, |v, key| field(v, key)) = new;
            }
            let failures = paper_floors(&doc);
            assert!(
                !failures.is_empty(),
                "{id}: {path} perturbation not reported"
            );
            for f in &failures {
                assert!(f.starts_with(&format!("{id}: ")), "{id} perturbation: {f}");
            }
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
}
