//! Portfolio run reports and their JSON serialization.

use crate::json::Obj;
use crate::{PortfolioOptions, Slot};
use std::fmt;
use std::time::Duration;

/// Schema tag embedded in every serialized report, so downstream tooling
/// can detect format drift.
pub const REPORT_SCHEMA: &str = "np-runner/portfolio-report/v2";

/// What happened to one portfolio attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttemptStatus {
    /// Completed and won the reduction.
    Won,
    /// Completed but lost the reduction.
    Completed,
    /// Started, then tripped on the shared cancel flag (target ratio
    /// reached elsewhere, or an external [`BudgetMeter::cancel`]).
    ///
    /// [`BudgetMeter::cancel`]: np_sparse::BudgetMeter::cancel
    Cancelled,
    /// Started, then ran out of the shared matvec or wall-clock budget.
    BudgetExhausted,
    /// Started, then failed with an algorithmic error.
    Failed,
    /// Started, then panicked; the panic was contained at the attempt
    /// boundary ([`std::panic::catch_unwind`]) so the rest of the
    /// portfolio kept running.
    Panicked,
    /// Never started: the shared budget was already exhausted or
    /// cancelled when the attempt came up in the queue.
    Skipped,
}

impl AttemptStatus {
    /// Stable lowercase identifier used in the JSON report.
    pub fn as_str(self) -> &'static str {
        match self {
            AttemptStatus::Won => "won",
            AttemptStatus::Completed => "completed",
            AttemptStatus::Cancelled => "cancelled",
            AttemptStatus::BudgetExhausted => "budget-exhausted",
            AttemptStatus::Failed => "failed",
            AttemptStatus::Panicked => "panicked",
            AttemptStatus::Skipped => "skipped",
        }
    }
}

impl fmt::Display for AttemptStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Record of a single attempt: outcome, quality, cost.
#[derive(Clone, Debug)]
pub struct AttemptReport {
    /// Attempt index (also the reduction tie-break).
    pub index: usize,
    /// The attempt's label.
    pub label: String,
    /// What happened.
    pub status: AttemptStatus,
    /// Name of the algorithm that produced the result, if one completed.
    pub algorithm: Option<String>,
    /// Ratio cut of the attempt's partition, if one completed.
    pub ratio: Option<f64>,
    /// Net cut of the attempt's partition, if one completed.
    pub cut_nets: Option<usize>,
    /// The attempt's reduction score (equals `ratio` unless the caller
    /// supplied a custom objective), if one completed.
    pub score: Option<f64>,
    /// The error message, for failed / cancelled / budget-tripped runs.
    pub error: Option<String>,
    /// Wall time the attempt spent executing (zero for skipped).
    pub wall: Duration,
    /// Matvec-equivalents the attempt charged to the shared pool.
    pub charge: u64,
}

/// Full record of one portfolio run — per-attempt outcomes plus the
/// reduction verdict. Serializable to JSON via
/// [`PortfolioReport::to_json`].
#[derive(Clone, Debug)]
pub struct PortfolioReport {
    /// Effective worker-thread count.
    pub threads: usize,
    /// The early-stop target, if one was set.
    pub target_ratio: Option<f64>,
    /// Wall time of the whole portfolio.
    pub wall: Duration,
    /// `true` if the run ended cancelled (target reached or external
    /// cancel), i.e. some attempts may not represent full effort.
    pub cancelled: bool,
    /// Index of the winning attempt, if any completed.
    pub winner: Option<usize>,
    /// The winner's reduction score, if any attempt completed.
    pub best_score: Option<f64>,
    /// One record per attempt, in index order.
    pub attempts: Vec<AttemptReport>,
}

impl PortfolioReport {
    /// Serializes the report as one line of JSON (see [`REPORT_SCHEMA`]).
    /// Absent values are `null`; floats use `{:e}`, which parses back to
    /// the same bits.
    pub fn to_json(&self) -> String {
        let attempts = self.attempts.iter().map(|a| {
            let obj = Obj::new()
                .int("index", a.index as u64)
                .str("label", &a.label)
                .str("status", a.status.as_str());
            let obj = opt(obj, "algorithm", a.algorithm.as_deref(), Obj::str);
            let obj = opt(obj, "ratio", a.ratio, Obj::num);
            let obj = opt(obj, "cut_nets", a.cut_nets.map(|c| c as u64), Obj::int);
            let obj = opt(obj, "score", a.score, Obj::num)
                .num("wall_ms", a.wall.as_secs_f64() * 1e3)
                .int("charge", a.charge);
            opt(obj, "error", a.error.as_deref(), Obj::str).render()
        });
        let obj = Obj::new()
            .str("schema", REPORT_SCHEMA)
            .int("threads", self.threads as u64);
        let obj = opt(obj, "target_ratio", self.target_ratio, Obj::num)
            .num("wall_ms", self.wall.as_secs_f64() * 1e3)
            .bool("cancelled", self.cancelled);
        let obj = opt(obj, "winner", self.winner.map(|w| w as u64), Obj::int);
        opt(obj, "best_score", self.best_score, Obj::num)
            .array("attempts", attempts)
            .render()
    }
}

/// Adds `value` under `key` with `put`, or `null` when it is absent.
fn opt<T>(
    obj: Obj,
    key: &'static str,
    value: Option<T>,
    put: fn(Obj, &'static str, T) -> Obj,
) -> Obj {
    match value {
        Some(v) => put(obj, key, v),
        None => obj.null(key),
    }
}

/// Builds the attempt record out of a finished worker slot.
pub(crate) fn of_slot(index: usize, label: &str, slot: &Slot) -> AttemptReport {
    AttemptReport {
        index,
        label: label.to_string(),
        status: slot.status,
        algorithm: slot.result.as_ref().map(|r| r.algorithm.to_string()),
        ratio: slot.result.as_ref().map(|r| r.ratio()),
        cut_nets: slot.result.as_ref().map(|r| r.stats.cut_nets),
        score: slot.result.as_ref().map(|_| slot.score),
        error: slot.error.as_ref().map(|e| e.to_string()),
        wall: slot.wall,
        charge: slot.charge,
    }
}

/// Builds the run-level report.
pub(crate) fn assemble(
    opts: &PortfolioOptions,
    threads: usize,
    wall: Duration,
    cancelled: bool,
    best_score: Option<f64>,
    attempts: Vec<AttemptReport>,
) -> PortfolioReport {
    let winner = attempts
        .iter()
        .find(|a| a.status == AttemptStatus::Won)
        .map(|a| a.index);
    PortfolioReport {
        threads,
        target_ratio: opts.target_ratio,
        wall,
        cancelled,
        winner,
        best_score,
        attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn sample_report() -> PortfolioReport {
        PortfolioReport {
            threads: 2,
            target_ratio: Some(0.1 + 0.2),
            wall: Duration::from_nanos(12_345_678_901),
            cancelled: false,
            winner: Some(1),
            best_score: Some(1.0 / 3.0),
            attempts: vec![
                AttemptReport {
                    index: 0,
                    label: "RCut#0".into(),
                    status: AttemptStatus::Completed,
                    algorithm: Some("RCut1.0".into()),
                    ratio: Some(5.53e-5),
                    cut_nets: Some(3),
                    score: Some(5.53e-5),
                    error: None,
                    wall: Duration::from_nanos(5_000_001),
                    charge: 42,
                },
                AttemptReport {
                    index: 1,
                    label: "weird \"label\"\n".into(),
                    status: AttemptStatus::Won,
                    algorithm: Some("IG-Match".into()),
                    ratio: Some(1.0 / 3.0),
                    cut_nets: Some(1),
                    score: Some(1.0 / 3.0),
                    error: None,
                    wall: Duration::from_millis(7),
                    charge: 17,
                },
                AttemptReport {
                    index: 2,
                    label: "FM#2".into(),
                    status: AttemptStatus::Panicked,
                    algorithm: None,
                    ratio: None,
                    cut_nets: None,
                    score: None,
                    error: Some("panicked at 'boom\nline two'\r\u{7}".into()),
                    wall: Duration::ZERO,
                    charge: 0,
                },
            ],
        }
    }

    /// `null` for `None`, else the field parsed by `get`.
    fn field<T: PartialEq + std::fmt::Debug>(
        doc: &Value,
        key: &str,
        want: Option<T>,
        get: impl Fn(&Value) -> Option<T>,
    ) {
        let v = doc.get(key).unwrap_or_else(|| panic!("missing {key}"));
        match want {
            Some(w) => assert_eq!(get(v), Some(w), "{key}"),
            None => assert_eq!(v, &Value::Null, "{key}"),
        }
    }

    fn bits(v: &Value) -> Option<u64> {
        v.as_f64().map(f64::to_bits)
    }

    fn text(v: &Value) -> Option<String> {
        v.as_str().map(str::to_string)
    }

    /// Parses `r.to_json()` and checks every field against `r`: strings
    /// unescape to the originals, absent values are `null`, and floats
    /// come back bit for bit.
    fn assert_round_trip(r: &PortfolioReport) {
        let json = r.to_json();
        assert!(!json.contains('\n'), "one line: {json}");
        let doc = parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        let ms = |d: Duration| (d.as_secs_f64() * 1e3).to_bits();
        let keys = [
            "schema",
            "threads",
            "target_ratio",
            "wall_ms",
            "cancelled",
            "winner",
            "best_score",
            "attempts",
        ];
        assert_eq!(doc.keys().unwrap(), keys);
        field(&doc, "schema", Some(REPORT_SCHEMA.to_string()), text);
        field(&doc, "threads", Some(r.threads as u64), Value::as_u64);
        field(&doc, "target_ratio", r.target_ratio.map(f64::to_bits), bits);
        field(&doc, "wall_ms", Some(ms(r.wall)), bits);
        field(&doc, "cancelled", Some(r.cancelled), Value::as_bool);
        field(&doc, "winner", r.winner.map(|w| w as u64), Value::as_u64);
        field(&doc, "best_score", r.best_score.map(f64::to_bits), bits);
        let Some(Value::Array(attempts)) = doc.get("attempts") else {
            panic!("attempts is not an array: {json}");
        };
        assert_eq!(attempts.len(), r.attempts.len());
        for (got, a) in attempts.iter().zip(&r.attempts) {
            field(got, "index", Some(a.index as u64), Value::as_u64);
            field(got, "label", Some(a.label.clone()), text);
            field(got, "status", Some(a.status.as_str().to_string()), text);
            field(got, "algorithm", a.algorithm.clone(), text);
            field(got, "ratio", a.ratio.map(f64::to_bits), bits);
            field(got, "cut_nets", a.cut_nets.map(|c| c as u64), Value::as_u64);
            field(got, "score", a.score.map(f64::to_bits), bits);
            field(got, "wall_ms", Some(ms(a.wall)), bits);
            field(got, "charge", Some(a.charge), Value::as_u64);
            field(got, "error", a.error.clone(), text);
        }
    }

    #[test]
    fn json_round_trips_every_field() {
        // labels and error strings are caller- (or panic-payload-)
        // controlled; they must come back unchanged whatever they hold
        assert_round_trip(&sample_report());
    }

    #[test]
    fn json_absent_values_are_null() {
        let mut r = sample_report();
        r.target_ratio = None;
        r.winner = None;
        r.best_score = None;
        r.cancelled = true;
        assert_round_trip(&r);
    }

    #[test]
    fn empty_attempt_list_closes_array() {
        let mut r = sample_report();
        r.attempts.clear();
        r.winner = None;
        r.best_score = None;
        assert!(r.to_json().contains("\"attempts\":[]"));
        assert_round_trip(&r);
    }

    #[test]
    fn non_finite_floats_are_null() {
        let mut r = sample_report();
        r.best_score = Some(f64::INFINITY);
        r.attempts[0].ratio = Some(f64::NAN);
        let doc = parse(&r.to_json()).unwrap();
        assert_eq!(doc.get("best_score"), Some(&Value::Null));
        let Some(Value::Array(attempts)) = doc.get("attempts") else {
            panic!("attempts is not an array");
        };
        assert_eq!(attempts[0].get("ratio"), Some(&Value::Null));
    }

    #[test]
    fn status_strings_are_stable() {
        assert_eq!(AttemptStatus::Won.to_string(), "won");
        assert_eq!(AttemptStatus::BudgetExhausted.as_str(), "budget-exhausted");
        assert_eq!(AttemptStatus::Skipped.as_str(), "skipped");
    }
}
