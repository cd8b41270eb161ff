//! Portfolio run reports and their JSON serialization.
//!
//! The JSON writer is hand-rolled (this workspace carries no external
//! dependencies): the schema is flat, every string passes through
//! [`escape_json`], and non-finite floats serialize as `null`.

use crate::{PortfolioOptions, Slot};
use std::fmt;
use std::time::Duration;

/// Schema tag embedded in every serialized report, so downstream tooling
/// can detect format drift.
pub const REPORT_SCHEMA: &str = "np-runner/portfolio-report/v1";

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
    /// Attempt index (also the seed stream and the reduction tie-break).
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
    /// Base seed the portfolio ran with.
    pub seed: u64,
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
    /// Serializes the report as a self-contained JSON object (no
    /// external dependencies; see [`REPORT_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 192 * self.attempts.len());
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", escape_json(REPORT_SCHEMA)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!(
            "  \"target_ratio\": {},\n",
            json_f64(self.target_ratio)
        ));
        out.push_str(&format!(
            "  \"wall_ms\": {},\n",
            json_f64(Some(self.wall.as_secs_f64() * 1e3))
        ));
        out.push_str(&format!("  \"cancelled\": {},\n", self.cancelled));
        out.push_str(&format!("  \"winner\": {},\n", json_usize(self.winner)));
        out.push_str(&format!(
            "  \"best_score\": {},\n",
            json_f64(self.best_score)
        ));
        out.push_str("  \"attempts\": [");
        for (i, a) in self.attempts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"index\": {}, ", a.index));
            out.push_str(&format!("\"label\": {}, ", escape_json(&a.label)));
            out.push_str(&format!("\"status\": {}, ", escape_json(a.status.as_str())));
            out.push_str(&format!(
                "\"algorithm\": {}, ",
                json_opt_string(a.algorithm.as_deref())
            ));
            out.push_str(&format!("\"ratio\": {}, ", json_f64(a.ratio)));
            out.push_str(&format!("\"cut_nets\": {}, ", json_usize(a.cut_nets)));
            out.push_str(&format!("\"score\": {}, ", json_f64(a.score)));
            out.push_str(&format!(
                "\"wall_ms\": {}, ",
                json_f64(Some(a.wall.as_secs_f64() * 1e3))
            ));
            out.push_str(&format!("\"charge\": {}, ", a.charge));
            out.push_str(&format!(
                "\"error\": {}",
                json_opt_string(a.error.as_deref())
            ));
            out.push('}');
        }
        if !self.attempts.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
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
        seed: opts.seed,
        threads,
        target_ratio: opts.target_ratio,
        wall,
        cancelled,
        winner,
        best_score,
        attempts,
    }
}

/// Renders `s` as a JSON string literal (quotes included), escaping
/// quotes, backslashes and control characters. This is the workspace's
/// one JSON string escaper: the portfolio report, the `np-serve` wire
/// frames and the bench records all write strings through it.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_opt_string(s: Option<&str>) -> String {
    match s {
        Some(s) => escape_json(s),
        None => "null".to_string(),
    }
}

/// Finite floats print with full round-trip precision; `None` and
/// non-finite values become `null` (JSON has no NaN/inf).
fn json_f64(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => {
            // `{}` on f64 is round-trip exact in Rust but prints
            // integral values without a decimal point, which some JSON
            // consumers type as int — force a float spelling
            let s = format!("{v}");
            if s.contains('.') || s.contains('e') || s.contains('E') {
                s
            } else {
                format!("{s}.0")
            }
        }
        _ => "null".to_string(),
    }
}

fn json_usize(v: Option<usize>) -> String {
    match v {
        Some(v) => format!("{v}"),
        None => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> PortfolioReport {
        PortfolioReport {
            seed: 7,
            threads: 2,
            target_ratio: None,
            wall: Duration::from_millis(12),
            cancelled: false,
            winner: Some(1),
            best_score: Some(0.25),
            attempts: vec![
                AttemptReport {
                    index: 0,
                    label: "RCut#0".into(),
                    status: AttemptStatus::Completed,
                    algorithm: Some("RCut1.0".into()),
                    ratio: Some(0.5),
                    cut_nets: Some(3),
                    score: Some(0.5),
                    error: None,
                    wall: Duration::from_millis(5),
                    charge: 42,
                },
                AttemptReport {
                    index: 1,
                    label: "weird \"label\"\n".into(),
                    status: AttemptStatus::Won,
                    algorithm: Some("IG-Match".into()),
                    ratio: Some(0.25),
                    cut_nets: Some(1),
                    score: Some(0.25),
                    error: None,
                    wall: Duration::from_millis(7),
                    charge: 17,
                },
            ],
        }
    }

    #[test]
    fn json_contains_schema_and_fields() {
        let json = sample_report().to_json();
        assert!(json.contains("\"schema\": \"np-runner/portfolio-report/v1\""));
        assert!(json.contains("\"seed\": 7"));
        assert!(json.contains("\"winner\": 1"));
        assert!(json.contains("\"best_score\": 0.25"));
        assert!(json.contains("\"status\": \"won\""));
        assert!(json.contains("\"target_ratio\": null"));
    }

    #[test]
    fn json_escapes_strings() {
        // labels and error strings are caller- (or panic-payload-)
        // controlled; the report must stay valid JSON whatever they hold
        let mut r = sample_report();
        r.attempts[0].status = AttemptStatus::Panicked;
        r.attempts[0].error = Some("panicked at 'boom\nline two'\r\u{7}".into());
        let json = r.to_json();
        assert!(json.contains("\"weird \\\"label\\\"\\n\""), "{json}");
        assert!(
            json.contains("\"panicked at 'boom\\nline two'\\r\\u0007\""),
            "{json}"
        );
        assert!(json.contains("\"status\": \"panicked\""));
        // no raw control character may survive into the output
        assert!(json.chars().all(|c| c == '\n' || (c as u32) >= 0x20));
    }

    #[test]
    fn escape_json_table() {
        // (raw, escaped): quotes, backslashes, raw control characters and
        // path-like backslash runs are escaped; non-ASCII passes through
        let table = [
            ("", r#""""#),
            ("weird \"label\"\n", r#""weird \"label\"\n""#),
            (
                "evil\"},{\"x\u{0}\u{1f}\\path\tend",
                r#""evil\"},{\"x\u0000\u001f\\path\tend""#,
            ),
            (
                "panicked at 'boom\nline two'\r\u{7}",
                r#""panicked at 'boom\nline two'\r\u0007""#,
            ),
            (
                "line1\nline2\t\"quoted\" \\ \u{1} caf\u{e9} \u{1F600}",
                "\"line1\\nline2\\t\\\"quoted\\\" \\\\ \\u0001 caf\u{e9} \u{1F600}\"",
            ),
            ("ci\\runner \"eu-1\"", r#""ci\\runner \"eu-1\"""#),
            ("bm\n\u{1}end", r#""bm\n\u0001end""#),
        ];
        for (raw, escaped) in table {
            let got = escape_json(raw);
            assert_eq!(got, escaped, "{raw:?}");
            assert!(got.chars().all(|c| (c as u32) >= 0x20), "{got}");
            // the escaping round-trips
            assert_eq!(unescape(&got[1..got.len() - 1]), raw);
        }
    }

    /// Minimal JSON string unescaper for the round-trip assertion (the
    /// full parser lives in `np-serve`, which cannot be a dev-dependency
    /// here without a cycle).
    fn unescape(s: &str) -> String {
        let mut out = String::new();
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next().unwrap() {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (0..4).map(|_| chars.next().unwrap()).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).unwrap()).unwrap());
                }
                other => out.push(other),
            }
        }
        out
    }

    #[test]
    fn json_floats_are_floats_and_nonfinite_is_null() {
        assert_eq!(json_f64(Some(2.0)), "2.0");
        assert_eq!(json_f64(Some(0.125)), "0.125");
        assert_eq!(json_f64(Some(f64::NAN)), "null");
        assert_eq!(json_f64(Some(f64::INFINITY)), "null");
        assert_eq!(json_f64(None), "null");
    }

    #[test]
    fn empty_attempt_list_closes_array() {
        let mut r = sample_report();
        r.attempts.clear();
        r.winner = None;
        let json = r.to_json();
        assert!(json.contains("\"attempts\": []"));
        assert!(json.contains("\"winner\": null"));
    }

    #[test]
    fn status_strings_are_stable() {
        assert_eq!(AttemptStatus::Won.to_string(), "won");
        assert_eq!(AttemptStatus::BudgetExhausted.as_str(), "budget-exhausted");
        assert_eq!(AttemptStatus::Skipped.as_str(), "skipped");
    }
}
