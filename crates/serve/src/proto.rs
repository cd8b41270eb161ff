//! The JSON-lines wire protocol: request decoding and response frames.
//!
//! One request per line, one or more response frames per request, each a
//! single JSON object on its own line. Every accepted request produces
//! **exactly one terminal frame** — `result`, `shed` or `error` — plus
//! any number of `progress` frames before it when the request opted in.
//!
//! ```json
//! {"id":"r1","hgr":"4 4\n1 2\n2 3\n3 4\n4 1\n","algo":"igmatch","restarts":4,"budget_ms":200,"deadline_ms":500}
//! {"id":"r1","frame":"result","degraded":false,"cut":1,"left":2,"right":2,...}
//! ```
//!
//! Unknown request keys are rejected (a typo'd `"deadline_m"` silently
//! ignored would be an unbounded request — the opposite of what the
//! caller asked for).

use crate::admit::Priority;
use crate::json::{self, Obj, Value};
use np_runner::Algorithm;

/// Upper bound on the requested portfolio width. The portfolio builder
/// boxes one stage per restart, so an unchecked `"restarts": 1e15` would
/// be an allocation attack; no legitimate request needs more attempts
/// than this.
pub const MAX_RESTARTS: usize = 4096;

/// Upper bound on the requested block count, for the same reason: k-way
/// state is allocated per block before the netlist is even parsed.
pub const MAX_K: usize = 4096;

/// Wire name of the default algorithm: IG-Match with the paper's
/// weighting, which large netlists may take through the V-cycle tier.
pub(crate) const AUTO: &str = "auto";

/// The table entries a request may name besides [`AUTO`]. `robust` stays
/// off the wire because its dense-eigensolve link lifts the dense cutoff
/// entirely: an O(m²)-memory solve on a request of any size. `hybrid`
/// stays off it so the wire set is unchanged.
pub(crate) const WIRE_ALGORITHMS: [Algorithm; 6] = [
    Algorithm::IgMatch,
    Algorithm::IgVote,
    Algorithm::Eig1,
    Algorithm::Rcut,
    Algorithm::Fm,
    Algorithm::Kl,
];

/// Wire name of a request's algorithm; `None` is [`AUTO`].
pub(crate) fn algo_name(algo: Option<Algorithm>) -> &'static str {
    algo.map_or(AUTO, Algorithm::name)
}

fn parse_algo(name: &str) -> Result<Option<Algorithm>, String> {
    if name == AUTO {
        return Ok(None);
    }
    match Algorithm::from_name(name) {
        Some(a) if WIRE_ALGORITHMS.contains(&a) => Ok(Some(a)),
        _ => Err(format!("unknown algo '{name}'")),
    }
}

/// A request-scoped fault to inject, for resilience testing. Parsed from
/// the `"fault"` object; *executing* one requires the `fault-inject`
/// feature — without it the service rejects the request with an explicit
/// error instead of silently ignoring the fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// Sleep this many milliseconds (in cancellable slices) before the
    /// real work of each attempt — a slow worker.
    Slow(u64),
    /// Panic inside one portfolio attempt — a poisoned stage.
    Panic,
    /// Spin charging the meter until the budget or deadline trips — a
    /// stuck eigensolve (cooperatively stuck: every spin consults the
    /// meter, as all kernels in this workspace do).
    Stuck,
}

/// One decoded request line.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Caller-chosen correlation id, echoed on every frame.
    pub id: String,
    /// The netlist, in hMETIS `.hgr` text format.
    pub hgr: String,
    /// Algorithm to run; `None` is `auto`.
    pub algo: Option<Algorithm>,
    /// Portfolio width (attempt count); `None` = server default.
    pub restarts: Option<usize>,
    /// Base seed; `None` = the workspace default seed.
    pub seed: Option<u64>,
    /// Compute budget in milliseconds; `None` = server default cap only.
    pub budget_ms: Option<u64>,
    /// Hard deadline in milliseconds, measured from *arrival* (so queue
    /// wait counts against it); `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Early-stop target: cancel the portfolio once an attempt reaches
    /// this ratio cut.
    pub target_ratio: Option<f64>,
    /// Number of blocks; `None` or `Some(2)` is the classic bipartition
    /// path (identical frames to older clients). `k > 2` switches the
    /// request onto the k-way route and the result frame carries a
    /// `blocks` array instead of the `partition` digit string.
    pub k: Option<usize>,
    /// Balance slack ε for k-way requests: every block must hold at most
    /// `(1+ε)·total/k` area. Ignored on the bipartition path.
    pub epsilon: Option<f64>,
    /// Multilevel V-cycle routing: `Some(true)` forces the request
    /// through the coarsen/partition/uncoarsen tier, `Some(false)` opts
    /// out, `None` leaves the choice to the server's size-based default
    /// (large netlists with `algo: auto` take the V-cycle).
    pub multilevel: Option<bool>,
    /// Stream `progress` frames (stage events) before the terminal frame.
    pub progress: bool,
    /// Admission class: `"high"`, `"normal"` (default) or `"low"`.
    /// Under saturation the weighted-fair scheduler gives `high` most of
    /// the freed worker slots while still draining `low`.
    pub priority: Priority,
    /// Fault to inject (resilience testing).
    pub fault: Option<FaultSpec>,
}

const REQUEST_KEYS: &[&str] = &[
    "id",
    "hgr",
    "algo",
    "restarts",
    "seed",
    "budget_ms",
    "deadline_ms",
    "target_ratio",
    "k",
    "epsilon",
    "multilevel",
    "progress",
    "priority",
    "fault",
];

/// Checked u64 → usize with an explicit upper bound: rejects values that
/// overflow `usize` (32-bit targets) or exceed `max`, instead of the
/// silent truncation an `as usize` cast would produce.
fn bounded_usize(n: u64, key: &str, max: usize) -> Result<usize, String> {
    match usize::try_from(n) {
        Ok(v) if v <= max => Ok(v),
        _ => Err(format!("'{key}' must be at most {max}")),
    }
}

impl Request {
    /// Decodes one request line. The error string is safe to echo into
    /// an [`error frame`](error_frame).
    pub fn parse(line: &str) -> Result<Request, String> {
        let doc = json::parse(line).map_err(|e| format!("bad json: {e}"))?;
        let keys = doc.keys().ok_or("request must be a json object")?;
        if let Some(unknown) = keys.iter().find(|k| !REQUEST_KEYS.contains(k)) {
            return Err(format!("unknown request key '{unknown}'"));
        }
        let id = doc
            .get("id")
            .and_then(Value::as_str)
            .ok_or("missing string field 'id'")?
            .to_string();
        let hgr = doc
            .get("hgr")
            .and_then(Value::as_str)
            .ok_or("missing string field 'hgr'")?
            .to_string();
        let algo = match doc.get("algo") {
            None => None,
            Some(v) => parse_algo(v.as_str().ok_or("'algo' must be a string")?)?,
        };
        let uint = |key: &'static str| -> Result<Option<u64>, String> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("'{key}' must be a non-negative integer")),
            }
        };
        // a count in `min..=max`
        let count = |key: &'static str, min: u64, max: usize| -> Result<Option<usize>, String> {
            match uint(key)? {
                Some(n) if n < min => Err(format!("'{key}' must be at least {min}")),
                Some(n) => bounded_usize(n, key, max).map(Some),
                None => Ok(None),
            }
        };
        let non_negative = |key: &'static str| -> Result<Option<f64>, String> {
            let Some(v) = doc.get(key) else {
                return Ok(None);
            };
            match v.as_f64() {
                Some(x) if x.is_finite() && x >= 0.0 => Ok(Some(x)),
                Some(_) => Err(format!("'{key}' must be finite and >= 0")),
                None => Err(format!("'{key}' must be a number")),
            }
        };
        let flag = |key: &'static str| -> Result<Option<bool>, String> {
            doc.get(key)
                .map(|v| v.as_bool().ok_or(format!("'{key}' must be a boolean")))
                .transpose()
        };
        let restarts = count("restarts", 1, MAX_RESTARTS)?;
        let seed = uint("seed")?;
        let budget_ms = uint("budget_ms")?;
        let deadline_ms = uint("deadline_ms")?;
        let target_ratio = non_negative("target_ratio")?;
        let k = count("k", 2, MAX_K)?;
        let epsilon = non_negative("epsilon")?;
        let multilevel = flag("multilevel")?;
        let progress = flag("progress")?.unwrap_or(false);
        let priority = match doc.get("priority") {
            None => Priority::Normal,
            Some(v) => {
                let name = v.as_str().ok_or("'priority' must be a string")?;
                Priority::parse(name).ok_or_else(|| {
                    format!("unknown priority '{name}' (expected high, normal or low)")
                })?
            }
        };
        let fault = match doc.get("fault") {
            None => None,
            Some(v) => Some(parse_fault(v)?),
        };
        Ok(Request {
            id,
            hgr,
            algo,
            restarts,
            seed,
            budget_ms,
            deadline_ms,
            target_ratio,
            k,
            epsilon,
            multilevel,
            progress,
            priority,
            fault,
        })
    }
}

fn parse_fault(v: &Value) -> Result<FaultSpec, String> {
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("'fault' needs a string field 'kind'")?;
    Ok(match kind {
        "slow" => {
            let ms = v
                .get("ms")
                .and_then(Value::as_u64)
                .ok_or("fault 'slow' needs integer field 'ms'")?;
            FaultSpec::Slow(ms)
        }
        "panic" => FaultSpec::Panic,
        "stuck" => FaultSpec::Stuck,
        other => return Err(format!("unknown fault kind '{other}'")),
    })
}

/// Why a result is flagged `degraded: true` (absent on clean results).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Degradation {
    /// The deadline fired before the main portfolio finished; this is
    /// the best partition found so far.
    DeadlineBestSoFar,
    /// The winning attempt answered on its FM rung, or the main tier
    /// answered nothing and the insurance FM partition stands.
    FmFallback,
    /// The deadline expired while the request was still queued; only the
    /// insurance slice ran.
    ExpiredInQueue,
    /// The compute wall expired during V-cycle uncoarsening; the
    /// remaining levels are exact projections of the coarse partition,
    /// just unrefined.
    ProjectionFallback,
}

impl Degradation {
    /// Every reason, in declaration order.
    pub const ALL: [Degradation; 4] = [
        Degradation::DeadlineBestSoFar,
        Degradation::FmFallback,
        Degradation::ExpiredInQueue,
        Degradation::ProjectionFallback,
    ];

    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Degradation::DeadlineBestSoFar => "deadline-best-so-far",
            Degradation::FmFallback => "fm-fallback",
            Degradation::ExpiredInQueue => "expired-in-queue",
            Degradation::ProjectionFallback => "projection-fallback",
        }
    }
}

/// Renders a `shed` frame (the 429 of this protocol): the admission
/// controller had no worker and no queue slot.
pub fn shed_frame(id: &str, running: usize, queued: usize) -> String {
    Obj::new()
        .str("id", id)
        .str("frame", "shed")
        .int("code", 429)
        .str("reason", "server at capacity: workers busy and queue full")
        .int("running", running as u64)
        .int("queued", queued as u64)
        .render()
}

/// Renders an `error` frame (terminal; the request produced no
/// partition).
pub fn error_frame(id: &str, reason: &str) -> String {
    Obj::new()
        .str("id", id)
        .str("frame", "error")
        .str("reason", reason)
        .render()
}

/// Renders a `progress` frame for one stage event of one attempt.
pub fn progress_frame(id: &str, attempt: usize, label: &str, stage: &str, detail: &str) -> String {
    Obj::new()
        .str("id", id)
        .str("frame", "progress")
        .int("attempt", attempt as u64)
        .str("label", label)
        .str("stage", stage)
        .str("detail", detail)
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_defaults() {
        let r = Request::parse(r#"{"id":"a","hgr":"1 2\n1 2\n"}"#).unwrap();
        assert_eq!(r.id, "a");
        assert_eq!(r.hgr, "1 2\n1 2\n");
        assert_eq!(r.algo, None);
        assert_eq!(r.restarts, None);
        assert!(!r.progress);
        assert_eq!(r.fault, None);
    }

    #[test]
    fn full_request_parses() {
        let r = Request::parse(
            r#"{"id":"b","hgr":"x","algo":"fm","restarts":8,"seed":7,"budget_ms":100,
               "deadline_ms":250,"target_ratio":0.5,"progress":true,
               "fault":{"kind":"slow","ms":20}}"#,
        )
        .unwrap();
        assert_eq!(r.algo, Some(Algorithm::Fm));
        assert_eq!(r.restarts, Some(8));
        assert_eq!(r.seed, Some(7));
        assert_eq!(r.budget_ms, Some(100));
        assert_eq!(r.deadline_ms, Some(250));
        assert_eq!(r.target_ratio, Some(0.5));
        assert!(r.progress);
        assert_eq!(r.fault, Some(FaultSpec::Slow(20)));
    }

    #[test]
    fn kway_fields_parse_and_default_off() {
        let r = Request::parse(r#"{"id":"a","hgr":"x"}"#).unwrap();
        assert_eq!(r.k, None);
        assert_eq!(r.epsilon, None);
        let r = Request::parse(r#"{"id":"a","hgr":"x","k":8,"epsilon":0.25}"#).unwrap();
        assert_eq!(r.k, Some(8));
        assert_eq!(r.epsilon, Some(0.25));
    }

    #[test]
    fn multilevel_field_is_tri_state() {
        let r = Request::parse(r#"{"id":"a","hgr":"x"}"#).unwrap();
        assert_eq!(r.multilevel, None, "unset leaves routing to the server");
        let r = Request::parse(r#"{"id":"a","hgr":"x","multilevel":true}"#).unwrap();
        assert_eq!(r.multilevel, Some(true));
        let r = Request::parse(r#"{"id":"a","hgr":"x","multilevel":false}"#).unwrap();
        assert_eq!(r.multilevel, Some(false));
    }

    #[test]
    fn every_algo_name_round_trips() {
        let wire = std::iter::once(None).chain(WIRE_ALGORITHMS.map(Some));
        for algo in wire {
            assert_eq!(parse_algo(algo_name(algo)), Ok(algo));
        }
        assert_eq!(parse_algo("igmatch"), Ok(Some(Algorithm::IgMatch)));
        // table entries that stay off the wire
        for name in ["hybrid", "robust"] {
            assert!(parse_algo(name).unwrap_err().contains("unknown algo"));
        }
    }

    #[test]
    fn bad_requests_rejected_with_reason() {
        for (line, needle) in [
            ("nonsense", "bad json"),
            ("[]", "object"),
            (r#"{"hgr":"x"}"#, "'id'"),
            (r#"{"id":"a"}"#, "'hgr'"),
            (r#"{"id":"a","hgr":"x","algo":"magic"}"#, "unknown algo"),
            (r#"{"id":"a","hgr":"x","restarts":0}"#, "at least 1"),
            (r#"{"id":"a","hgr":"x","restarts":1.5}"#, "integer"),
            (r#"{"id":"a","hgr":"x","deadline_ms":-1}"#, "integer"),
            (r#"{"id":"a","hgr":"x","target_ratio":-2}"#, ">= 0"),
            (r#"{"id":"a","hgr":"x","k":1}"#, "'k' must be at least 2"),
            (r#"{"id":"a","hgr":"x","k":2.5}"#, "integer"),
            (r#"{"id":"a","hgr":"x","epsilon":-0.1}"#, "'epsilon'"),
            (
                r#"{"id":"a","hgr":"x","multilevel":1}"#,
                "'multilevel' must be a boolean",
            ),
            (
                r#"{"id":"a","hgr":"x","deadline_m":5}"#,
                "unknown request key",
            ),
            (
                r#"{"id":"a","hgr":"x","fault":{"kind":"explode"}}"#,
                "fault",
            ),
            (r#"{"id":"a","hgr":"x","fault":{"kind":"slow"}}"#, "'ms'"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn priority_parses_and_defaults_to_normal() {
        let r = Request::parse(r#"{"id":"a","hgr":"x"}"#).unwrap();
        assert_eq!(r.priority, Priority::Normal);
        for (name, want) in [
            ("high", Priority::High),
            ("normal", Priority::Normal),
            ("low", Priority::Low),
        ] {
            let line = format!(r#"{{"id":"a","hgr":"x","priority":"{name}"}}"#);
            assert_eq!(Request::parse(&line).unwrap().priority, want);
        }
        let err = Request::parse(r#"{"id":"a","hgr":"x","priority":"urgent"}"#).unwrap_err();
        assert!(err.contains("unknown priority"), "{err}");
        let err = Request::parse(r#"{"id":"a","hgr":"x","priority":1}"#).unwrap_err();
        assert!(err.contains("must be a string"), "{err}");
    }

    #[test]
    fn adversarial_numbers_rejected_not_truncated() {
        // every line here used to risk a lossy `as usize` truncation or
        // an unbounded allocation; all must reject with a clear reason
        for (line, needle) in [
            // negative and fractional integers
            (r#"{"id":"a","hgr":"x","k":-1}"#, "integer"),
            (r#"{"id":"a","hgr":"x","k":2.5}"#, "integer"),
            (r#"{"id":"a","hgr":"x","restarts":-4}"#, "integer"),
            (r#"{"id":"a","hgr":"x","restarts":0.5}"#, "integer"),
            (r#"{"id":"a","hgr":"x","seed":-7}"#, "integer"),
            // magnitudes beyond exact f64 integer range
            (r#"{"id":"a","hgr":"x","deadline_ms":1e300}"#, "integer"),
            (r#"{"id":"a","hgr":"x","budget_ms":1e300}"#, "integer"),
            (r#"{"id":"a","hgr":"x","restarts":1e300}"#, "integer"),
            // in-range for u64 but beyond the allocation caps
            (r#"{"id":"a","hgr":"x","restarts":1000000000}"#, "at most"),
            (r#"{"id":"a","hgr":"x","k":1000000000}"#, "at most"),
            (r#"{"id":"a","hgr":"x","restarts":4097}"#, "at most"),
            (r#"{"id":"a","hgr":"x","k":4097}"#, "at most"),
            // non-finite and non-numeric
            (r#"{"id":"a","hgr":"x","target_ratio":1e999}"#, "bad json"),
            (r#"{"id":"a","hgr":"x","deadline_ms":"5"}"#, "integer"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
        // the caps themselves are accepted
        let r = Request::parse(r#"{"id":"a","hgr":"x","restarts":4096,"k":4096}"#).unwrap();
        assert_eq!(r.restarts, Some(MAX_RESTARTS));
        assert_eq!(r.k, Some(MAX_K));
    }

    #[test]
    fn frames_are_single_line_valid_json() {
        for frame in [
            shed_frame("id\"☂", 2, 4),
            error_frame("x", "bad\nreason"),
            progress_frame("x", 3, "fm#3", "fm", "pass 2"),
        ] {
            assert!(!frame.contains('\n'));
            let doc = crate::json::parse(&frame).unwrap();
            assert!(doc.get("id").is_some());
        }
    }

    #[test]
    fn shed_frame_is_429() {
        let doc = crate::json::parse(&shed_frame("r", 2, 4)).unwrap();
        assert_eq!(doc.get("code").and_then(Value::as_u64), Some(429));
        assert_eq!(doc.get("frame").and_then(Value::as_str), Some("shed"));
        assert_eq!(doc.get("running").and_then(Value::as_u64), Some(2));
        assert_eq!(doc.get("queued").and_then(Value::as_u64), Some(4));
    }
}
