//! Soak harness: sustained mixed traffic against an in-process
//! [`Service`], with leak detection and metrics-consistency checks.
//!
//! The harness drives `clients` concurrent threads for `duration`,
//! each cycling deterministically (seeded xorshift) through the traffic
//! mix the fleet actually sees: bipartition portfolios on several
//! algorithms, k-way requests, multilevel V-cycles, malformed lines,
//! aggressive deadlines that expire in the queue, and — on
//! `fault-inject` builds with [`SoakOptions::fault_storms`] — periodic
//! storms of slow/panicking/stuck stages. Every client checks the
//! one-terminal-frame discipline per request as it goes.
//!
//! When traffic stops, the harness asserts the invariants that only
//! show up over time:
//!
//! * **No leaked permits** — admission load returns to `{0, 0}` and
//!   every per-class queue depth to zero.
//! * **No leaked threads** — on Linux, the process thread count (from
//!   `/proc/self/status`) returns to its pre-soak value.
//! * **No leaked cache bytes** — [`NetlistCache::audit`] recounts every
//!   resident entry and must match the running total exactly.
//! * **Metrics consistency** — terminal frames equal request count,
//!   every histogram's bucket sum equals its count, the latency,
//!   queue-wait and `fm-fallback` wall counts equal the `requests`,
//!   `admitted` and `fm_fallbacks` counters, and counters only ever grew
//!   during the run (checked by mid-soak sampling).
//!
//! Violations are collected into [`SoakReport::violations`] rather than
//! panicking, so the bench binary can render a report artifact and CI
//! can fail on its exit code.
//!
//! [`NetlistCache::audit`]: crate::cache::NetlistCache::audit

use crate::admit::Priority;
use crate::json::{Obj, Value};
use crate::service::{ServeConfig, Service};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Soak run parameters.
#[derive(Clone, Debug)]
pub struct SoakOptions {
    /// Service configuration under test.
    pub cfg: ServeConfig,
    /// How long the traffic generators run.
    pub duration: Duration,
    /// Concurrent client threads (keep above `cfg.workers` to exercise
    /// queueing and shedding).
    pub clients: usize,
    /// Base seed for the deterministic traffic mix.
    pub seed: u64,
    /// Inject periodic fault storms (effective only on `fault-inject`
    /// builds; ignored otherwise so the same options run everywhere).
    pub fault_storms: bool,
    /// Check the process thread count for leaks. The count is
    /// process-wide, so this is only meaningful when the soak is the
    /// only thing running (the CI soak job, `RUST_TEST_THREADS=1`) —
    /// leave it off inside a parallel test runner.
    pub check_threads: bool,
}

impl Default for SoakOptions {
    fn default() -> Self {
        SoakOptions {
            cfg: ServeConfig {
                workers: 2,
                queue: 8,
                max_wall: Duration::from_millis(250),
                cache_entries: 4,
                ..ServeConfig::default()
            },
            duration: Duration::from_secs(10),
            clients: 6,
            seed: 0x50AC_50AC,
            fault_storms: true,
            check_threads: false,
        }
    }
}

/// What the soak observed, plus every violated invariant.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Wall time the harness actually ran.
    pub elapsed: Duration,
    /// Request lines sent (including malformed ones).
    pub sent: u64,
    /// Terminal frames received, by kind: result, shed, error.
    pub results: u64,
    /// Terminal `shed` frames received.
    pub shed: u64,
    /// Terminal `error` frames received.
    pub errors: u64,
    /// Requests that received anything other than exactly one terminal
    /// frame (must be zero).
    pub terminal_violations: u64,
    /// Estimated p99 total latency per priority class, microseconds
    /// (from the service's own histograms).
    pub p99_us_by_priority: [u64; 3],
    /// Completed low-priority requests (starvation check).
    pub low_priority_completed: u64,
    /// Process thread count before and after (Linux only).
    pub threads: Option<(usize, usize)>,
    /// The final `/metrics` frame.
    pub final_metrics: String,
    /// Every invariant that failed, human-readable. Empty = pass.
    pub violations: Vec<String>,
}

impl SoakReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the report as a one-line JSON object (the CI artifact).
    pub fn to_json(&self) -> String {
        let mut obj = Obj::new()
            .bool("passed", self.passed())
            .num("elapsed_s", self.elapsed.as_secs_f64())
            .int("sent", self.sent)
            .int("results", self.results)
            .int("shed", self.shed)
            .int("errors", self.errors)
            .int("terminal_violations", self.terminal_violations)
            .int("p99_us_high", self.p99_us_by_priority[0])
            .int("p99_us_normal", self.p99_us_by_priority[1])
            .int("p99_us_low", self.p99_us_by_priority[2])
            .int("low_priority_completed", self.low_priority_completed);
        if let Some((before, after)) = self.threads {
            obj = obj
                .int("threads_before", before as u64)
                .int("threads_after", after as u64);
        }
        obj.array(
            "violations",
            self.violations.iter().map(|v| crate::json::escape(v)),
        )
        .raw("final_metrics", self.final_metrics.clone())
        .render()
    }
}

/// One deterministic request line for slot `n` of client `c`.
fn request_line(c: usize, n: u64, rng: &mut impl FnMut() -> u64, storms: bool) -> String {
    let id = format!("c{c}-{n}");
    let hgr = crate::json::escape(&ring_hgr(12 + (rng() % 4) as usize * 8, rng() % 7));
    let priority = ["high", "normal", "low"][(rng() % 3) as usize];
    let mut extra = format!(r#","priority":"{priority}""#);
    match rng() % 10 {
        0 => extra.push_str(r#","algo":"fm","restarts":2"#),
        1 => extra.push_str(r#","algo":"igmatch","restarts":1"#),
        2 => extra.push_str(r#","k":3,"epsilon":0.5,"restarts":2"#),
        3 => extra.push_str(r#","multilevel":true"#),
        4 => extra.push_str(&format!(r#","deadline_ms":{}"#, rng() % 3)),
        5 => extra.push_str(r#","restarts":3,"budget_ms":20"#),
        6 => return format!(r#"{{"id":"{id}","hgr":"not a netlist"{extra}}}"#),
        7 => return format!("malformed line {n}"),
        _ => extra.push_str(r#","restarts":2"#),
    }
    // fault storms: a burst of injected faults every ~64 requests
    if storms && cfg!(feature = "fault-inject") && n % 64 < 8 {
        let fault = match rng() % 3 {
            0 => r#","fault":{"kind":"slow","ms":5}"#.to_string(),
            1 => r#","fault":{"kind":"panic"}"#.to_string(),
            _ => r#","fault":{"kind":"stuck"}"#.to_string(),
        };
        extra.push_str(&fault);
        if !extra.contains("budget_ms") && !extra.contains("deadline_ms") {
            extra.push_str(r#","budget_ms":30"#);
        }
    }
    format!(r#"{{"id":"{id}","hgr":{hgr}{extra}}}"#)
}

/// A ring netlist of `n` modules rotated by `shift` (distinct texts
/// exercise cache insert/refresh/evict without an external generator).
fn ring_hgr(n: usize, shift: u64) -> String {
    let mut s = format!("{n} {n}\n");
    for i in 0..n {
        let a = (i + shift as usize) % n + 1;
        let b = (i + shift as usize + 1) % n + 1;
        s.push_str(&format!("{a} {b}\n"));
    }
    s
}

/// Current thread count of this process, Linux only.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

fn get_u64(doc: &Value, key: &str) -> u64 {
    doc.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// Sums `count` over every histogram object found under `doc[key]`
/// (either a histogram object itself or an object of histograms).
fn histogram_counts(doc: &Value, key: &str) -> Option<(u64, u64)> {
    // returns (sum of counts, sum of bucket cells) for consistency checks
    fn one(v: &Value) -> Option<(u64, u64)> {
        let count = v.get("count").and_then(Value::as_u64)?;
        let Some(Value::Array(buckets)) = v.get("buckets") else {
            return None;
        };
        let cells: u64 = buckets.iter().filter_map(Value::as_u64).sum();
        Some((count, cells))
    }
    let v = doc.get(key)?;
    if v.get("count").is_some() {
        return one(v);
    }
    let keys = v.keys()?;
    let mut total = (0, 0);
    for k in keys {
        let (c, b) = one(v.get(k)?)?;
        total.0 += c;
        total.1 += b;
    }
    Some(total)
}

/// Runs the soak and returns the report. Panics never escape the
/// service (that is part of what is under test); the harness itself
/// only panics on programming errors in the harness.
pub fn run_soak(opts: &SoakOptions) -> SoakReport {
    let started = Instant::now();
    let threads_before = thread_count();
    let service = Service::new(opts.cfg);
    let sent = AtomicU64::new(0);
    let terminal_violations = AtomicU64::new(0);
    let monotonic_violations = Mutex::new(Vec::<String>::new());

    std::thread::scope(|scope| {
        for c in 0..opts.clients {
            let service = &service;
            let sent = &sent;
            let terminal_violations = &terminal_violations;
            let deadline = started + opts.duration;
            let mut state = opts.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(c as u64 + 1));
            let storms = opts.fault_storms;
            scope.spawn(move || {
                let mut rng = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let mut n = 0u64;
                while Instant::now() < deadline {
                    let line = request_line(c, n, &mut rng, storms);
                    n += 1;
                    sent.fetch_add(1, Ordering::Relaxed);
                    let terminals = Mutex::new(0u32);
                    service.handle_line(&line, &|frame: &str| {
                        if !frame.contains("\"frame\":\"progress\"") {
                            *terminals.lock().unwrap() += 1;
                        }
                    });
                    if terminals.into_inner().unwrap() != 1 {
                        terminal_violations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        // a sampler thread proves counters are monotonic *during* the
        // burst, not just at quiescence
        {
            let service = &service;
            let monotonic_violations = &monotonic_violations;
            let deadline = started + opts.duration;
            scope.spawn(move || {
                let keys = [
                    "requests", "admitted", "results", "degraded", "shed", "errors",
                ];
                let mut last = [0u64; 6];
                while Instant::now() < deadline {
                    if let Ok(doc) = crate::json::parse(&service.metrics_frame()) {
                        for (i, key) in keys.iter().enumerate() {
                            let now = get_u64(&doc, key);
                            if now < last[i] {
                                monotonic_violations.lock().unwrap().push(format!(
                                    "counter '{key}' went backwards: {} -> {now}",
                                    last[i]
                                ));
                            }
                            last[i] = now;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
        }
    });

    // quiescent: collect the final snapshot and check every invariant
    let mut violations = monotonic_violations.into_inner().unwrap();
    let final_metrics = service.metrics_frame();
    let doc = crate::json::parse(&final_metrics).expect("metrics frame must parse");

    let sent = sent.load(Ordering::Relaxed);
    let terminal_violations = terminal_violations.load(Ordering::Relaxed);
    if terminal_violations > 0 {
        violations.push(format!(
            "{terminal_violations} requests broke the one-terminal-frame discipline"
        ));
    }

    let (requests, admitted) = (get_u64(&doc, "requests"), get_u64(&doc, "admitted"));
    let results = get_u64(&doc, "results");
    let degraded = get_u64(&doc, "degraded");
    let shed = get_u64(&doc, "shed");
    let errors = get_u64(&doc, "errors");
    if requests != sent {
        violations.push(format!("requests {requests} != sent {sent}"));
    }
    if results + degraded + shed + errors != requests {
        violations.push(format!(
            "terminal counters {results}+{degraded}+{shed}+{errors} != requests {requests}"
        ));
    }
    // every histogram's bucket cells sum to its count, and the counts
    // that mirror a counter equal it
    let fm_fallbacks = get_u64(&doc, "fm_fallbacks");
    let tiers = doc.get("wall_by_tier");
    let histograms = [
        (Some(&doc), "latency", Some(("requests", requests))),
        (Some(&doc), "queue_wait", Some(("admitted", admitted))),
        (Some(&doc), "latency_by_priority", None),
        (Some(&doc), "queue_wait_by_priority", None),
        (Some(&doc), "wall_by_tier", None),
        (tiers, "fm-fallback", Some(("fm_fallbacks", fm_fallbacks))),
    ];
    for (parent, key, mirrors) in histograms {
        let Some((count, cells)) = parent.and_then(|p| histogram_counts(p, key)) else {
            violations.push(format!("{key} histogram missing from /metrics"));
            continue;
        };
        if cells != count {
            violations.push(format!("{key} bucket sum {cells} != count {count}"));
        }
        if let Some((counter, value)) = mirrors.filter(|&(_, value)| value != count) {
            violations.push(format!("{key} count {count} != {counter} {value}"));
        }
    }

    // leaked permits: load and per-class depths must be zero
    let (running, queued) = (get_u64(&doc, "running"), get_u64(&doc, "queued"));
    if running != 0 || queued != 0 {
        violations.push(format!(
            "leaked permits: running {running}, queued {queued}"
        ));
    }

    // leaked cache bytes: recount must match the running total
    let audit = service.cache_audit();
    if !audit.consistent() {
        violations.push(format!(
            "cache byte leak: recorded {} != recomputed {}",
            audit.recorded_bytes, audit.recomputed_bytes
        ));
    }

    // leaked threads (Linux): scoped threads are joined, so the count
    // must return to the pre-soak value. Sampled with a grace period —
    // the OS reaps exited threads asynchronously.
    let mut threads_after = thread_count();
    if opts.check_threads {
        if let (Some(before), Some(_)) = (threads_before, threads_after) {
            for _ in 0..50 {
                if threads_after.is_some_and(|after| after <= before) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(40));
                threads_after = thread_count();
            }
            if let Some(after) = threads_after {
                if after > before {
                    violations.push(format!("leaked threads: {before} before, {after} after"));
                }
            }
        }
    }
    let threads = threads_before.zip(threads_after);

    let p99 = |p: Priority| {
        doc.get("latency_by_priority")
            .and_then(|v| v.get(p.as_str()))
            .and_then(|v| v.get("p99_us"))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let low_completed = doc
        .get("latency_by_priority")
        .and_then(|v| v.get("low"))
        .and_then(|v| v.get("count"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    if low_completed == 0 && sent > 100 {
        violations.push("low-priority traffic starved: zero completions".into());
    }

    SoakReport {
        elapsed: started.elapsed(),
        sent,
        results: results + degraded,
        shed,
        errors,
        terminal_violations,
        p99_us_by_priority: [
            p99(Priority::High),
            p99(Priority::Normal),
            p99(Priority::Low),
        ],
        low_priority_completed: low_completed,
        threads,
        final_metrics,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_hgr_is_valid_hmetis() {
        let text = ring_hgr(6, 2);
        let hg = np_netlist::io::parse_hgr(&text).unwrap();
        assert_eq!(hg.num_modules(), 6);
        assert_eq!(hg.num_nets(), 6);
    }

    #[test]
    fn short_soak_passes_every_invariant() {
        let report = run_soak(&SoakOptions {
            duration: Duration::from_millis(1500),
            clients: 4,
            ..SoakOptions::default()
        });
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.sent > 0);
        assert_eq!(report.terminal_violations, 0);
        // the report renders as valid JSON for the CI artifact
        let doc = crate::json::parse(&report.to_json()).unwrap();
        assert_eq!(doc.get("passed").and_then(Value::as_bool), Some(true));
        assert!(doc.get("final_metrics").is_some());
    }
}
