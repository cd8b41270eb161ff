//! The request lifecycle: admission → deadline-bounded execution →
//! exactly one terminal frame.
//!
//! # The state machine (DESIGN.md §12)
//!
//! ```text
//! line ──parse──▶ enroll ──full──▶ SHED (429)
//!                   │
//!                 queued ──deadline passed in queue──▶ insurance only
//!                   │                                   └▶ RESULT degraded
//!                 permit
//!                   │
//!              insurance FM  (tiny slice: there is *always* a best-so-far)
//!                   │
//!        V-cycle tier (opt-in, or large netlists on the default algo)
//!                   │         └──ok──▶ RESULT (tier "multilevel", levels)
//!                   │
//!              main portfolio ──ok──▶ RESULT (degraded iff deadline fired)
//!                   │
//!            transient error ──retry×N (reseed)──▶ main portfolio
//!                   │
//!            retries exhausted ──▶ FM-restarts tier ──ok──▶ RESULT degraded
//!                   │                                  │
//!                   └──────── nothing ever completed ──┴──▶ best-so-far
//!                                                           or ERROR
//! ```
//!
//! Three invariants the tests pin down:
//!
//! 1. **Exactly one terminal frame per request** — every path through
//!    [`Service::handle_line`] ends in one `result`, `shed` or `error`
//!    frame, and a panic anywhere in execution is caught and converted
//!    into an `error` frame rather than unwinding through the server
//!    loop.
//! 2. **Bounded occupancy** — a request holds its worker permit for at
//!    most the insurance slice plus `min(budget, deadline, max_wall)`,
//!    so queued tickets always make progress and
//!    [`Admission`] never needs a watchdog.
//! 3. **Deadline ⇒ degraded, not dead** — the deadline is propagated as
//!    the wall-clock limit of every [`BudgetMeter`] the request creates,
//!    tripping the kernels cooperatively; whatever completed by then is
//!    returned with `degraded: true` and the reason.

use crate::admit::{Admission, Enrollment, Priority, PRIORITY_CLASSES};
use crate::cache::{CachedNetlist, NetlistCache};
use crate::json::Obj;
use crate::metrics::{tier_index, Metrics, TIER_NAMES};
use crate::proto::{self, Degradation, Request};
use np_baselines::{fm_bisect_anytime, FmOptions};
use np_core::engine::trace::{SpanKind, SpanRing};
use np_core::engine::RunContext;
use np_core::engine::{BoxedStage, StageEvent, DEFAULT_SEED};
use np_core::{
    kway_partition_ctx, IgMatchOptions, KwayMethod, KwayOptions, KwayResult, PartitionError,
    PartitionResult,
};
use np_multilevel::{multilevel_ctx, multilevel_kway_ctx, MultilevelOptions};
use np_netlist::rng::derive_seed;
use np_netlist::Side;
use np_runner::trace::{record_attempt_spans, SpanFanIn};
use np_runner::{
    run_portfolio_cached, Algorithm, Portfolio, PortfolioError, PortfolioEvent, PortfolioOptions,
    PortfolioOutcome, PortfolioSink, RandomStartFmStage,
};
use np_sparse::{Budget, BudgetMeter, BudgetResource};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Service tuning knobs. The defaults target small interactive netlists;
/// the integration tests shrink them aggressively.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Concurrently *running* requests (admission permits).
    pub workers: usize,
    /// Requests allowed to wait for a permit before shedding starts.
    pub queue: usize,
    /// Portfolio width when the request does not name `restarts`.
    pub default_restarts: usize,
    /// Hard wall-clock cap on any request's compute, whatever the client
    /// asked for — this is what guarantees queue progress.
    pub max_wall: Duration,
    /// Wall-clock slice of the insurance FM tier.
    pub insurance_wall: Duration,
    /// Matvec-equivalent cap of the insurance FM tier.
    pub insurance_matvecs: u64,
    /// Retry budget for transient main-tier failures (each retry reseeds).
    pub retries: usize,
    /// Netlist cache entry bound.
    pub cache_entries: usize,
    /// Netlist cache byte bound.
    pub cache_bytes: usize,
    /// Netlists with at least this many modules route through the
    /// multilevel V-cycle tier when the request uses the default
    /// algorithm and does not say `"multilevel": false`. An explicit
    /// `"multilevel": true` takes the tier at any size.
    pub multilevel_threshold: usize,
}

/// Capacity of the tracing span ring buffer.
const SPAN_CAPACITY: usize = 1024;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue: 16,
            default_restarts: 4,
            max_wall: Duration::from_secs(5),
            insurance_wall: Duration::from_millis(25),
            insurance_matvecs: 200_000,
            retries: 2,
            cache_entries: 32,
            cache_bytes: 64 << 20,
            multilevel_threshold: 20_000,
        }
    }
}

/// The partition service: admission controller, netlist cache, metrics
/// and span ring behind one synchronous entry point, [`handle_line`].
///
/// [`handle_line`]: Service::handle_line
#[derive(Debug)]
pub struct Service {
    cfg: ServeConfig,
    admission: Admission,
    cache: NetlistCache,
    metrics: Metrics,
    spans: SpanRing,
    seq: AtomicU64,
}

/// Everything known about the best answer so far, carried across tiers.
struct Candidate {
    result: PartitionResult,
    tier: &'static str,
}

impl Service {
    /// A service with the given configuration.
    pub fn new(cfg: ServeConfig) -> Self {
        Service {
            admission: Admission::new(cfg.workers, cfg.queue),
            cache: NetlistCache::new(cfg.cache_entries, cfg.cache_bytes),
            metrics: Metrics::default(),
            spans: SpanRing::new(SPAN_CAPACITY),
            seq: AtomicU64::new(0),
            cfg,
        }
    }

    /// The configuration this service runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The service counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Netlist cache counters.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Recounts the netlist cache's byte accounting (soak invariant).
    pub fn cache_audit(&self) -> crate::cache::CacheAudit {
        self.cache.audit()
    }

    /// The tracing span ring (request → attempt → stage spans).
    pub fn spans(&self) -> &SpanRing {
        &self.spans
    }

    /// Renders the one-line `metrics` frame served for a `/metrics`
    /// request line: live occupancy (running, queued, per-class queue
    /// depth), the monotonic service counters, the latency histograms
    /// (overall, per priority class, per degradation tier), the netlist
    /// cache footprint and the span-ring gauges.
    pub fn metrics_frame(&self) -> String {
        let load = self.admission.load();
        let depths = self.admission.depths();
        let weights = self.admission.weights();
        let cache = self.cache.stats();
        let m = &self.metrics;
        let requests = m.requests.load(Ordering::Relaxed);
        let shed = m.shed.load(Ordering::Relaxed);
        let by_priority = |hists: &[crate::metrics::Histogram; PRIORITY_CLASSES]| {
            let mut obj = Obj::new();
            for p in Priority::all() {
                obj = obj.raw(p.as_str(), hists[p.index()].snapshot().to_json());
            }
            obj.render()
        };
        let tiers = {
            let mut obj = Obj::new();
            for (name, hist) in TIER_NAMES.iter().zip(m.wall_by_tier.iter()) {
                obj = obj.raw(name, hist.snapshot().to_json());
            }
            obj.render()
        };
        let queue_depth = {
            let mut obj = Obj::new();
            for p in Priority::all() {
                obj = obj.int(p.as_str(), depths[p.index()] as u64);
            }
            obj.render()
        };
        Obj::new()
            .str("frame", "metrics")
            .str("schema", "np-serve/metrics/v2")
            .int("running", load.running as u64)
            .int("queued", load.queued as u64)
            .raw("queue_depth", queue_depth)
            .raw(
                "weights",
                format!("[{}]", weights.map(|w| w.to_string()).join(",")),
            )
            .int("requests", requests)
            .int("admitted", m.admitted.load(Ordering::Relaxed))
            .int("results", m.results.load(Ordering::Relaxed))
            .int("degraded", m.degraded.load(Ordering::Relaxed))
            .int("shed", shed)
            .int("errors", m.errors.load(Ordering::Relaxed))
            .int("retries", m.retries.load(Ordering::Relaxed))
            .int("fm_fallbacks", m.fm_fallbacks.load(Ordering::Relaxed))
            .int("multilevel", m.multilevel.load(Ordering::Relaxed))
            .int(
                "panics_contained",
                m.panics_contained.load(Ordering::Relaxed),
            )
            .num(
                "shed_rate",
                if requests == 0 {
                    0.0
                } else {
                    shed as f64 / requests as f64
                },
            )
            .raw("latency", m.latency.snapshot().to_json())
            .raw("latency_by_priority", by_priority(&m.latency_by_priority))
            .raw("queue_wait", m.queue_wait.snapshot().to_json())
            .raw(
                "queue_wait_by_priority",
                by_priority(&m.queue_wait_by_priority),
            )
            .raw("wall_by_tier", tiers)
            .int("cache_entries", cache.entries as u64)
            .int("cache_bytes", cache.bytes as u64)
            .int("cache_hits", cache.hits)
            .int("cache_misses", cache.misses)
            .int("cache_evictions", cache.evictions)
            .int("spans_recorded", self.spans.recorded())
            .int("spans_dropped", self.spans.dropped())
            .int("span_capacity", self.spans.capacity() as u64)
            .render()
    }

    /// Renders the one-line `trace` frame served for a `/trace` request
    /// line: the spans currently resident in the ring, oldest first,
    /// with offsets in microseconds since the service started.
    pub fn trace_frame(&self) -> String {
        let spans = self.spans.snapshot();
        let rendered: Vec<String> = spans
            .iter()
            .map(|s| {
                let mut obj = Obj::new()
                    .str("kind", s.kind.name())
                    .str("label", &s.label)
                    .int("request", s.request);
                if let Some(a) = s.attempt {
                    obj = obj.int("attempt", a as u64);
                }
                obj = obj
                    .int(
                        "start_us",
                        u64::try_from(s.start.as_micros()).unwrap_or(u64::MAX),
                    )
                    .int(
                        "wall_us",
                        u64::try_from(s.wall.as_micros()).unwrap_or(u64::MAX),
                    );
                if let Some(ok) = s.ok {
                    obj = obj.bool("ok", ok);
                }
                obj.render()
            })
            .collect();
        Obj::new()
            .str("frame", "trace")
            .int("recorded", self.spans.recorded())
            .int("dropped", self.spans.dropped())
            .raw("spans", format!("[{}]", rendered.join(",")))
            .render()
    }

    /// Handles one request line end to end, emitting every response
    /// frame through `emit` (progress frames first, then exactly one
    /// terminal frame). Blocks until the terminal frame is emitted.
    ///
    /// `emit` is called from this thread *and* (for progress frames)
    /// from portfolio worker threads, hence `Sync`.
    pub fn handle_line(&self, line: &str, emit: &(dyn Fn(&str) + Sync)) {
        // the two non-JSON lines in the protocol: read-only snapshots
        // that never enter admission (they must answer even at capacity)
        if line.trim() == "/metrics" {
            emit(&self.metrics_frame());
            return;
        }
        if line.trim() == "/trace" {
            emit(&self.trace_frame());
            return;
        }
        self.metrics.bump(&self.metrics.requests);
        let arrival = Instant::now();
        let request = match Request::parse(line) {
            Ok(r) => r,
            Err(reason) => {
                // best-effort id recovery so the client can correlate
                let id = crate::json::parse(line)
                    .ok()
                    .and_then(|d| d.get("id").and_then(|v| v.as_str().map(String::from)))
                    .unwrap_or_else(|| "?".into());
                self.metrics.bump(&self.metrics.errors);
                self.metrics
                    .observe_latency(Priority::Normal, arrival.elapsed());
                emit(&proto::error_frame(&id, &reason));
                return;
            }
        };
        if request.fault.is_some() && !cfg!(feature = "fault-inject") {
            self.metrics.bump(&self.metrics.errors);
            self.metrics
                .observe_latency(request.priority, arrival.elapsed());
            emit(&proto::error_frame(
                &request.id,
                "fault injection is disabled in this build (feature 'fault-inject')",
            ));
            return;
        }
        let deadline = request
            .deadline_ms
            .map(|ms| arrival + Duration::from_millis(ms));

        // ---- admission (phase one is synchronous: overload costs one
        // lock round-trip, not a thread or a parse) ----
        let ticket = match self.admission.enroll(request.priority) {
            Enrollment::Queued(t) => t,
            Enrollment::Shed(load) => {
                self.metrics.bump(&self.metrics.shed);
                self.metrics
                    .observe_latency(request.priority, arrival.elapsed());
                emit(&proto::shed_frame(&request.id, load.running, load.queued));
                return;
            }
        };
        let permit = ticket.wait();
        let queue_wait = arrival.elapsed();
        self.metrics.bump(&self.metrics.admitted);
        self.metrics
            .observe_queue_wait(request.priority, queue_wait);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;

        // ---- execution, panic-isolated: nothing unwinds past here ----
        let exec_start = Instant::now();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.execute(&request, seq, deadline, queue_wait, emit)
        }));
        drop(permit);
        let wall = exec_start.elapsed();
        let terminal = run.unwrap_or_else(|payload| {
            self.metrics.bump(&self.metrics.panics_contained);
            let err = np_core::panic_error(payload);
            Terminal::error(&request.id, &err.to_string())
        });
        let ok = match terminal.outcome {
            Ok(degradation) => {
                self.metrics.wall_by_tier[tier_index(degradation)].observe(wall);
                self.metrics.bump(if degradation.is_some() {
                    &self.metrics.degraded
                } else {
                    &self.metrics.results
                });
                true
            }
            Err(()) => {
                self.metrics.bump(&self.metrics.errors);
                false
            }
        };
        self.metrics
            .observe_latency(request.priority, arrival.elapsed());
        self.spans.record_since(
            SpanKind::Request,
            request.id.as_str(),
            seq,
            None,
            arrival,
            Some(ok),
        );
        emit(&terminal.frame);
    }

    /// Runs the admitted request and renders its terminal frame. `seq`
    /// is the request's span tag (see [`Service::trace_frame`]).
    fn execute(
        &self,
        request: &Request,
        seq: u64,
        deadline: Option<Instant>,
        queue_wait: Duration,
        emit: &(dyn Fn(&str) + Sync),
    ) -> Terminal {
        let cache_stats_before = self.cache.stats();
        let cached = match self.cache.get_or_parse(&request.hgr) {
            Ok(c) => c,
            Err(reason) => return Terminal::error(&request.id, &reason),
        };
        let job = Job {
            request,
            cached: &cached,
            deadline,
            queue_wait,
            compute_start: Instant::now(),
            cache_hit: self.cache.stats().hits > cache_stats_before.hits,
        };
        let seed = request.seed.unwrap_or(DEFAULT_SEED);
        let restarts = request.restarts.unwrap_or(self.cfg.default_restarts);
        let mut retries_done = 0u64;

        // ---- k > 2: the k-way route (the bipartition tiers do not
        // apply) ----
        if let Some(k) = request.k.filter(|&k| k > 2) {
            return self.execute_kway(&job, k);
        }

        // ---- expired while queued: only the insurance slice runs ----
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return match self.insurance(&cached, seed) {
                Some(best) => self.candidate_frame(
                    &job,
                    &best,
                    Some(Degradation::ExpiredInQueue),
                    retries_done,
                ),
                None => Terminal::error(
                    &request.id,
                    "deadline expired while queued and the insurance tier found no partition",
                ),
            };
        }

        // ---- the V-cycle tier: explicit `multilevel:true`, or a large
        // netlist on the default algorithm (opt out with
        // `multilevel:false`). A declined or failed V-cycle falls
        // through to the ordinary tier ladder below. ----
        if self.wants_multilevel(request, &cached) {
            if let Some(terminal) = self.try_multilevel(&job) {
                return terminal;
            }
        }

        // ---- tier 0: insurance. After this there is always a
        // best-so-far to degrade to. ----
        let mut best: Option<Candidate> = self.insurance(&cached, seed);

        // ---- tier 1: the main portfolio, with reseeded retries ----
        let mut last_error: Option<PartitionError> = None;
        let mut deadline_fired = false;
        let mut drop_to_fm = false;
        for retry in 0..=self.cfg.retries {
            let Some(wall) = self.remaining_wall(&job) else {
                deadline_fired = deadline.is_some();
                break;
            };
            let attempt_seed = derive_seed(seed, retry as u64);
            let portfolio = self.build_portfolio(request, restarts, attempt_seed);
            let opts = PortfolioOptions {
                threads: 1,
                seed: attempt_seed,
                target_ratio: request.target_ratio,
            };
            let portfolio_started = Instant::now();
            let outcome = {
                let id = request.id.as_str();
                let progress = request.progress;
                let sink = move |e: &PortfolioEvent<'_>| {
                    if !progress {
                        return;
                    }
                    let (stage, detail) = match e.event {
                        StageEvent::Started { stage } => (*stage, "started".to_string()),
                        StageEvent::Finished { stage, outcome } => (
                            *stage,
                            match outcome {
                                Ok(r) => format!("finished: ratio {:.3e}", r.ratio()),
                                Err(err) => format!("failed: {err}"),
                            },
                        ),
                        StageEvent::Detail { stage, message } => (*stage, message.to_string()),
                    };
                    emit(&proto::progress_frame(
                        id, e.attempt, e.label, stage, &detail,
                    ));
                };
                let fan_in = SpanFanIn::new(&self.spans, seq).forwarding(&sink);
                let budget = Budget::default().with_wall_clock(wall);
                run_tier(&cached, &portfolio, &opts, &budget, Some(&fan_in))
            };
            match outcome {
                Ok(out) => {
                    record_attempt_spans(&self.spans, seq, &out.report, portfolio_started);
                    for a in &out.report.attempts {
                        if matches!(a.status, np_runner::AttemptStatus::Panicked) {
                            self.metrics.bump(&self.metrics.panics_contained);
                        }
                    }
                    let incomplete = out.report.attempts.iter().any(|a| {
                        !matches!(
                            a.status,
                            np_runner::AttemptStatus::Won | np_runner::AttemptStatus::Completed
                        )
                    });
                    offer(&mut best, out.best, "portfolio");
                    // deadline (not the client's compute budget) binding
                    // and attempts left unfinished ⇒ best-so-far answer
                    if incomplete && self.deadline_was_binding(&job) {
                        deadline_fired = true;
                    }
                    return self.candidate_frame(
                        &job,
                        best.as_ref().expect("offer filled best"),
                        deadline_fired.then_some(Degradation::DeadlineBestSoFar),
                        retries_done,
                    );
                }
                Err(err) => {
                    let error = err.error;
                    if matches!(error, PartitionError::Panicked { .. }) {
                        self.metrics.bump(&self.metrics.panics_contained);
                    }
                    // the whole wall ran out: whatever we hold is the answer
                    let wall_spent = matches!(&error, PartitionError::Budget(b)
                        if matches!(b.resource, BudgetResource::WallClock | BudgetResource::Cancelled));
                    // transient spectral failures reseed and retry; any
                    // other error is permanent for the spectral tier (the
                    // instance itself is unpartitionable), but FM may manage
                    let transient = matches!(
                        error,
                        PartitionError::Eigen(_)
                            | PartitionError::Panicked { .. }
                            | PartitionError::Budget(_)
                    );
                    last_error = Some(error);
                    if wall_spent {
                        deadline_fired = self.deadline_was_binding(&job);
                        break;
                    }
                    if !transient || retry == self.cfg.retries {
                        drop_to_fm = true;
                        break;
                    }
                    retries_done += 1;
                    self.metrics.bump(&self.metrics.retries);
                }
            }
        }

        // ---- tier 2: FM-restarts-only (spectral tier gave up) ----
        if drop_to_fm && request.algo != Some(Algorithm::Fm) {
            if let Some(wall) = self.remaining_wall(&job) {
                self.metrics.bump(&self.metrics.fm_fallbacks);
                let fallback_seed = derive_seed(seed, 0xFA11_BACC);
                let portfolio = Portfolio::new().restarts("fm-fallback", restarts, |i| {
                    Algorithm::Fm.attempt(
                        IgMatchOptions::default(),
                        derive_seed(fallback_seed, i as u64),
                    )
                });
                let opts = PortfolioOptions {
                    threads: 1,
                    seed: fallback_seed,
                    target_ratio: request.target_ratio,
                };
                let budget = Budget::default().with_wall_clock(wall);
                if let Ok(out) = run_tier(&cached, &portfolio, &opts, &budget, None) {
                    offer(&mut best, out.best, "fm-fallback");
                    return self.candidate_frame(
                        &job,
                        best.as_ref().expect("offer filled best"),
                        Some(Degradation::FmFallback),
                        retries_done,
                    );
                }
            }
        }

        // ---- nothing more will complete: best-so-far or error ----
        match &best {
            Some(candidate) => {
                let reason = if deadline_fired {
                    Degradation::DeadlineBestSoFar
                } else {
                    Degradation::FmFallback
                };
                self.candidate_frame(&job, candidate, Some(reason), retries_done)
            }
            None => {
                let reason = last_error
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "no tier produced a partition".into());
                Terminal::error(&request.id, &format!("request failed: {reason}"))
            }
        }
    }

    /// Runs a `k > 2` request through recursive bisection under the
    /// request's wall-clock meter and renders its terminal frame. The
    /// route is seed-independent, so `restarts` does not apply; the outer
    /// `catch_unwind` in [`Service::handle_line`] isolates panics.
    fn execute_kway(&self, job: &Job<'_>, k: usize) -> Terminal {
        let request = job.request;
        if self.wants_multilevel(request, job.cached) {
            if let Some(terminal) = self.try_multilevel_kway(job, k) {
                return terminal;
            }
        }
        let Some(wall) = self.remaining_wall(job) else {
            return Terminal::error(
                &request.id,
                "deadline expired before the k-way route could start",
            );
        };
        let meter = BudgetMeter::new(&Budget::default().with_wall_clock(wall));
        let ctx = RunContext::with_meter(&meter).with_seed(request.seed.unwrap_or(DEFAULT_SEED));
        let opts = kway_options(request, k);
        match kway_partition_ctx(&job.cached.hypergraph, &opts, KwayMethod::Recursive, &ctx) {
            Ok(out) => result_frame(
                job,
                "kway",
                Answer::Kway(&out),
                Extras {
                    k: Some(k),
                    ..Extras::default()
                },
            ),
            Err(err) => Terminal::error(&request.id, &format!("request failed: {err}")),
        }
    }

    /// Whether this request routes through the multilevel V-cycle tier:
    /// an explicit `multilevel` key wins; otherwise netlists at or above
    /// the size threshold on the default algorithm take it (a *named*
    /// algorithm is never silently rerouted).
    fn wants_multilevel(&self, request: &Request, cached: &CachedNetlist) -> bool {
        request.multilevel.unwrap_or_else(|| {
            request.algo.is_none()
                && cached.hypergraph.num_modules() >= self.cfg.multilevel_threshold
        })
    }

    /// The multilevel V-cycle tier for bipartition requests.
    /// `Some(frame)` is terminal; `None` means no wall remained or the
    /// V-cycle failed, and the ordinary ladder should run instead.
    fn try_multilevel(&self, job: &Job<'_>) -> Option<Terminal> {
        let wall = self.remaining_wall(job)?;
        let meter = BudgetMeter::new(&Budget::default().with_wall_clock(wall));
        let ctx = RunContext::with_meter(&meter);
        let opts = multilevel_options(job.request);
        let out = multilevel_ctx(&job.cached.hypergraph, &opts, &ctx).ok()?;
        self.metrics.bump(&self.metrics.multilevel);
        Some(result_frame(
            job,
            "multilevel",
            Answer::Bipartition(&out.result),
            Extras {
                reason: out
                    .budget_degraded
                    .then_some(Degradation::ProjectionFallback),
                levels: Some((out.levels, out.coarsest_modules)),
                ..Extras::default()
            },
        ))
    }

    /// The multilevel V-cycle tier for `k > 2` requests; same contract
    /// as [`try_multilevel`](Self::try_multilevel) but the frame carries
    /// the k-way `blocks` array.
    fn try_multilevel_kway(&self, job: &Job<'_>, k: usize) -> Option<Terminal> {
        let wall = self.remaining_wall(job)?;
        let meter = BudgetMeter::new(&Budget::default().with_wall_clock(wall));
        let ctx = RunContext::with_meter(&meter);
        let kopts = kway_options(job.request, k);
        let mopts = multilevel_options(job.request);
        let out = multilevel_kway_ctx(&job.cached.hypergraph, &kopts, &mopts, &ctx).ok()?;
        self.metrics.bump(&self.metrics.multilevel);
        Some(result_frame(
            job,
            "multilevel-kway",
            Answer::Kway(&out.result),
            Extras {
                reason: out
                    .budget_degraded
                    .then_some(Degradation::ProjectionFallback),
                k: Some(k),
                levels: Some((out.levels, out.coarsest_modules)),
                ..Extras::default()
            },
        ))
    }

    /// Tier 0: one random-start FM run under a tiny private budget.
    /// Never counts against the main tier's wall (the slice is part of
    /// the occupancy bound instead) and never carries injected faults —
    /// it exists precisely to survive them. A slice that runs out keeps
    /// FM's best partition so far, at worst its seeded start, so only an
    /// unpartitionable netlist comes back `None`.
    fn insurance(&self, cached: &CachedNetlist, seed: u64) -> Option<Candidate> {
        let hg = &cached.hypergraph;
        let n = hg.num_modules();
        if n < 2 {
            return None;
        }
        let meter = BudgetMeter::new(
            &Budget::default()
                .with_wall_clock(self.cfg.insurance_wall.min(self.cfg.max_wall))
                .with_matvecs(self.cfg.insurance_matvecs),
        );
        let start = RandomStartFmStage::start(n, derive_seed(seed, 0x1A5E_CE00));
        let (fm, _) = fm_bisect_anytime(hg, &start, &FmOptions::default(), &meter);
        let stats = fm.partition.cut_stats(hg);
        (stats.left > 0 && stats.right > 0).then(|| Candidate {
            result: PartitionResult::evaluate(hg, fm.partition, "FM-restart", None),
            tier: "insurance",
        })
    }

    /// Wall-clock room left for main-tier work:
    /// `min(budget_ms, deadline − now, max_wall)`, or `None` when no
    /// time remains.
    fn remaining_wall(&self, job: &Job<'_>) -> Option<Duration> {
        let mut wall = self.cfg.max_wall;
        if let Some(ms) = job.request.budget_ms {
            let budget = Duration::from_millis(ms);
            let spent = job.compute_start.elapsed();
            wall = wall.min(budget.checked_sub(spent)?);
        }
        if let Some(d) = job.deadline {
            wall = wall.min(d.checked_duration_since(Instant::now())?);
        }
        (wall > Duration::ZERO).then_some(wall)
    }

    /// Whether the *deadline* (rather than the client's compute budget or
    /// the server cap) is the limit that has run out.
    fn deadline_was_binding(&self, job: &Job<'_>) -> bool {
        let Some(d) = job.deadline else { return false };
        if Instant::now() >= d {
            return true;
        }
        // the deadline is binding if it expires before the budget would
        let deadline_left = d.saturating_duration_since(Instant::now());
        let budget_left = job
            .request
            .budget_ms
            .map(|ms| Duration::from_millis(ms).saturating_sub(job.compute_start.elapsed()))
            .unwrap_or(self.cfg.max_wall);
        deadline_left < budget_left
    }

    /// Builds the main-tier portfolio: `restarts` attempts of the
    /// requested algorithm from the shared table (`auto` is IG-Match),
    /// labelled with the wire name, each on a decorrelated seed stream,
    /// with the request's fault decorator applied when the feature is on.
    fn build_portfolio(&self, request: &Request, restarts: usize, seed: u64) -> Portfolio {
        let algorithm = request.algo.unwrap_or(Algorithm::IgMatch);
        Portfolio::new().restarts(proto::algo_name(request.algo), restarts, |i| {
            let stage = algorithm.attempt(IgMatchOptions::default(), derive_seed(seed, i as u64));
            self.decorate(request, i, stage)
        })
    }

    /// Wraps the attempt stage in `np-core`'s fault decorator when the
    /// request names a fault (fault-inject builds only). The panic fault
    /// poisons only attempt 0 — the point is to prove one poisoned
    /// attempt cannot take the request (or the server) down with it.
    #[cfg(feature = "fault-inject")]
    fn decorate(&self, request: &Request, attempt: usize, stage: BoxedStage) -> BoxedStage {
        use crate::proto::FaultSpec;
        use np_core::engine::fault::{FaultKind, FaultStage};
        let kind = match request.fault {
            Some(FaultSpec::Slow(ms)) => FaultKind::Slow(Duration::from_millis(ms)),
            Some(FaultSpec::Panic) if attempt == 0 => FaultKind::Panic,
            Some(FaultSpec::Stuck) => FaultKind::Stuck,
            Some(FaultSpec::Panic) | None => return stage,
        };
        Box::new(FaultStage::new(kind, stage))
    }

    #[cfg(not(feature = "fault-inject"))]
    fn decorate(&self, _request: &Request, _attempt: usize, stage: BoxedStage) -> BoxedStage {
        stage
    }

    /// Renders the terminal frame of a bipartition tier ladder answer:
    /// the candidate's tier, plus the retry count.
    fn candidate_frame(
        &self,
        job: &Job<'_>,
        candidate: &Candidate,
        reason: Option<Degradation>,
        retries: u64,
    ) -> Terminal {
        result_frame(
            job,
            candidate.tier,
            Answer::Bipartition(&candidate.result),
            Extras {
                reason,
                retries: Some(retries),
                ..Extras::default()
            },
        )
    }
}

/// An admitted request as the tiers see it: the parsed netlist and the
/// clocks every tier's wall and every result frame are measured from.
struct Job<'a> {
    request: &'a Request,
    cached: &'a CachedNetlist,
    deadline: Option<Instant>,
    queue_wait: Duration,
    compute_start: Instant,
    cache_hit: bool,
}

/// The partition a `result` frame carries.
enum Answer<'a> {
    /// A bipartition: `left`/`right` counts and a `partition` digit string.
    Bipartition(&'a PartitionResult),
    /// A k-way partition: a `blocks` array.
    Kway(&'a KwayResult),
}

/// The optional keys of a `result` frame; each tier sets its own.
#[derive(Default)]
struct Extras {
    /// Degradation reason (`degraded` is true iff set).
    reason: Option<Degradation>,
    /// Requested block count.
    k: Option<usize>,
    /// V-cycle `levels` and `coarsest_modules`.
    levels: Option<(usize, usize)>,
    /// Main-tier retries spent.
    retries: Option<u64>,
}

/// A rendered terminal frame together with what it reports, so
/// [`Service::handle_line`] records metrics without re-parsing its own
/// output.
struct Terminal {
    frame: String,
    /// `Ok(degradation)` for a `result` frame (`None` = clean), `Err(())`
    /// for an `error` frame.
    outcome: Result<Option<Degradation>, ()>,
}

impl Terminal {
    /// An `error` frame.
    fn error(id: &str, reason: &str) -> Self {
        Terminal {
            frame: proto::error_frame(id, reason),
            outcome: Err(()),
        }
    }
}

/// Renders the terminal `result` frame of every tier. Keys come in one
/// fixed order; a tier's frame holds exactly the keys its answer and
/// extras call for.
fn result_frame(job: &Job<'_>, tier: &str, answer: Answer<'_>, extras: Extras) -> Terminal {
    let mut obj = Obj::new()
        .str("id", &job.request.id)
        .str("frame", "result")
        .bool("degraded", extras.reason.is_some());
    if let Some(reason) = extras.reason {
        obj = obj.str("reason", reason.name());
    }
    let algorithm = match &answer {
        Answer::Bipartition(r) => r.algorithm,
        Answer::Kway(r) => r.algorithm,
    };
    obj = obj.str("tier", tier).str("algorithm", algorithm);
    if let Some(k) = extras.k {
        obj = obj.int("k", k as u64);
    }
    if let Some((levels, coarsest)) = extras.levels {
        obj = obj
            .int("levels", levels as u64)
            .int("coarsest_modules", coarsest as u64);
    }
    obj = match answer {
        Answer::Bipartition(r) => {
            let partition: String = r
                .partition
                .sides()
                .iter()
                .map(|s| if *s == Side::Left { '0' } else { '1' })
                .collect();
            obj.int("cut", r.stats.cut_nets as u64)
                .int("left", r.stats.left as u64)
                .int("right", r.stats.right as u64)
                .num("ratio", r.ratio())
                .str("partition", &partition)
        }
        Answer::Kway(r) => {
            let blocks: Vec<String> = r.partition.labels().iter().map(|b| b.to_string()).collect();
            obj.int("cut", r.stats.cut_nets as u64)
                .num("ratio", r.stats.ratio())
                .raw("blocks", format!("[{}]", blocks.join(",")))
        }
    };
    if let Some(retries) = extras.retries {
        obj = obj.int("retries", retries);
    }
    let frame = obj
        .bool("cache_hit", job.cache_hit)
        .num("queue_ms", job.queue_wait.as_secs_f64() * 1e3)
        .num(
            "compute_ms",
            job.compute_start.elapsed().as_secs_f64() * 1e3,
        )
        .render();
    Terminal {
        frame,
        outcome: Ok(extras.reason),
    }
}

/// The k-way route's options: `k` blocks, the request's `epsilon` over
/// the default slack.
fn kway_options(request: &Request, k: usize) -> KwayOptions {
    let mut opts = KwayOptions {
        k,
        ..Default::default()
    };
    if let Some(eps) = request.epsilon {
        opts.epsilon = eps;
    }
    opts
}

/// The V-cycle's options: defaults, with the coarsest eigensolve on the
/// request's seed.
fn multilevel_options(request: &Request) -> MultilevelOptions {
    let mut opts = MultilevelOptions::default();
    opts.ig_match.lanczos.seed = request.seed.unwrap_or(DEFAULT_SEED);
    opts
}

/// Runs one tier's portfolio against the netlist's shared operator
/// cache, scored by ratio cut, under a fresh meter for `budget`.
fn run_tier(
    cached: &CachedNetlist,
    portfolio: &Portfolio,
    opts: &PortfolioOptions,
    budget: &Budget,
    sink: Option<&dyn PortfolioSink>,
) -> Result<PortfolioOutcome, PortfolioError> {
    run_portfolio_cached(
        &cached.hypergraph,
        portfolio,
        opts,
        &BudgetMeter::new(budget),
        sink,
        &|r: &PartitionResult| r.ratio(),
        &cached.operators,
    )
}

/// Keeps the better (lower-ratio) of the held candidate and the offered
/// result.
fn offer(best: &mut Option<Candidate>, result: PartitionResult, tier: &'static str) {
    let better = match best {
        Some(held) => result.ratio() < held.result.ratio(),
        None => true,
    };
    if better {
        *best = Some(Candidate { result, tier });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_netlist::io::to_hgr_string;
    use np_testkit::banded_hypergraph;
    use std::sync::Mutex;

    fn collect(svc: &Service, line: &str) -> Vec<String> {
        let frames = Mutex::new(Vec::new());
        svc.handle_line(line, &|f: &str| frames.lock().unwrap().push(f.to_string()));
        frames.into_inner().unwrap()
    }

    fn small_hgr() -> String {
        to_hgr_string(&banded_hypergraph(7, 48, 64, 6))
    }

    fn request_line(id: &str, extra: &str) -> String {
        let hgr = crate::json::escape(&small_hgr());
        format!(r#"{{"id":"{id}","hgr":{hgr}{extra}}}"#)
    }

    /// Asserts a `result` frame's keys in order: `head` (space-separated),
    /// then the timing tail every result frame ends with.
    fn assert_keys(doc: &crate::json::Value, head: &str) {
        let expected: Vec<&str> = head
            .split(' ')
            .chain(["cache_hit", "queue_ms", "compute_ms"])
            .collect();
        assert_eq!(doc.keys().unwrap(), expected);
    }

    #[test]
    fn clean_request_gets_one_result_frame() {
        let svc = Service::new(ServeConfig::default());
        let frames = collect(&svc, &request_line("r1", r#","restarts":2"#));
        assert_eq!(frames.len(), 1, "{frames:?}");
        let doc = crate::json::parse(&frames[0]).unwrap();
        assert_eq!(doc.get("frame").and_then(|v| v.as_str()), Some("result"));
        assert_eq!(doc.get("degraded").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(doc.get("id").and_then(|v| v.as_str()), Some("r1"));
        let partition = doc.get("partition").and_then(|v| v.as_str()).unwrap();
        assert_eq!(partition.len(), 48, "one side digit per module");
        assert!(partition.contains('0') && partition.contains('1'));
        assert_eq!(svc.metrics().results.load(Ordering::Relaxed), 1);
        assert_keys(
            &doc,
            "id frame degraded tier algorithm cut left right ratio partition retries",
        );
    }

    #[test]
    fn parse_failures_keep_the_id_when_recoverable() {
        let svc = Service::new(ServeConfig::default());
        let frames = collect(&svc, r#"{"id":"oops","hgr":"x","bogus_key":1}"#);
        assert_eq!(frames.len(), 1);
        assert!(frames[0].contains("\"id\":\"oops\""), "{frames:?}");
        assert!(frames[0].contains("error"), "{frames:?}");
        let frames = collect(&svc, "not json at all");
        assert!(frames[0].contains("\"id\":\"?\""), "{frames:?}");
    }

    #[test]
    fn invalid_netlist_is_an_error_frame() {
        let svc = Service::new(ServeConfig::default());
        let frames = collect(&svc, r#"{"id":"bad","hgr":"definitely not hgr"}"#);
        assert_eq!(frames.len(), 1);
        assert!(frames[0].contains("invalid hgr"), "{frames:?}");
    }

    #[test]
    fn immediate_deadline_returns_degraded_best_so_far() {
        let svc = Service::new(ServeConfig::default());
        let frames = collect(&svc, &request_line("d0", r#","deadline_ms":0"#));
        assert_eq!(frames.len(), 1);
        let doc = crate::json::parse(&frames[0]).unwrap();
        assert_eq!(doc.get("frame").and_then(|v| v.as_str()), Some("result"));
        assert_eq!(doc.get("degraded").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(
            doc.get("reason").and_then(|v| v.as_str()),
            Some("expired-in-queue")
        );
        assert_eq!(svc.metrics().degraded.load(Ordering::Relaxed), 1);
        assert_keys(
            &doc,
            "id frame degraded reason tier algorithm cut left right ratio partition retries",
        );
    }

    #[test]
    fn repeat_requests_hit_the_netlist_cache() {
        let svc = Service::new(ServeConfig::default());
        collect(&svc, &request_line("c1", r#","restarts":1"#));
        let frames = collect(&svc, &request_line("c2", r#","restarts":1"#));
        assert!(frames[0].contains("\"cache_hit\":true"), "{frames:?}");
        assert!(svc.cache_stats().hits >= 1);
    }

    #[test]
    fn progress_frames_stream_before_the_result() {
        let svc = Service::new(ServeConfig::default());
        let frames = collect(
            &svc,
            &request_line("p1", r#","restarts":2,"progress":true"#),
        );
        assert!(frames.len() > 1, "expected progress frames, got {frames:?}");
        for frame in &frames[..frames.len() - 1] {
            let doc = crate::json::parse(frame).unwrap();
            assert_eq!(doc.get("frame").and_then(|v| v.as_str()), Some("progress"));
        }
        assert!(frames.last().unwrap().contains("\"frame\":\"result\""));
    }

    #[test]
    fn metrics_line_is_a_single_snapshot_frame() {
        let svc = Service::new(ServeConfig::default());
        collect(&svc, &request_line("m1", r#","restarts":1"#));
        collect(&svc, r#"{"id":"m2","hgr":"not hgr"}"#);
        let frames = collect(&svc, "/metrics");
        assert_eq!(frames.len(), 1, "{frames:?}");
        let doc = crate::json::parse(&frames[0]).unwrap();
        assert_eq!(doc.get("frame").and_then(|v| v.as_str()), Some("metrics"));
        assert_eq!(doc.get("running").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(doc.get("queued").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(doc.get("requests").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(doc.get("results").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(doc.get("errors").and_then(|v| v.as_u64()), Some(1));
        assert!(doc.get("cache_bytes").and_then(|v| v.as_u64()).unwrap() > 0);
        // the snapshot itself is not a request
        let again = collect(&svc, "/metrics");
        let doc = crate::json::parse(&again[0]).unwrap();
        assert_eq!(doc.get("requests").and_then(|v| v.as_u64()), Some(2));
    }

    #[test]
    fn kway_request_returns_a_blocks_array() {
        // the served blocks and cut are the library route's on the same
        // parsed netlist, whatever `restarts` asks for
        let hg = np_netlist::io::parse_hgr(&small_hgr()).unwrap();
        let opts = KwayOptions {
            k: 4,
            epsilon: 0.5,
            ..Default::default()
        };
        let expected =
            kway_partition_ctx(&hg, &opts, KwayMethod::Recursive, &RunContext::unlimited())
                .unwrap();
        for restarts in [1, 3] {
            let svc = Service::new(ServeConfig::default());
            let extra = format!(r#","k":4,"epsilon":0.5,"restarts":{restarts}"#);
            let frames = collect(&svc, &request_line("k4", &extra));
            assert_eq!(frames.len(), 1, "{frames:?}");
            let doc = crate::json::parse(&frames[0]).unwrap();
            assert_eq!(doc.get("frame").and_then(|v| v.as_str()), Some("result"));
            assert_eq!(doc.get("degraded").and_then(|v| v.as_bool()), Some(false));
            assert_eq!(doc.get("tier").and_then(|v| v.as_str()), Some("kway"));
            assert_eq!(doc.get("k").and_then(|v| v.as_u64()), Some(4));
            let blocks = match doc.get("blocks") {
                Some(crate::json::Value::Array(items)) => items.clone(),
                other => panic!("expected blocks array, got {other:?}"),
            };
            assert_eq!(blocks.len(), 48, "one label per module");
            let labels: Vec<u32> = blocks.iter().map(|v| v.as_u64().unwrap() as u32).collect();
            assert_eq!(labels, expected.partition.labels(), "restarts={restarts}");
            assert_eq!(
                doc.get("cut").and_then(|v| v.as_u64()),
                Some(expected.stats.cut_nets as u64)
            );
            for b in 0..4 {
                assert!(labels.contains(&b), "block {b} must be non-empty");
            }
            assert!(doc.get("partition").is_none(), "k-way frames carry blocks");
            assert_eq!(svc.metrics().results.load(Ordering::Relaxed), 1);
            assert_keys(&doc, "id frame degraded tier algorithm k cut ratio blocks");
        }
    }

    #[test]
    fn k2_requests_keep_the_bipartition_frame() {
        let svc = Service::new(ServeConfig::default());
        let frames = collect(&svc, &request_line("k2", r#","k":2,"restarts":1"#));
        assert_eq!(frames.len(), 1);
        let doc = crate::json::parse(&frames[0]).unwrap();
        assert_eq!(doc.get("frame").and_then(|v| v.as_str()), Some("result"));
        assert!(doc.get("partition").is_some(), "{frames:?}");
        assert!(doc.get("blocks").is_none(), "{frames:?}");
    }

    #[test]
    fn served_portfolio_matches_the_library_portfolio() {
        // every wire name serves, and since the service and np-part build
        // their attempts from one table, a request's main tier is the
        // library portfolio on the same seed
        let hg = np_netlist::io::parse_hgr(&small_hgr()).unwrap();
        let seed = derive_seed(7, 0);
        let opts = PortfolioOptions {
            threads: 1,
            seed,
            target_ratio: None,
        };
        for name in ["auto", "igmatch", "igvote", "eig1", "rcut", "fm", "kl"] {
            let algorithm = Algorithm::from_name(name).unwrap_or(Algorithm::IgMatch);
            let portfolio = algorithm.portfolio(IgMatchOptions::default(), 3, seed);
            let library =
                np_runner::run_portfolio(&hg, &portfolio, &opts, &BudgetMeter::unlimited(), None)
                    .unwrap()
                    .best;
            let svc = Service::new(ServeConfig::default());
            let extra = format!(r#","algo":"{name}","restarts":3,"seed":7"#);
            let frames = collect(&svc, &request_line(name, &extra));
            assert_eq!(frames.len(), 1, "{name}: {frames:?}");
            let doc = crate::json::parse(&frames[0]).unwrap();
            match doc.get("tier").and_then(|v| v.as_str()) {
                Some("portfolio") => {
                    let digits: String = library
                        .partition
                        .sides()
                        .iter()
                        .map(|s| if *s == Side::Left { '0' } else { '1' })
                        .collect();
                    let served = doc.get("partition").and_then(|v| v.as_str());
                    assert_eq!(served, Some(digits.as_str()), "{name}");
                    let cut = doc.get("cut").and_then(|v| v.as_u64());
                    assert_eq!(cut, Some(library.stats.cut_nets as u64), "{name}");
                }
                // the insurance answer only wins by beating the portfolio
                Some("insurance") => {
                    let ratio = doc.get("ratio").and_then(|v| v.as_f64()).unwrap();
                    assert!(ratio <= library.ratio(), "{name}: {ratio} vs {library:?}");
                }
                other => panic!("{name}: unexpected tier {other:?} in {frames:?}"),
            }
        }
    }

    #[test]
    fn multilevel_request_reports_levels() {
        let svc = Service::new(ServeConfig::default());
        let frames = collect(&svc, &request_line("ml", r#","multilevel":true"#));
        assert_eq!(frames.len(), 1, "{frames:?}");
        let doc = crate::json::parse(&frames[0]).unwrap();
        assert_eq!(doc.get("frame").and_then(|v| v.as_str()), Some("result"));
        assert_eq!(doc.get("tier").and_then(|v| v.as_str()), Some("multilevel"));
        assert_eq!(doc.get("degraded").and_then(|v| v.as_bool()), Some(false));
        // 48 modules sit below the coarsen target: zero levels, and the
        // V-cycle is the flat hybrid pipeline
        assert_eq!(doc.get("levels").and_then(|v| v.as_u64()), Some(0));
        let partition = doc.get("partition").and_then(|v| v.as_str()).unwrap();
        assert_eq!(partition.len(), 48);
        assert_eq!(svc.metrics().multilevel.load(Ordering::Relaxed), 1);
        assert_keys(
            &doc,
            "id frame degraded tier algorithm levels coarsest_modules cut left right ratio partition",
        );
    }

    #[test]
    fn multilevel_kway_request_reports_levels_and_blocks() {
        let svc = Service::new(ServeConfig::default());
        let frames = collect(
            &svc,
            &request_line("mlk", r#","multilevel":true,"k":4,"epsilon":0.5"#),
        );
        assert_eq!(frames.len(), 1, "{frames:?}");
        let doc = crate::json::parse(&frames[0]).unwrap();
        assert_eq!(doc.get("frame").and_then(|v| v.as_str()), Some("result"));
        assert_eq!(
            doc.get("tier").and_then(|v| v.as_str()),
            Some("multilevel-kway")
        );
        assert_eq!(doc.get("k").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(doc.get("levels").and_then(|v| v.as_u64()), Some(0));
        let blocks = match doc.get("blocks") {
            Some(crate::json::Value::Array(items)) => items.clone(),
            other => panic!("expected blocks array, got {other:?}"),
        };
        assert_eq!(blocks.len(), 48, "one label per module");
        assert!(blocks.iter().all(|v| v.as_u64().unwrap() < 4));
        assert_keys(
            &doc,
            "id frame degraded tier algorithm k levels coarsest_modules cut ratio blocks",
        );
    }

    #[test]
    fn large_netlists_route_through_the_vcycle_by_default() {
        let cfg = ServeConfig {
            multilevel_threshold: 16, // the 48-module test netlist counts as "large"
            ..Default::default()
        };
        let svc = Service::new(cfg);
        let frames = collect(&svc, &request_line("auto", ""));
        let doc = crate::json::parse(&frames[0]).unwrap();
        assert_eq!(doc.get("tier").and_then(|v| v.as_str()), Some("multilevel"));
        // explicit opt-out returns to the portfolio ladder
        let frames = collect(&svc, &request_line("optout", r#","multilevel":false"#));
        let doc = crate::json::parse(&frames[0]).unwrap();
        assert_ne!(doc.get("tier").and_then(|v| v.as_str()), Some("multilevel"));
        // a named algorithm is never silently rerouted
        let frames = collect(&svc, &request_line("fm", r#","algo":"fm","restarts":1"#));
        let doc = crate::json::parse(&frames[0]).unwrap();
        assert_ne!(doc.get("tier").and_then(|v| v.as_str()), Some("multilevel"));
        assert_eq!(svc.metrics().multilevel.load(Ordering::Relaxed), 1);
    }

    #[cfg(not(feature = "fault-inject"))]
    #[test]
    fn fault_requests_rejected_without_the_feature() {
        let svc = Service::new(ServeConfig::default());
        let frames = collect(&svc, &request_line("f", r#","fault":{"kind":"panic"}"#));
        assert_eq!(frames.len(), 1);
        assert!(
            frames[0].contains("fault injection is disabled"),
            "{frames:?}"
        );
    }
}
