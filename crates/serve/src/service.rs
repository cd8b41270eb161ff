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
//!              main portfolio: attempt i climbs its own ladder
//!                requested algo ─fail─▶ reseeded ×2 ─fail─▶ FM
//!                (reseeds run only after an eigensolver failure; a
//!                spent budget or a < 2-module input ends the climb)
//!                   │
//!                   ├──an attempt answered──▶ RESULT ("fm-fallback" iff the
//!                   │                         winner answered on FM, else
//!                   │                         degraded iff deadline fired)
//!                   └──none answered──▶ best-so-far or ERROR
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
use crate::cache::{CachedNetlist, Lookup, NetlistCache};
use crate::json::Obj;
use crate::metrics::{tier_index, tier_names, Metrics};
use crate::proto::{self, Degradation, Request};
use np_baselines::fm_bisect_anytime;
use np_core::engine::stages::FmStage;
use np_core::engine::trace::{SpanKind, SpanRing};
use np_core::engine::{BoxedStage, RunContext, StageEvent, DEFAULT_SEED};
use np_core::robust::{fallback_chain, FallbackStage, RobustStage};
use np_core::{
    kway_partition_ctx, IgMatchOptions, KwayMethod, KwayOptions, KwayResult, PartitionResult,
    Partitioner,
};
use np_multilevel::{multilevel_ctx, multilevel_kway_ctx, MultilevelOptions};
use np_netlist::rng::derive_seed;
use np_netlist::Side;
use np_runner::trace::{record_attempt_spans, SpanFanIn};
use np_runner::{
    run_portfolio_cached, Algorithm, AttemptStatus, Portfolio, PortfolioEvent, PortfolioOptions,
};
use np_sparse::{Budget, BudgetMeter, BudgetResource};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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
    /// Wall-clock slice of the insurance FM tier, its only budget.
    pub insurance_wall: Duration,
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
            for (name, hist) in tier_names().zip(m.wall_by_tier.iter()) {
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
            .array("weights", weights.map(|w| w.to_string()))
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
            .int("ig_match_hits", m.ig_match_hits.load(Ordering::Relaxed))
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
        let rendered = spans.iter().map(|s| {
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
        });
        Obj::new()
            .str("frame", "trace")
            .int("recorded", self.spans.recorded())
            .int("dropped", self.spans.dropped())
            .array("spans", rendered)
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
                if degradation == Some(Degradation::FmFallback) {
                    self.metrics.bump(&self.metrics.fm_fallbacks);
                }
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
        let cached = match self.cache.get_or_parse(&request.hgr) {
            Ok(lookup) => lookup,
            Err(reason) => return Terminal::error(&request.id, &reason),
        };
        let terminal = self.answer(request, &cached, seq, deadline, queue_wait, emit);
        let hits = cached.take_ig_match_hits();
        self.metrics
            .ig_match_hits
            .fetch_add(hits, Ordering::Relaxed);
        terminal
    }

    /// [`execute`](Self::execute) on the request's cached netlist.
    fn answer(
        &self,
        request: &Request,
        cached: &Lookup,
        seq: u64,
        deadline: Option<Instant>,
        queue_wait: Duration,
        emit: &(dyn Fn(&str) + Sync),
    ) -> Terminal {
        let job = Job {
            request,
            cached,
            deadline,
            queue_wait,
            compute_start: Instant::now(),
        };
        let seed = request.seed.unwrap_or(DEFAULT_SEED);

        // ---- k > 2: the k-way route (the bipartition tiers do not
        // apply) ----
        if let Some(k) = request.k.filter(|&k| k > 2) {
            return self.execute_kway(&job, k);
        }

        // ---- expired while queued: only the insurance slice runs ----
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return best_so_far(
                &job,
                self.insurance(cached, seed),
                Degradation::ExpiredInQueue,
                0,
                "deadline expired while queued and the insurance tier found no partition",
            );
        }

        // ---- the V-cycle tier: explicit `multilevel:true`, or a large
        // netlist on the default algorithm (opt out with
        // `multilevel:false`). A declined or failed V-cycle falls
        // through to the ordinary tier ladder below. ----
        if self.wants_multilevel(request, cached) {
            if let Some(terminal) = self.try_multilevel(&job, None) {
                return terminal;
            }
        }

        // ---- tier 0: insurance. After this there is always a
        // best-so-far to degrade to. ----
        let insurance = self.insurance(cached, seed);
        let (room, deadline_binds) = self.remaining_wall(&job);
        let Some(wall) = room else {
            let reason = if deadline_binds {
                Degradation::DeadlineBestSoFar
            } else {
                Degradation::FmFallback
            };
            let failure = "request failed: no tier produced a partition";
            return best_so_far(&job, insurance, reason, 0, failure);
        };

        // ---- the main portfolio: every attempt climbs its own ladder
        // (requested algorithm, reseeded after an eigensolver failure,
        // FM) ----
        let portfolio_seed = derive_seed(seed, 0);
        let (portfolio, ladders) = self.build_portfolio(request, portfolio_seed);
        let opts = PortfolioOptions {
            threads: 1,
            target_ratio: request.target_ratio,
        };
        let id = request.id.as_str();
        let sink = |e: &PortfolioEvent<'_>| {
            if !request.progress {
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
        let portfolio_started = Instant::now();
        let meter = BudgetMeter::new(&Budget::default().with_wall_clock(wall));
        let outcome = run_portfolio_cached(
            &cached.hypergraph,
            &portfolio,
            &opts,
            &meter,
            Some(&SpanFanIn::new(&self.spans, seq).forwarding(&sink)),
            &|r: &PartitionResult| r.ratio(),
            &cached.operators,
        );
        let report = outcome.as_ref().map_or_else(|e| &*e.report, |o| &o.report);
        let mut incomplete = false;
        for a in &report.attempts {
            if matches!(a.status, AttemptStatus::Panicked) {
                self.metrics.bump(&self.metrics.panics_contained);
            }
            incomplete |= !matches!(a.status, AttemptStatus::Won | AttemptStatus::Completed);
        }
        let retries = ladders
            .iter()
            .flat_map(|ladder| ladder.climbed())
            .filter(|&r| r == FallbackStage::ReseededLanczos)
            .count() as u64;
        self.metrics.retries.fetch_add(retries, Ordering::Relaxed);
        // the deadline sized the meter, the meter ran out of wall and an
        // attempt was left unfinished ⇒ best-so-far answer (a
        // `target_ratio` stop cancels the meter instead; a wall that runs
        // out after every attempt finished leaves the answer complete)
        let deadline_fired = deadline_binds
            && incomplete
            && matches!(meter.check(), Err(e) if e.resource == BudgetResource::WallClock);
        match outcome {
            Ok(out) => {
                record_attempt_spans(&self.spans, seq, &out.report, portfolio_started);
                // the winner's ladder ends on the rung that answered
                let on_fm =
                    ladders[out.winner].climbed().last() == Some(&FallbackStage::FmBaseline);
                let reason = if on_fm {
                    Some(Degradation::FmFallback)
                } else {
                    deadline_fired.then_some(Degradation::DeadlineBestSoFar)
                };
                // the insurance answer stands unless strictly beaten
                let beaten = |held: &PartitionResult| out.best.ratio() < held.ratio();
                let (tier, result) = match insurance {
                    Some(held) if !beaten(&held) => ("insurance", held),
                    _ if on_fm => ("fm-fallback", out.best),
                    _ => ("portfolio", out.best),
                };
                ladder_frame(&job, tier, &result, reason, retries)
            }
            // ---- no attempt answered: best-so-far or error ----
            Err(err) => {
                let reason = if deadline_fired {
                    Degradation::DeadlineBestSoFar
                } else {
                    Degradation::FmFallback
                };
                let failure = format!("request failed: {}", err.error);
                best_so_far(&job, insurance, reason, retries, &failure)
            }
        }
    }

    /// Runs a `k > 2` request through recursive bisection under the
    /// request's wall-clock meter and renders its terminal frame. The
    /// route runs once, its eigensolves on the request's seed, so
    /// `restarts` does not apply; the outer `catch_unwind` in
    /// [`Service::handle_line`] isolates panics.
    fn execute_kway(&self, job: &Job<'_>, k: usize) -> Terminal {
        let request = job.request;
        if self.wants_multilevel(request, job.cached) {
            if let Some(terminal) = self.try_multilevel(job, Some(k)) {
                return terminal;
            }
        }
        let Some(wall) = self.remaining_wall(job).0 else {
            return Terminal::error(
                &request.id,
                "deadline expired before the k-way route could start",
            );
        };
        let meter = BudgetMeter::new(&Budget::default().with_wall_clock(wall));
        let ctx = job_context(job, &meter);
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

    /// The multilevel V-cycle tier: the bipartition V-cycle, or the
    /// k-way one for `Some(k)`. `Some(frame)` is terminal; `None` means
    /// no wall remained or the V-cycle failed, and the request's ordinary
    /// route should run instead.
    fn try_multilevel(&self, job: &Job<'_>, k: Option<usize>) -> Option<Terminal> {
        let wall = self.remaining_wall(job).0?;
        let meter = BudgetMeter::new(&Budget::default().with_wall_clock(wall));
        let ctx = job_context(job, &meter);
        let hg = &job.cached.hypergraph;
        let mopts = MultilevelOptions {
            ig_match: request_ig_match(job.request),
            ..MultilevelOptions::default()
        };
        let extras = |levels: usize, coarsest: usize, degraded: bool| Extras {
            reason: degraded.then_some(Degradation::ProjectionFallback),
            k,
            levels: Some((levels, coarsest)),
            ..Extras::default()
        };
        let frame = match k {
            None => {
                let out = multilevel_ctx(hg, &mopts, &ctx).ok()?;
                let extras = extras(out.levels, out.coarsest_modules, out.budget_degraded);
                result_frame(job, "multilevel", Answer::Bipartition(&out.result), extras)
            }
            Some(k) => {
                let kopts = kway_options(job.request, k);
                let out = multilevel_kway_ctx(hg, &kopts, &mopts, &ctx).ok()?;
                let extras = extras(out.levels, out.coarsest_modules, out.budget_degraded);
                result_frame(job, "multilevel-kway", Answer::Kway(&out.result), extras)
            }
        };
        self.metrics.bump(&self.metrics.multilevel);
        Some(frame)
    }

    /// Tier 0: one random-start FM run under a tiny private wall-clock
    /// slice. Never counts against the main tier's wall (the slice is
    /// part of the occupancy bound instead) and never carries injected
    /// faults — it exists precisely to survive them. A slice that runs
    /// out keeps FM's best partition so far, at worst its seeded start,
    /// so only an unpartitionable netlist comes back `None`.
    fn insurance(&self, cached: &CachedNetlist, seed: u64) -> Option<PartitionResult> {
        let hg = &cached.hypergraph;
        let n = hg.num_modules();
        if n < 2 {
            return None;
        }
        let meter = BudgetMeter::new(
            &Budget::default().with_wall_clock(self.cfg.insurance_wall.min(self.cfg.max_wall)),
        );
        let stage = FmStage::seeded(derive_seed(seed, 0x1A5E_CE00));
        let (fm, _) = fm_bisect_anytime(hg, &stage.start(n), &stage.opts, &meter);
        let stats = fm.partition.cut_stats(hg);
        (stats.left > 0 && stats.right > 0)
            .then(|| PartitionResult::evaluate(hg, fm.partition, stage.name(), None))
    }

    /// Wall-clock room left for main-tier work,
    /// `min(budget_ms, deadline − now, max_wall)`, `None` when no time
    /// remains, and whether the deadline is that minimum's binding term —
    /// also when it is the term that left no time.
    fn remaining_wall(&self, job: &Job<'_>) -> (Option<Duration>, bool) {
        let mut wall = self.cfg.max_wall;
        if let Some(ms) = job.request.budget_ms {
            let budget = Duration::from_millis(ms);
            wall = wall.min(budget.saturating_sub(job.compute_start.elapsed()));
        }
        let mut deadline_binds = false;
        if let Some(d) = job.deadline {
            let left = d.saturating_duration_since(Instant::now());
            deadline_binds = left < wall || left.is_zero();
            wall = wall.min(left);
        }
        ((wall > Duration::ZERO).then_some(wall), deadline_binds)
    }

    /// Builds the main-tier portfolio, labelled with the wire name:
    /// attempt `i` is a `ladder` [`fallback_chain`] on seed stream
    /// `derive_seed(seed, i)` over the shared algorithm table (`auto` is
    /// IG-Match), with an FM tail unless FM was requested. Returns a
    /// handle on each attempt's chain next to the portfolio, to read the
    /// climb from after the run.
    fn build_portfolio(&self, request: &Request, seed: u64) -> (Portfolio, Vec<Arc<RobustStage>>) {
        let restarts = request.restarts.unwrap_or(self.cfg.default_restarts);
        let algorithm = request.algo.unwrap_or(Algorithm::IgMatch);
        let ig = IgMatchOptions::default();
        let ladders: Vec<Arc<RobustStage>> = (0..restarts)
            .map(|i| {
                let stream = derive_seed(seed, i as u64);
                let first = self.decorate(request, i, algorithm.attempt(ig, stream));
                let tail = if algorithm == Algorithm::Fm {
                    Vec::new()
                } else {
                    vec![(FallbackStage::FmBaseline, Algorithm::Fm.attempt(ig, stream))]
                };
                Arc::new(fallback_chain(
                    "ladder",
                    (FallbackStage::Requested, first),
                    stream,
                    |reseed| algorithm.attempt(ig, reseed),
                    Vec::new(),
                    tail,
                ))
            })
            .collect();
        let portfolio = Portfolio::new().restarts(proto::algo_name(request.algo), restarts, |i| {
            Box::new(Arc::clone(&ladders[i]))
        });
        (portfolio, ladders)
    }

    /// Wraps an attempt's first rung in `np-core`'s fault decorator when
    /// the request names a fault (fault-inject builds only). The panic
    /// fault poisons only attempt 0 — the point is to prove one poisoned
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
}

/// Renders the terminal frame of a bipartition ladder answer from
/// `tier`, plus the retry count.
fn ladder_frame(
    job: &Job<'_>,
    tier: &str,
    result: &PartitionResult,
    reason: Option<Degradation>,
    retries: u64,
) -> Terminal {
    result_frame(
        job,
        tier,
        Answer::Bipartition(result),
        Extras {
            reason,
            retries: Some(retries),
            ..Extras::default()
        },
    )
}

/// The terminal frame when the main tier produced nothing: the insurance
/// answer degraded for `reason` (with the retry count), or an error frame
/// saying `failure`.
fn best_so_far(
    job: &Job<'_>,
    insurance: Option<PartitionResult>,
    reason: Degradation,
    retries: u64,
    failure: &str,
) -> Terminal {
    match insurance {
        Some(result) => ladder_frame(job, "insurance", &result, Some(reason), retries),
        None => Terminal::error(&job.request.id, failure),
    }
}

/// An admitted request as the tiers see it: the parsed netlist (and
/// whether the cache already held it) and the clocks every tier's wall
/// and every result frame are measured from.
struct Job<'a> {
    request: &'a Request,
    cached: &'a Lookup,
    deadline: Option<Instant>,
    queue_wait: Duration,
    compute_start: Instant,
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
    /// Reseeded rungs run across the main tier's attempts.
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
        Answer::Kway(r) => obj
            .int("cut", r.stats.cut_nets as u64)
            .num("ratio", r.stats.ratio())
            .array("blocks", r.partition.labels().iter().map(|b| b.to_string())),
    };
    if let Some(retries) = extras.retries {
        obj = obj.int("retries", retries);
    }
    let frame = obj
        .bool("cache_hit", job.cached.hit)
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

/// A main-tier context on `meter` with the netlist's operator cache.
fn job_context<'m>(job: &Job<'_>, meter: &'m BudgetMeter) -> RunContext<'m> {
    RunContext::with_meter(meter).with_operator_cache(Arc::clone(&job.cached.operators))
}

/// The k-way route's options: `k` blocks, the request's `epsilon` over
/// the default slack, eigensolves on the request's seed.
fn kway_options(request: &Request, k: usize) -> KwayOptions {
    let mut opts = KwayOptions {
        k,
        ig_match: request_ig_match(request),
        ..Default::default()
    };
    if let Some(eps) = request.epsilon {
        opts.epsilon = eps;
    }
    opts
}

/// The IG-Match options of the k-way and V-cycle tiers: the defaults,
/// with Lanczos started from the request's seed.
fn request_ig_match(request: &Request) -> IgMatchOptions {
    let mut ig = IgMatchOptions::default();
    ig.lanczos.seed = request.seed.unwrap_or(DEFAULT_SEED);
    ig
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
    fn each_attempt_records_the_rungs_it_climbed() {
        // both nets span every module: IG-Match finds no two-sided split,
        // a failure no reseed can change, so each ladder climbs straight
        // to FM, which answers on 20 modules and on 4
        let spanning = |n: u32| {
            let all: Vec<u32> = (0..n).collect();
            np_netlist::hypergraph_from_nets(n as usize, &[all.clone(), all])
        };
        let (wide, narrow) = (spanning(20), spanning(4));
        let healthy = np_netlist::io::parse_hgr(&small_hgr()).unwrap();
        let to_fm = vec![FallbackStage::Requested, FallbackStage::FmBaseline];
        let svc = Service::new(ServeConfig::default());
        for (hg, extra, expected, answered) in [
            (&healthy, "", vec![FallbackStage::Requested], true),
            (&wide, "", to_fm.clone(), true),
            (&narrow, "", to_fm, true),
            // an `fm` request's ladder has no FM rung of its own
            (
                &narrow,
                r#","algo":"fm""#,
                vec![FallbackStage::Requested],
                true,
            ),
        ] {
            let line = request_line("ladder", &format!(r#"{extra},"restarts":2"#));
            let request = Request::parse(&line).unwrap();
            let (portfolio, ladders) = svc.build_portfolio(&request, 7);
            let opts = PortfolioOptions::default().with_threads(1);
            let meter = BudgetMeter::unlimited();
            let run = np_runner::run_portfolio(hg, &portfolio, &opts, &meter, None);
            assert_eq!(run.is_ok(), answered, "{extra}: {run:?}");
            assert_eq!(ladders.len(), 2);
            for ladder in &ladders {
                assert_eq!(ladder.climbed(), expected, "{extra}: {run:?}");
            }
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
