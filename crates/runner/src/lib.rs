//! `np-runner` — a parallel multi-start *portfolio* executor over the
//! `np-core` stage engine.
//!
//! The paper's strongest baseline (Wei–Cheng RCut1.0) is explicitly a
//! best-of-10-random-starts method, and every seed-sensitive flow in this
//! workspace (FM, KL, reseeded Lanczos) benefits from best-of-N the same
//! way — yet a plain engine run executes one attempt on one thread. This
//! crate runs a whole *portfolio* of attempts concurrently over a scoped
//! worker pool and reduces them to the best
//! [`PartitionResult`] by ratio cut. The [`algorithm`] table builds the
//! stages: one name, a single run or attempt `i` of a portfolio.
//!
//! # Determinism contract
//!
//! * An attempt's randomness is the seed its stage was built with: the
//!   [`algorithm`] table gives attempt `i` the seed
//!   `derive_seed(seed, i)` ([`np_netlist::rng::derive_seed`]), so what
//!   an attempt computes does not depend on which worker thread picks it
//!   up. The runner adds no seed of its own.
//! * The reduction orders candidates by `(score, attempt_index)` —
//!   strictly smaller score wins, ties go to the smaller index — so for a
//!   fixed seed the winner is **bit-identical for any `threads` value,
//!   including 1**, as long as the portfolio runs to completion.
//! * Early-stopping features (a wall-clock deadline on the shared
//!   [`BudgetMeter`], [`PortfolioOptions::target_ratio`], an external
//!   [`BudgetMeter::cancel`]) trade that thread-invariance for latency:
//!   *which* attempts complete then depends on real-time scheduling. The
//!   reduction over whatever completed is still `(score, index)`-ordered
//!   and every attempt's fate is reported.
//!
//! # Cancellation
//!
//! All attempts charge one shared meter scope: each gets a
//! [`BudgetMeter::tributary`] (local spend tally, global pool/deadline/
//! cancel flag). When the deadline passes, or an attempt reaches
//! [`PortfolioOptions::target_ratio`] and the runner calls
//! [`BudgetMeter::cancel`], every in-flight attempt trips at its next
//! budget checkpoint — within one check, since all kernels in this
//! workspace check at per-iteration granularity — and queued attempts
//! are skipped. Partial results are still reported in the
//! [`PortfolioReport`].
//!
//! # Panic isolation
//!
//! Every attempt runs inside [`std::panic::catch_unwind`]: a panicking
//! stage is reported as a [`AttemptStatus::Panicked`] attempt (with the
//! panic message in the attempt's error field) instead of unwinding
//! through the scoped pool and aborting the whole portfolio. Long-running
//! callers — the `np-serve` partition service in particular — rely on
//! this to keep one poisoned attempt from killing unrelated requests.
//!
//! # Example
//!
//! ```
//! use np_core::engine::stages::{FmStage, IgMatchStage};
//! use np_runner::{run_portfolio, Portfolio, PortfolioOptions};
//! use np_netlist::hypergraph_from_nets;
//! use np_sparse::BudgetMeter;
//!
//! let hg = hypergraph_from_nets(
//!     6,
//!     &[vec![0, 1], vec![1, 2], vec![0, 2], vec![3, 4], vec![4, 5], vec![3, 5], vec![2, 3]],
//! );
//! let portfolio = Portfolio::new()
//!     .attempt("IG-Match", IgMatchStage::default())
//!     .attempt("FM#0", FmStage::seeded(1))
//!     .attempt("FM#1", FmStage::seeded(2));
//! let opts = PortfolioOptions::default().with_threads(2);
//! let out = run_portfolio(&hg, &portfolio, &opts, &BudgetMeter::unlimited(), None).unwrap();
//! assert_eq!(out.best.stats.cut_nets, 1);
//! assert_eq!(out.report.attempts.len(), 3);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithm;
pub mod json;
mod report;
pub mod trace;

pub use algorithm::Algorithm;
pub use report::{AttemptReport, AttemptStatus, PortfolioReport, REPORT_SCHEMA};
pub use trace::{record_attempt_spans, SpanFanIn};

use np_core::engine::{run_stage, BoxedStage, EventSink, OperatorCache, RunContext, StageEvent};
use np_core::{PartitionError, PartitionResult, Stage};
use np_netlist::Hypergraph;
use np_sparse::{BudgetMeter, BudgetResource};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One labelled attempt of a [`Portfolio`].
pub struct Attempt {
    label: String,
    stage: BoxedStage,
}

impl Attempt {
    /// The attempt's display label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl fmt::Debug for Attempt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Attempt")
            .field("label", &self.label)
            .field("stage", &self.stage.name())
            .finish()
    }
}

/// An ordered list of labelled attempts. Order matters: the attempt
/// index breaks ties in the reduction.
#[derive(Debug, Default)]
pub struct Portfolio {
    attempts: Vec<Attempt>,
}

impl Portfolio {
    /// An empty portfolio.
    pub fn new() -> Self {
        Portfolio::default()
    }

    /// Appends an attempt (builder style).
    #[must_use]
    pub fn attempt(
        mut self,
        label: impl Into<String>,
        stage: impl Stage + Send + Sync + 'static,
    ) -> Self {
        self.attempts.push(Attempt {
            label: label.into(),
            stage: Box::new(stage),
        });
        self
    }

    /// Appends `n` attempts produced by `make(restart_index)` (builder
    /// style). The factory receives the index of the restart *within
    /// this batch* (0-based); labels are `"{prefix}#{i}"`.
    #[must_use]
    pub fn restarts(
        mut self,
        prefix: &str,
        n: usize,
        mut make: impl FnMut(usize) -> BoxedStage,
    ) -> Self {
        for i in 0..n {
            self.attempts.push(Attempt {
                label: format!("{prefix}#{i}"),
                stage: make(i),
            });
        }
        self
    }

    /// Number of attempts.
    pub fn len(&self) -> usize {
        self.attempts.len()
    }

    /// `true` if no attempt has been added yet.
    pub fn is_empty(&self) -> bool {
        self.attempts.is_empty()
    }

    /// The attempts, in index order.
    pub fn attempts(&self) -> &[Attempt] {
        &self.attempts
    }
}

/// Options for [`run_portfolio`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PortfolioOptions {
    /// Worker-thread count; `0` means one worker per available CPU.
    /// The effective count never exceeds the number of attempts.
    pub threads: usize,
    /// Stop the whole portfolio as soon as an attempt scores `<=` this
    /// value (cooperative cancellation of the remaining attempts).
    pub target_ratio: Option<f64>,
}

impl PortfolioOptions {
    /// Sets the worker-thread count (builder style).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the early-stop target (builder style).
    #[must_use]
    pub fn with_target_ratio(mut self, target: f64) -> Self {
        self.target_ratio = Some(target);
        self
    }
}

/// A [`StageEvent`] observed inside one portfolio attempt, tagged with
/// the attempt that emitted it.
#[derive(Debug)]
pub struct PortfolioEvent<'a> {
    /// Index of the emitting attempt.
    pub attempt: usize,
    /// Label of the emitting attempt.
    pub label: &'a str,
    /// The wrapped stage event.
    pub event: &'a StageEvent<'a>,
}

/// A thread-safe fan-in sink for [`PortfolioEvent`]s. Events from
/// different attempts arrive concurrently (and therefore interleaved);
/// the attempt tag is what makes the stream reconstructible per attempt.
///
/// Implemented for any `Fn(&PortfolioEvent<'_>) + Sync` closure.
pub trait PortfolioSink: Sync {
    /// Receives one tagged event, called synchronously from the worker
    /// thread executing the attempt.
    fn on_event(&self, event: &PortfolioEvent<'_>);
}

impl<F: Fn(&PortfolioEvent<'_>) + Sync> PortfolioSink for F {
    fn on_event(&self, event: &PortfolioEvent<'_>) {
        self(event)
    }
}

/// Per-attempt adapter forwarding engine events into the fan-in sink.
struct Forward<'a> {
    sink: &'a dyn PortfolioSink,
    attempt: usize,
    label: &'a str,
}

impl EventSink for Forward<'_> {
    fn on_event(&self, event: &StageEvent<'_>) {
        self.sink.on_event(&PortfolioEvent {
            attempt: self.attempt,
            label: self.label,
            event,
        });
    }
}

/// Successful portfolio outcome: the winning partition plus the full
/// per-attempt report.
#[derive(Debug)]
pub struct PortfolioOutcome {
    /// The best partition over all completed attempts.
    pub best: PartitionResult,
    /// Index of the winning attempt.
    pub winner: usize,
    /// What happened to every attempt.
    pub report: PortfolioReport,
}

/// Failure of the whole portfolio (no attempt completed), with the
/// attempt record attached.
#[derive(Debug)]
pub struct PortfolioError {
    /// The decisive error: the first (by attempt index) error observed,
    /// the budget trip when every attempt was skipped, or `InvalidInput`
    /// for an empty portfolio.
    pub error: PartitionError,
    /// What happened to every attempt (partial progress included).
    /// Boxed to keep the `Err` variant of [`run_portfolio`] small.
    pub report: Box<PortfolioReport>,
}

impl fmt::Display for PortfolioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "portfolio failed: {} ({} attempts, none completed)",
            self.error,
            self.report.attempts.len()
        )
    }
}

impl std::error::Error for PortfolioError {}

/// What one attempt produced, gathered by the worker that ran it.
pub(crate) struct Slot {
    pub(crate) status: AttemptStatus,
    pub(crate) result: Option<PartitionResult>,
    pub(crate) score: f64,
    pub(crate) error: Option<PartitionError>,
    pub(crate) wall: Duration,
    pub(crate) charge: u64,
}

impl Slot {
    fn skipped() -> Self {
        Slot {
            status: AttemptStatus::Skipped,
            result: None,
            score: f64::INFINITY,
            error: None,
            wall: Duration::ZERO,
            charge: 0,
        }
    }
}

/// Maps a raw score to the reduction key: non-finite scores (degenerate
/// ratios, NaN) always lose to finite ones.
fn reduction_score(score: f64) -> f64 {
    if score.is_finite() {
        score
    } else {
        f64::INFINITY
    }
}

pub(crate) fn effective_threads(requested: usize, attempts: usize) -> usize {
    let hw = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    let t = if requested == 0 { hw() } else { requested };
    t.clamp(1, attempts.max(1))
}

/// Runs every attempt of `portfolio` against `hg` over a scoped worker
/// pool and reduces to the best result by **ratio cut** (see
/// [`run_portfolio_scored`] for a custom objective).
///
/// `meter` is the *global* budget scope: its deadline and matvec pool
/// bound the whole portfolio, and the runner cancels it when
/// [`PortfolioOptions::target_ratio`] is reached — so pass a dedicated
/// meter (or a [`BudgetMeter::tributary`] of a larger scope you are
/// happy to see cancelled).
///
/// # Errors
///
/// [`PortfolioError`] when no attempt completes (every attempt failed,
/// was cancelled, or was skipped), or when the portfolio is empty.
pub fn run_portfolio(
    hg: &Hypergraph,
    portfolio: &Portfolio,
    opts: &PortfolioOptions,
    meter: &BudgetMeter,
    sink: Option<&dyn PortfolioSink>,
) -> Result<PortfolioOutcome, PortfolioError> {
    run_portfolio_scored(hg, portfolio, opts, meter, sink, &|r: &PartitionResult| {
        r.ratio()
    })
}

/// [`run_portfolio`] with a caller-supplied objective: each completed
/// attempt is scored by `score` (lower is better) and the reduction —
/// including the `(score, attempt_index)` determinism contract and the
/// [`PortfolioOptions::target_ratio`] early stop — uses that score
/// instead of the ratio cut. Used by the area-aware benchmarks, where
/// the objective is the area-weighted ratio cut.
///
/// # Errors
///
/// Same as [`run_portfolio`].
pub fn run_portfolio_scored(
    hg: &Hypergraph,
    portfolio: &Portfolio,
    opts: &PortfolioOptions,
    meter: &BudgetMeter,
    sink: Option<&dyn PortfolioSink>,
    score: &(dyn Fn(&PartitionResult) -> f64 + Sync),
) -> Result<PortfolioOutcome, PortfolioError> {
    // One operator cache for the whole portfolio: the spectral Laplacians
    // depend only on the hypergraph, so the first attempt to need one
    // builds it and every other attempt reuses it instead of rebuilding
    // per attempt. Results are unchanged — the operators are
    // deterministic functions of the netlist.
    let operators = Arc::new(OperatorCache::new());
    run_portfolio_cached(hg, portfolio, opts, meter, sink, score, &operators)
}

/// [`run_portfolio_scored`] against a caller-owned [`OperatorCache`]:
/// the spectral operators built during this portfolio stay in `operators`
/// afterwards, so a long-lived caller (a server handling repeat requests
/// for the same netlist) can reuse them across runs instead of paying the
/// Laplacian builds again. Correctness is unaffected — the cached
/// operators are deterministic functions of the hypergraph, so the cache
/// must simply belong to this `hg` (cache keyed per netlist is the
/// caller's contract, exactly as for [`RunContext::with_operator_cache`]).
///
/// # Errors
///
/// Same as [`run_portfolio`].
pub fn run_portfolio_cached(
    hg: &Hypergraph,
    portfolio: &Portfolio,
    opts: &PortfolioOptions,
    meter: &BudgetMeter,
    sink: Option<&dyn PortfolioSink>,
    score: &(dyn Fn(&PartitionResult) -> f64 + Sync),
    operators: &Arc<OperatorCache>,
) -> Result<PortfolioOutcome, PortfolioError> {
    let started = Instant::now();
    let n = portfolio.len();
    if n == 0 {
        return Err(PortfolioError {
            error: PartitionError::InvalidInput {
                reason: "portfolio has no attempts",
            },
            report: Box::new(report::assemble(
                opts,
                0,
                started.elapsed(),
                false,
                None,
                Vec::new(),
            )),
        });
    }
    let threads = effective_threads(opts.threads, n);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Slot>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let attempt = &portfolio.attempts[idx];
                    // deadline already passed / portfolio already
                    // cancelled: don't even start
                    let slot = if meter.check().is_err() {
                        Slot::skipped()
                    } else {
                        run_attempt(hg, attempt, idx, opts, meter, sink, score, operators)
                    };
                    *slots[idx].lock().expect("slot lock") = Some(slot);
                }
            });
        }
    });

    let mut records: Vec<Slot> = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("every slot is filled by the pool")
        })
        .collect();

    // deterministic reduction: (score, attempt_idx), smaller wins
    let winner = records
        .iter()
        .enumerate()
        .filter(|(_, s)| s.result.is_some())
        .min_by(|(ia, a), (ib, b)| {
            reduction_score(a.score)
                .total_cmp(&reduction_score(b.score))
                .then(ia.cmp(ib))
        })
        .map(|(i, _)| i);

    if let Some(w) = winner {
        records[w].status = AttemptStatus::Won;
    }
    let best_score = winner.map(|w| records[w].score).filter(|s| s.is_finite());
    let wall = started.elapsed();
    let cancelled = meter.is_cancelled();
    let reports = records
        .iter()
        .enumerate()
        .map(|(i, s)| report::of_slot(i, portfolio.attempts[i].label(), s))
        .collect();
    let report = report::assemble(opts, threads, wall, cancelled, best_score, reports);

    match winner {
        Some(w) => Ok(PortfolioOutcome {
            best: records[w].result.take().expect("winner has a result"),
            winner: w,
            report,
        }),
        None => Err(PortfolioError {
            // attempts are skipped only on a tripped meter, which stays
            // tripped
            error: records
                .iter()
                .find_map(|s| s.error.clone())
                .or_else(|| meter.check().err().map(PartitionError::Budget))
                .unwrap_or(PartitionError::InvalidInput {
                    reason: "every attempt was skipped",
                }),
            report: Box::new(report),
        }),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_attempt(
    hg: &Hypergraph,
    attempt: &Attempt,
    idx: usize,
    opts: &PortfolioOptions,
    meter: &BudgetMeter,
    sink: Option<&dyn PortfolioSink>,
    score: &(dyn Fn(&PartitionResult) -> f64 + Sync),
    operators: &Arc<OperatorCache>,
) -> Slot {
    let tributary = meter.tributary();
    let forward = sink.map(|sink| Forward {
        sink,
        attempt: idx,
        label: &attempt.label,
    });
    // Attempts share the portfolio-wide operator cache but keep their
    // sharded kernels serial (threads = 1): the worker pool already uses
    // every requested core, so per-attempt SpMV sharding would only
    // oversubscribe it.
    let mut ctx = RunContext::with_meter(&tributary).with_operator_cache(Arc::clone(operators));
    if let Some(fwd) = &forward {
        ctx = ctx.with_events(fwd);
    }
    let t0 = Instant::now();
    // A panicking stage must fail *the attempt*, not unwind through the
    // scoped pool and abort the whole portfolio (and its caller — in a
    // server, the process). `AssertUnwindSafe` is justified because a
    // panicked attempt's partial state is confined to the attempt: the
    // stage is an immutable options struct, and the shared meter's
    // atomics stay consistent under abandonment.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_stage(attempt.stage.as_ref(), hg, None, &ctx)
    }))
    .unwrap_or_else(|payload| Err(np_core::panic_error(payload)));
    let wall = t0.elapsed();
    let charge = tributary.local_used();
    match outcome {
        Ok(result) => {
            let s = (score)(&result);
            if opts.target_ratio.is_some_and(|t| s <= t) {
                meter.cancel();
            }
            Slot {
                status: AttemptStatus::Completed,
                result: Some(result),
                score: s,
                error: None,
                wall,
                charge,
            }
        }
        Err(error) => {
            let status = match &error {
                PartitionError::Budget(e) if e.resource == BudgetResource::Cancelled => {
                    AttemptStatus::Cancelled
                }
                PartitionError::Budget(_) => AttemptStatus::BudgetExhausted,
                PartitionError::Panicked { .. } => AttemptStatus::Panicked,
                _ => AttemptStatus::Failed,
            };
            Slot {
                status,
                result: None,
                score: f64::INFINITY,
                error: Some(error),
                wall,
                charge,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_core::engine::stages::{FmStage, IgMatchStage};
    use np_core::engine::DEFAULT_SEED;
    use np_core::Partitioner;
    use np_netlist::hypergraph_from_nets;
    use np_netlist::rng::derive_seed;
    use np_sparse::Budget;

    fn two_triangles() -> Hypergraph {
        hypergraph_from_nets(
            6,
            &[
                vec![0, 1],
                vec![1, 2],
                vec![0, 2],
                vec![3, 4],
                vec![4, 5],
                vec![3, 5],
                vec![2, 3],
            ],
        )
    }

    #[test]
    fn empty_portfolio_rejected() {
        let err = run_portfolio(
            &two_triangles(),
            &Portfolio::new(),
            &PortfolioOptions::default(),
            &BudgetMeter::unlimited(),
            None,
        )
        .unwrap_err();
        assert!(matches!(err.error, PartitionError::InvalidInput { .. }));
        assert!(err.report.attempts.is_empty());
        assert!(err.to_string().contains("portfolio failed"));
    }

    #[test]
    fn single_attempt_wins() {
        let portfolio = Portfolio::new().attempt("only", IgMatchStage::default());
        let out = run_portfolio(
            &two_triangles(),
            &portfolio,
            &PortfolioOptions::default().with_threads(1),
            &BudgetMeter::unlimited(),
            None,
        )
        .unwrap();
        assert_eq!(out.winner, 0);
        assert_eq!(out.best.stats.cut_nets, 1);
        assert_eq!(out.report.winner, Some(0));
        assert_eq!(out.report.attempts[0].status, AttemptStatus::Won);
    }

    #[test]
    fn tie_breaks_to_smaller_index() {
        // identical deterministic attempts: index 0 must win every time
        let portfolio = Portfolio::new()
            .attempt("a", IgMatchStage::default())
            .attempt("b", IgMatchStage::default())
            .attempt("c", IgMatchStage::default());
        for threads in [1, 2, 3] {
            let out = run_portfolio(
                &two_triangles(),
                &portfolio,
                &PortfolioOptions::default().with_threads(threads),
                &BudgetMeter::unlimited(),
                None,
            )
            .unwrap();
            assert_eq!(out.winner, 0, "threads={threads}");
        }
    }

    #[test]
    fn attempts_get_decorrelated_seed_streams() {
        // two FM restarts from different streams should (on this
        // instance) explore different random starts; both must be
        // reported and the reduction must pick the better one
        let hg = two_triangles();
        let portfolio = Portfolio::new().restarts("FM", 4, |i| {
            Box::new(FmStage::seeded(derive_seed(7, i as u64))) as BoxedStage
        });
        let out = run_portfolio(
            &hg,
            &portfolio,
            &PortfolioOptions::default().with_threads(1),
            &BudgetMeter::unlimited(),
            None,
        )
        .unwrap();
        assert_eq!(out.report.attempts.len(), 4);
        let best_ratio = out.best.ratio();
        for a in &out.report.attempts {
            if let Some(r) = a.ratio {
                assert!(best_ratio <= r + 1e-12, "winner must be the minimum");
            }
        }
    }

    #[test]
    fn target_ratio_cancels_remaining_attempts() {
        // threads=1: attempt 0 reaches the (easy) target, so attempts
        // 1.. must be skipped without running
        let portfolio = Portfolio::new()
            .attempt("first", IgMatchStage::default())
            .attempt("second", IgMatchStage::default())
            .attempt("third", IgMatchStage::default());
        let meter = BudgetMeter::unlimited();
        let out = run_portfolio(
            &two_triangles(),
            &portfolio,
            &PortfolioOptions::default()
                .with_threads(1)
                .with_target_ratio(1.0),
            &meter,
            None,
        )
        .unwrap();
        assert_eq!(out.winner, 0);
        assert!(out.report.cancelled);
        assert!(meter.is_cancelled());
        assert_eq!(out.report.attempts[1].status, AttemptStatus::Skipped);
        assert_eq!(out.report.attempts[2].status, AttemptStatus::Skipped);
    }

    #[test]
    fn exhausted_budget_reports_every_attempt() {
        let portfolio = Portfolio::new()
            .attempt("a", IgMatchStage::default())
            .attempt("b", IgMatchStage::default());
        let meter = BudgetMeter::new(&Budget::default().with_matvecs(0));
        let err = run_portfolio(
            &two_triangles(),
            &portfolio,
            &PortfolioOptions::default().with_threads(1),
            &meter,
            None,
        )
        .unwrap_err();
        assert!(matches!(err.error, PartitionError::Budget(_)));
        assert_eq!(err.report.attempts.len(), 2);
        for a in &err.report.attempts {
            assert_eq!(a.status, AttemptStatus::Skipped);
        }
    }

    #[test]
    fn events_are_tagged_with_attempt() {
        let log = Mutex::new(Vec::<(usize, String)>::new());
        let sink = |e: &PortfolioEvent<'_>| {
            if let StageEvent::Started { stage } = e.event {
                log.lock().unwrap().push((e.attempt, stage.to_string()));
            }
        };
        let portfolio = Portfolio::new()
            .attempt("a", IgMatchStage::default())
            .attempt("b", FmStage::seeded(derive_seed(DEFAULT_SEED, 1)));
        run_portfolio(
            &two_triangles(),
            &portfolio,
            &PortfolioOptions::default().with_threads(1),
            &BudgetMeter::unlimited(),
            Some(&sink),
        )
        .unwrap();
        let log = log.into_inner().unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0], (0, "IG-Match".to_string()));
        assert_eq!(log[1], (1, "FM-restart".to_string()));
    }

    #[test]
    fn per_attempt_charge_is_local() {
        let portfolio = Portfolio::new()
            .attempt("a", IgMatchStage::default())
            .attempt("b", IgMatchStage::default());
        let meter = BudgetMeter::unlimited();
        let out = run_portfolio(
            &two_triangles(),
            &portfolio,
            &PortfolioOptions::default().with_threads(1),
            &meter,
            None,
        )
        .unwrap();
        let total: u64 = out.report.attempts.iter().map(|a| a.charge).sum();
        assert_eq!(
            total,
            meter.matvecs_used(),
            "attempt charges must partition the pool"
        );
        assert!(out.report.attempts.iter().all(|a| a.charge > 0));
    }

    /// Test double for the panic-isolation contract: a stage that always
    /// panics, standing in for a poisoned algorithm.
    struct PanickingStage;

    impl Partitioner for PanickingStage {
        fn name(&self) -> &'static str {
            "panicker"
        }

        fn partition(
            &self,
            _hg: &Hypergraph,
            _ctx: &RunContext<'_>,
        ) -> Result<PartitionResult, PartitionError> {
            panic!("injected attempt panic");
        }
    }

    #[test]
    fn panicking_attempt_fails_the_attempt_not_the_portfolio() {
        // attempt 0 panics; the pool must survive, run attempt 1, and
        // report the panic as a per-attempt outcome
        let portfolio = Portfolio::new()
            .attempt("poisoned", PanickingStage)
            .attempt("healthy", IgMatchStage::default());
        for threads in [1, 2] {
            let out = run_portfolio(
                &two_triangles(),
                &portfolio,
                &PortfolioOptions::default().with_threads(threads),
                &BudgetMeter::unlimited(),
                None,
            )
            .unwrap();
            assert_eq!(out.winner, 1, "threads={threads}");
            assert_eq!(out.report.attempts[0].status, AttemptStatus::Panicked);
            let msg = out.report.attempts[0].error.as_deref().unwrap();
            assert!(msg.contains("injected attempt panic"), "{msg}");
            assert_eq!(out.report.attempts[1].status, AttemptStatus::Won);
        }
    }

    #[test]
    fn all_attempts_panicking_is_a_portfolio_error_not_a_panic() {
        let portfolio = Portfolio::new()
            .attempt("a", PanickingStage)
            .attempt("b", PanickingStage);
        let err = run_portfolio(
            &two_triangles(),
            &portfolio,
            &PortfolioOptions::default().with_threads(2),
            &BudgetMeter::unlimited(),
            None,
        )
        .unwrap_err();
        assert!(matches!(err.error, PartitionError::Panicked { .. }));
        for a in &err.report.attempts {
            assert_eq!(a.status, AttemptStatus::Panicked);
        }
    }

    #[test]
    fn best_score_is_the_winners_score() {
        let portfolio = Portfolio::new().restarts("FM", 4, |i| {
            Box::new(FmStage::seeded(derive_seed(3, i as u64))) as BoxedStage
        });
        let hg = two_triangles();
        let run = |score: &(dyn Fn(&PartitionResult) -> f64 + Sync)| {
            let opts = PortfolioOptions::default().with_threads(2);
            run_portfolio_scored(
                &hg,
                &portfolio,
                &opts,
                &BudgetMeter::unlimited(),
                None,
                score,
            )
            .unwrap()
        };
        let out = run(&|r: &PartitionResult| r.ratio());
        let winner = out.report.attempts[out.winner].score.unwrap();
        assert_eq!(
            out.report.best_score.map(f64::to_bits),
            Some(winner.to_bits())
        );
        // every attempt completes, none with a finite score: a winner
        // but no best score
        let out = run(&|_: &PartitionResult| f64::INFINITY);
        assert_eq!(out.winner, 0);
        assert_eq!(out.report.best_score, None);
    }

    #[test]
    fn custom_score_reverses_the_winner() {
        let portfolio = Portfolio::new()
            .attempt("a", IgMatchStage::default())
            .attempt("b", IgMatchStage::default());
        // a perverse objective that prefers the *larger* ratio still
        // tie-breaks deterministically by index
        let out = run_portfolio_scored(
            &two_triangles(),
            &portfolio,
            &PortfolioOptions::default().with_threads(1),
            &BudgetMeter::unlimited(),
            None,
            &|r: &PartitionResult| -r.ratio(),
        )
        .unwrap();
        assert_eq!(out.winner, 0);
    }

    #[test]
    fn thread_auto_detect_never_zero() {
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(8, 3), 3, "clamped to attempt count");
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(0, 0), 1);
    }
}
