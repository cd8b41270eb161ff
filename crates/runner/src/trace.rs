//! Span fan-in: portfolio events from concurrent attempts → one
//! [`SpanRing`].
//!
//! A portfolio interleaves [`StageEvent`](np_core::engine::StageEvent)s
//! from every worker thread; the [`PortfolioSink`] fan-in already tags
//! each event with its attempt index. [`SpanFanIn`] completes the
//! picture for tracing: it keeps one [`SpanRecorder`] *per attempt*
//! (stages of different attempts overlap in time but never nest across
//! attempts), so each attempt's `Started`/`Finished` pairs become
//! [`SpanKind::Stage`] spans tagged with the attempt in the shared ring.
//!
//! After the run, [`record_attempt_spans`] turns the
//! [`PortfolioReport`]'s per-attempt wall times into
//! [`SpanKind::Attempt`] spans, so a reader sees the full containment:
//! request span ⊃ attempt spans ⊃ stage spans (the serving layer records
//! the request span itself).

use crate::{AttemptStatus, PortfolioEvent, PortfolioReport, PortfolioSink};
use np_core::engine::trace::{Span, SpanKind, SpanRecorder, SpanRing};
use np_core::engine::EventSink;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// A [`PortfolioSink`] recording stage spans into a [`SpanRing`],
/// optionally forwarding every event to an inner sink (so tracing
/// composes with progress streaming instead of replacing it).
pub struct SpanFanIn<'a> {
    ring: &'a SpanRing,
    request: u64,
    attempts: Mutex<HashMap<usize, SpanRecorder<'a>>>,
    forward: Option<&'a dyn PortfolioSink>,
}

impl std::fmt::Debug for SpanFanIn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanFanIn")
            .field("request", &self.request)
            .field("forwarding", &self.forward.is_some())
            .finish()
    }
}

impl<'a> SpanFanIn<'a> {
    /// A fan-in tagging every span with `request` (the serving layer's
    /// request sequence number; use `0` outside a request scope).
    pub fn new(ring: &'a SpanRing, request: u64) -> Self {
        SpanFanIn {
            ring,
            request,
            attempts: Mutex::new(HashMap::new()),
            forward: None,
        }
    }

    /// Also forwards every event to `sink` (builder style).
    #[must_use]
    pub fn forwarding(mut self, sink: &'a dyn PortfolioSink) -> Self {
        self.forward = Some(sink);
        self
    }
}

impl PortfolioSink for SpanFanIn<'_> {
    fn on_event(&self, event: &PortfolioEvent<'_>) {
        self.attempts
            .lock()
            .expect("fan-in lock")
            .entry(event.attempt)
            .or_insert_with(|| SpanRecorder::tagged(self.ring, self.request, Some(event.attempt)))
            .on_event(event.event);
        if let Some(sink) = self.forward {
            sink.on_event(event);
        }
    }
}

/// Records one [`SpanKind::Attempt`] span per attempt of `report` into
/// `ring`, labelled with the attempt label and carrying the attempt's
/// wall time. `portfolio_started` anchors the start offsets: attempts
/// run concurrently, so each span is placed at the portfolio start (the
/// per-attempt queueing skew inside the worker pool is not tracked). A
/// span is `ok` only if its attempt produced a partition: a skipped
/// attempt has no error, yet it never ran.
pub fn record_attempt_spans(
    ring: &SpanRing,
    request: u64,
    report: &PortfolioReport,
    portfolio_started: Instant,
) {
    let base = portfolio_started.saturating_duration_since(ring.epoch());
    for attempt in &report.attempts {
        ring.record(Span {
            kind: SpanKind::Attempt,
            label: attempt.label.clone(),
            request,
            attempt: Some(attempt.index),
            start: base,
            wall: attempt.wall,
            ok: Some(matches!(
                attempt.status,
                AttemptStatus::Won | AttemptStatus::Completed
            )),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_portfolio, Portfolio, PortfolioOptions};
    use np_core::engine::stages::{FmStage, IgMatchStage};
    use np_core::engine::{StageEvent, DEFAULT_SEED};
    use np_netlist::hypergraph_from_nets;
    use np_netlist::rng::derive_seed;
    use np_sparse::BudgetMeter;

    fn hg() -> np_netlist::Hypergraph {
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
    fn portfolio_run_records_tagged_stage_and_attempt_spans() {
        let ring = SpanRing::new(256);
        let fan_in = SpanFanIn::new(&ring, 42);
        let portfolio = Portfolio::new()
            .attempt("IG-Match", IgMatchStage::default())
            .attempt("FM", FmStage::seeded(derive_seed(DEFAULT_SEED, 1)));
        let started = Instant::now();
        let out = run_portfolio(
            &hg(),
            &portfolio,
            &PortfolioOptions::default().with_threads(2),
            &BudgetMeter::unlimited(),
            Some(&fan_in),
        )
        .unwrap();
        record_attempt_spans(&ring, 42, &out.report, started);

        let spans = ring.snapshot();
        let stages: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Stage).collect();
        let attempts: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Attempt)
            .collect();
        assert_eq!(stages.len(), 2, "{spans:?}");
        assert_eq!(attempts.len(), 2, "{spans:?}");
        for s in &spans {
            assert_eq!(s.request, 42);
            assert!(s.attempt.is_some());
            assert_eq!(s.ok, Some(true));
        }
        let labels: Vec<&str> = attempts.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&"IG-Match") && labels.contains(&"FM"));
        // every stage span sits inside some attempt's index space
        for s in &stages {
            assert!(s.attempt.unwrap() < 2);
        }
    }

    #[test]
    fn skipped_attempts_record_failed_spans() {
        // cancelled before the portfolio starts: every attempt is skipped,
        // has no error, and still never ran
        let ring = SpanRing::new(16);
        let portfolio = Portfolio::new()
            .attempt("IG-Match", IgMatchStage::default())
            .attempt("FM", FmStage::seeded(derive_seed(DEFAULT_SEED, 1)));
        let meter = BudgetMeter::unlimited();
        meter.cancel();
        let started = Instant::now();
        let failure = run_portfolio(
            &hg(),
            &portfolio,
            &PortfolioOptions::default().with_threads(1),
            &meter,
            None,
        )
        .unwrap_err();
        assert!(failure
            .report
            .attempts
            .iter()
            .all(|a| a.status == AttemptStatus::Skipped && a.error.is_none()));
        record_attempt_spans(&ring, 3, &failure.report, started);
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 2, "{spans:?}");
        for s in &spans {
            assert_eq!(s.kind, SpanKind::Attempt);
            assert_eq!(s.ok, Some(false), "{s:?}");
        }
    }

    #[test]
    fn fan_in_forwards_to_inner_sink() {
        let ring = SpanRing::new(64);
        let forwarded = Mutex::new(0usize);
        let inner = |_: &PortfolioEvent<'_>| {
            *forwarded.lock().unwrap() += 1;
        };
        let fan_in = SpanFanIn::new(&ring, 1).forwarding(&inner);
        let portfolio = Portfolio::new().attempt("IG-Match", IgMatchStage::default());
        run_portfolio(
            &hg(),
            &portfolio,
            &PortfolioOptions::default().with_threads(1),
            &BudgetMeter::unlimited(),
            Some(&fan_in),
        )
        .unwrap();
        assert!(
            *forwarded.lock().unwrap() >= 2,
            "inner sink must see started+finished"
        );
        assert!(!ring.snapshot().is_empty());
    }

    #[test]
    fn concurrent_attempts_keep_independent_stacks() {
        // interleave events from two attempts by hand: each must close
        // against its own stack
        let ring = SpanRing::new(16);
        let fan_in = SpanFanIn::new(&ring, 9);
        let err = np_core::PartitionError::Degenerate;
        let started = |attempt: usize| PortfolioEvent {
            attempt,
            label: "x",
            event: &StageEvent::Started { stage: "S" },
        };
        fan_in.on_event(&started(0));
        fan_in.on_event(&started(1));
        fan_in.on_event(&PortfolioEvent {
            attempt: 1,
            label: "x",
            event: &StageEvent::Finished {
                stage: "S",
                outcome: Err(&err),
            },
        });
        fan_in.on_event(&PortfolioEvent {
            attempt: 0,
            label: "x",
            event: &StageEvent::Finished {
                stage: "S",
                outcome: Err(&err),
            },
        });
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].attempt, Some(1), "attempt 1 finished first");
        assert_eq!(spans[1].attempt, Some(0));
    }
}
