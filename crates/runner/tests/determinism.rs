//! Portfolio seeding and cancellation properties. Thread-count
//! invariance of the winner and the report is a row of the root
//! package's differential matrix (`tests/differential.rs`).
//!
//! * **Seeding**: attempt `i` of an algorithm-table portfolio runs on
//!   seed stream `derive_seed(seed, i)`, whatever the worker that picks
//!   it up.
//! * **Cancellation**: once the shared deadline passes, in-flight
//!   attempts stop at their next budget check and the whole portfolio
//!   returns promptly with every attempt's fate recorded.

use np_core::engine::stages::{FmStage, IgMatchStage};
use np_core::{IgMatchOptions, PartitionError, PartitionResult, Partitioner, RunContext};
use np_netlist::rng::derive_seed;
use np_netlist::Hypergraph;
use np_runner::json::Value;
use np_runner::{run_portfolio, Algorithm, AttemptStatus, Portfolio, PortfolioOptions};
use np_sparse::{Budget, BudgetMeter};
use np_testkit::{small_hypergraph, Gen};
use std::time::{Duration, Instant};

#[test]
fn attempt_seeds_follow_the_derive_seed_streams() {
    // run the same single-attempt stage standalone on stream i and
    // inside the portfolio at index i: identical results
    let mut g = Gen::new(0xBEEF);
    // every attempt completes, so the portfolio cannot fail
    let hg = loop {
        let hg = small_hypergraph(&mut g);
        if hg.num_modules() >= 8 {
            break hg;
        }
    };
    let base = 0x1234_5678_9ABC_DEF0u64;
    let portfolio = Algorithm::Fm.portfolio(IgMatchOptions::default(), 4, base);
    let out = run_portfolio(
        &hg,
        &portfolio,
        &PortfolioOptions::default().with_threads(1),
        &BudgetMeter::unlimited(),
        None,
    )
    .unwrap();
    for i in 0..4u64 {
        let stage = FmStage::seeded(derive_seed(base, i));
        let standalone = stage.partition(&hg, &RunContext::unlimited());
        let reported = &out.report.attempts[i as usize];
        match standalone {
            Ok(r) => assert_eq!(Some(r.ratio()), reported.ratio, "attempt {i}"),
            Err(_) => assert!(reported.ratio.is_none(), "attempt {i}"),
        }
    }
}

/// A stage that spins on the shared meter until the budget trips —
/// models a long-running kernel that only stops cooperatively.
struct SpinStage;

impl Partitioner for SpinStage {
    fn name(&self) -> &'static str {
        "spin"
    }

    fn partition(
        &self,
        _hg: &Hypergraph,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        loop {
            ctx.meter().charge(1)?;
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

#[test]
fn deadline_stops_in_flight_attempts_within_one_check() {
    let hg = np_netlist::hypergraph_from_nets(4, &[vec![0, 1], vec![2, 3]]);
    let portfolio = Portfolio::new()
        .attempt("spin-0", SpinStage)
        .attempt("spin-1", SpinStage)
        .attempt("spin-2", SpinStage)
        .attempt("spin-3", SpinStage);
    let meter = BudgetMeter::new(&Budget::default().with_wall_clock(Duration::from_millis(50)));
    let t0 = Instant::now();
    let err = run_portfolio(
        &hg,
        &portfolio,
        &PortfolioOptions::default().with_threads(2),
        &meter,
        None,
    )
    .unwrap_err();
    let elapsed = t0.elapsed();
    // 50ms budget, 200µs per check: generous slack for CI schedulers,
    // but far below what running any attempt to "completion" would take
    assert!(
        elapsed < Duration::from_secs(5),
        "portfolio did not stop promptly: {elapsed:?}"
    );
    assert!(matches!(err.error, PartitionError::Budget(_)));
    assert_eq!(err.report.attempts.len(), 4);
    for a in &err.report.attempts {
        assert!(
            matches!(
                a.status,
                AttemptStatus::BudgetExhausted | AttemptStatus::Skipped
            ),
            "unexpected status {:?}",
            a.status
        );
    }
    // the ones that ran actually charged the shared pool
    assert!(meter.matvecs_used() > 0);
}

#[test]
fn external_cancel_trips_in_flight_attempts() {
    let hg = np_netlist::hypergraph_from_nets(4, &[vec![0, 1], vec![2, 3]]);
    let portfolio = Portfolio::new()
        .attempt("spin-0", SpinStage)
        .attempt("spin-1", SpinStage);
    let meter = BudgetMeter::unlimited();
    let canceller = meter.clone();
    let t0 = Instant::now();
    let err = std::thread::scope(|s| {
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            canceller.cancel();
        });
        run_portfolio(
            &hg,
            &portfolio,
            &PortfolioOptions::default().with_threads(2),
            &meter,
            None,
        )
        .unwrap_err()
    });
    assert!(t0.elapsed() < Duration::from_secs(5));
    for a in &err.report.attempts {
        assert!(
            matches!(a.status, AttemptStatus::Cancelled | AttemptStatus::Skipped),
            "unexpected status {:?}",
            a.status
        );
    }
}

#[test]
fn target_ratio_reports_partial_portfolio() {
    let mut g = Gen::new(7);
    let hg = loop {
        let hg = small_hypergraph(&mut g);
        if hg.num_modules() >= 4 {
            break hg;
        }
    };
    let portfolio = Portfolio::new()
        .attempt("a", IgMatchStage::default())
        .attempt("b", IgMatchStage::default())
        .attempt("c", IgMatchStage::default())
        .attempt("d", IgMatchStage::default());
    let meter = BudgetMeter::unlimited();
    // an unreachable-to-miss target (any finite ratio qualifies)
    let out = run_portfolio(
        &hg,
        &portfolio,
        &PortfolioOptions::default()
            .with_threads(1)
            .with_target_ratio(f64::MAX),
        &meter,
        None,
    );
    if let Ok(out) = out {
        assert!(out.report.cancelled);
        let skipped = out
            .report
            .attempts
            .iter()
            .filter(|a| a.status == AttemptStatus::Skipped)
            .count();
        assert_eq!(skipped, 3, "attempts after the first must be skipped");
        let doc = np_runner::json::parse(&out.report.to_json()).unwrap();
        assert_eq!(doc.get("cancelled").and_then(Value::as_bool), Some(true));
        let Some(Value::Array(attempts)) = doc.get("attempts") else {
            panic!("attempts is not an array");
        };
        let skipped = attempts
            .iter()
            .filter(|a| a.get("status").and_then(Value::as_str) == Some("skipped"))
            .count();
        assert_eq!(skipped, 3);
    }
}
