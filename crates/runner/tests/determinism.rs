//! Portfolio determinism and cancellation properties (ISSUE PR 3,
//! satellite 3).
//!
//! * **Determinism**: for a fixed base seed, the winner — index,
//!   partition, ratio — and every per-attempt record (status, score,
//!   charge) are bit-identical for `threads ∈ {1, 2, 8}` on random
//!   netlists, because attempt seeds derive from the attempt *index*
//!   (not the worker) and the reduction orders by `(score, index)`.
//! * **Cancellation**: once the shared deadline passes, in-flight
//!   attempts stop at their next budget check and the whole portfolio
//!   returns promptly with every attempt's fate recorded.

use np_baselines::RcutOptions;
use np_core::engine::stages::{IgMatchStage, RcutStage};
use np_core::{IgMatchOptions, PartitionError, PartitionResult, Partitioner, RunContext};
use np_netlist::rng::derive_seed;
use np_netlist::{Hypergraph, Side};
use np_runner::json::Value;
use np_runner::{
    run_portfolio, Algorithm, AttemptStatus, Portfolio, PortfolioOptions, PortfolioOutcome,
    RandomStartFmStage,
};
use np_sparse::{Budget, BudgetMeter};
use np_testkit::{check_cases, small_hypergraph, Gen};
use std::time::{Duration, Instant};

/// Winner index, winning sides, winning ratio bits, then per-attempt
/// (status, score bits, charge).
type Fingerprint = (usize, Vec<Side>, u64, Vec<(AttemptStatus, u64, u64)>);

/// Everything about an outcome that the determinism contract promises is
/// thread-count invariant. Wall times and the *global* pool total are
/// deliberately excluded (they are timing-dependent).
fn fingerprint(out: &PortfolioOutcome) -> Fingerprint {
    (
        out.winner,
        out.best.partition.sides().to_vec(),
        out.best.ratio().to_bits(),
        out.report
            .attempts
            .iter()
            .map(|a| {
                (
                    a.status,
                    a.score.unwrap_or(f64::INFINITY).to_bits(),
                    a.charge,
                )
            })
            .collect(),
    )
}

fn mixed_portfolio(seed: u64) -> Portfolio {
    let mut p = Portfolio::new().attempt("IG-Match", IgMatchStage::default());
    for i in 0..3u64 {
        p = p.attempt(
            format!("RCut#{i}"),
            RcutStage {
                opts: RcutOptions {
                    runs: 1,
                    seed: derive_seed(seed, i),
                    ..RcutOptions::default()
                },
            },
        );
    }
    p
}

#[test]
fn winner_is_identical_for_1_2_and_8_threads() {
    check_cases(24, 0x0DAC_5EED, |g: &mut Gen| {
        let hg = small_hypergraph(g);
        if hg.num_modules() < 2 {
            return;
        }
        let seed = g.rng().next_u64();
        let portfolio = mixed_portfolio(seed);
        let mut prints = Vec::new();
        for threads in [1usize, 2, 8] {
            let opts = PortfolioOptions::default()
                .with_threads(threads)
                .with_seed(seed);
            match run_portfolio(&hg, &portfolio, &opts, &BudgetMeter::unlimited(), None) {
                Ok(out) => prints.push(Some(fingerprint(&out))),
                Err(_) => prints.push(None),
            }
        }
        assert_eq!(prints[0], prints[1], "threads=1 vs threads=2");
        assert_eq!(prints[0], prints[2], "threads=1 vs threads=8");
    });
}

#[test]
fn fm_restart_portfolio_is_thread_invariant() {
    check_cases(16, 0xF00D_F00D, |g: &mut Gen| {
        let hg = small_hypergraph(g);
        if hg.num_modules() < 4 {
            return;
        }
        let portfolio = Algorithm::Fm.portfolio(IgMatchOptions::default(), 6, 11);
        let mut prints = Vec::new();
        for threads in [1usize, 2, 8] {
            let opts = PortfolioOptions::default()
                .with_threads(threads)
                .with_seed(11);
            // tiny instances may legitimately fail (FM's balance slack
            // allows emptying a side for n=4, which evaluates as
            // Degenerate) — failures must be thread-invariant too
            match run_portfolio(&hg, &portfolio, &opts, &BudgetMeter::unlimited(), None) {
                Ok(out) => prints.push(Some(fingerprint(&out))),
                Err(_) => prints.push(None),
            }
        }
        assert_eq!(prints[0], prints[1]);
        assert_eq!(prints[0], prints[2]);
    });
}

#[test]
fn attempt_seeds_follow_the_derive_seed_streams() {
    // run the same single-attempt stage standalone on stream i and
    // inside the portfolio at index i: identical results
    let mut g = Gen::new(0xBEEF);
    // n >= 8 keeps FM's balance slack from ever emptying a side, so
    // every attempt completes and the portfolio cannot fail
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
        &PortfolioOptions::default().with_threads(1).with_seed(base),
        &BudgetMeter::unlimited(),
        None,
    )
    .unwrap();
    for i in 0..4u64 {
        let stage = RandomStartFmStage::default();
        let ctx = RunContext::unlimited().with_seed(derive_seed(base, i));
        let standalone = stage.partition(&hg, &ctx);
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
