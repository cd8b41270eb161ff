//! Integration tests for the resilient partitioning pipeline: every
//! fallback stage is forced to fire via deterministic fault injection
//! (the root crate's dev-dependencies enable `np-core/fault-inject`),
//! budgets are honored end to end, the `np-part` binary never panics
//! on malformed input, and its `--report-json` file parses.

use ig_match_repro::core::engine::fault::FaultKind;
use ig_match_repro::core::robust::{FaultPlan, RESEED_ATTEMPTS};
use ig_match_repro::eigen::EigenError;
use ig_match_repro::netlist::generate::{generate, GeneratorConfig};
use ig_match_repro::{
    robust_partition, robust_partition_ctx, Budget, BudgetMeter, FallbackStage, Hypergraph,
    PartitionError, RobustOptions, RunContext,
};
use std::time::{Duration, Instant};

fn circuit() -> Hypergraph {
    generate(&GeneratorConfig::new(200, 220, 0xFA117).with_satellite(0.12, 3))
}

fn opts_with(faults: FaultPlan) -> RobustOptions {
    RobustOptions {
        faults,
        ..Default::default()
    }
}

#[test]
fn no_faults_first_stage_wins() {
    let out = robust_partition(&circuit(), &RobustOptions::default()).unwrap();
    assert_eq!(out.diagnostics.winning_stage, Some(FallbackStage::IgMatch));
    assert_eq!(out.diagnostics.attempts.len(), 1);
    let s = &out.result.stats;
    assert!(s.left > 0 && s.right > 0 && s.ratio().is_finite());
}

#[test]
fn primary_fault_reseeded_lanczos_wins() {
    let plan = FaultPlan::new().with(FallbackStage::IgMatch, FaultKind::NoConvergence);
    let out = robust_partition(&circuit(), &opts_with(plan)).unwrap();
    assert_eq!(
        out.diagnostics.winning_stage,
        Some(FallbackStage::ReseededLanczos)
    );
    assert_eq!(out.diagnostics.attempts.len(), 2);
    assert!(matches!(
        out.diagnostics.attempts[0].error,
        Some(PartitionError::Eigen(_))
    ));
}

#[test]
fn lanczos_faults_dense_eigensolve_wins() {
    let plan = FaultPlan::new()
        .with(FallbackStage::IgMatch, FaultKind::NoConvergence)
        .with(FallbackStage::ReseededLanczos, FaultKind::NoConvergence);
    let out = robust_partition(&circuit(), &opts_with(plan)).unwrap();
    assert_eq!(
        out.diagnostics.winning_stage,
        Some(FallbackStage::DenseEigensolve)
    );
    // 1 primary + every reseed attempt + the dense win
    assert_eq!(out.diagnostics.attempts.len(), RESEED_ATTEMPTS + 2);
    for a in &out.diagnostics.attempts[..RESEED_ATTEMPTS + 1] {
        assert!(a.error.is_some(), "{a:?}");
    }
}

#[test]
fn all_spectral_ig_faults_clique_eig1_wins() {
    let plan = FaultPlan::new()
        .with(FallbackStage::IgMatch, FaultKind::NoConvergence)
        .with(FallbackStage::ReseededLanczos, FaultKind::NoConvergence)
        .with(FallbackStage::DenseEigensolve, FaultKind::NoConvergence);
    let out = robust_partition(&circuit(), &opts_with(plan)).unwrap();
    assert_eq!(
        out.diagnostics.winning_stage,
        Some(FallbackStage::CliqueEig1)
    );
    assert_eq!(out.result.algorithm, "EIG1");
}

#[test]
fn every_eigensolve_faulted_fm_baseline_wins() {
    let plan = FaultPlan::new()
        .with(FallbackStage::IgMatch, FaultKind::NoConvergence)
        .with(FallbackStage::ReseededLanczos, FaultKind::NoConvergence)
        .with(FallbackStage::DenseEigensolve, FaultKind::NoConvergence)
        .with(FallbackStage::CliqueEig1, FaultKind::NoConvergence);
    let out = robust_partition(&circuit(), &opts_with(plan)).unwrap();
    assert_eq!(
        out.diagnostics.winning_stage,
        Some(FallbackStage::FmBaseline)
    );
    assert_eq!(out.result.algorithm, "FM");
    let s = &out.result.stats;
    assert!(s.left > 0 && s.right > 0);
    // every earlier link is on record as failed
    assert_eq!(out.diagnostics.attempts.len(), RESEED_ATTEMPTS + 4);
}

#[test]
fn one_net_netlist_is_split_by_a_module_space_link() {
    // six modules on one net: the IG-Match links need two nets, but the
    // clique model joins every pair of modules, so EIG1 splits it
    let hg = ig_match_repro::netlist::hypergraph_from_nets(6, &[vec![0, 1, 2, 3, 4, 5]]);
    let out = robust_partition(&hg, &RobustOptions::default()).unwrap();
    assert_eq!(out.result.stats.cut_nets, 1);
    assert_eq!(
        out.diagnostics.winning_stage,
        Some(FallbackStage::CliqueEig1)
    );
    for a in &out.diagnostics.attempts[..out.diagnostics.attempts.len() - 1] {
        assert!(
            matches!(a.error, Some(PartitionError::TooSmall { nets: 1, .. })),
            "{a:?}"
        );
    }
}

#[test]
fn portfolio_attempts_report_their_own_spend() {
    // four robust attempts on one seed stream spend the same; each
    // chain's diagnostics line counts its own matvecs, not the shared
    // pool's running total, and agrees with the portfolio report's charge
    use ig_match_repro::core::engine::StageEvent;
    use ig_match_repro::runner::{
        run_portfolio, Algorithm, Portfolio, PortfolioEvent, PortfolioOptions,
    };
    use ig_match_repro::IgMatchOptions;
    let lines = std::sync::Mutex::new(Vec::new());
    let sink = |e: &PortfolioEvent<'_>| {
        if let StageEvent::Detail {
            stage: "robust",
            message,
        } = e.event
        {
            lines.lock().unwrap().push((e.attempt, message.to_string()));
        }
    };
    let portfolio = Portfolio::new().restarts("robust", 4, |_| {
        Algorithm::Robust.attempt(IgMatchOptions::default(), 1)
    });
    let opts = PortfolioOptions::default().with_threads(1);
    let out = run_portfolio(
        &circuit(),
        &portfolio,
        &opts,
        &BudgetMeter::unlimited(),
        Some(&sink),
    )
    .unwrap();
    let mut lines = lines.into_inner().unwrap();
    lines.sort();
    let matvecs: Vec<u64> = lines
        .iter()
        .map(|(_, line)| {
            let count = line
                .split(", ")
                .nth(1)
                .and_then(|s| s.strip_suffix(" matvecs"));
            count
                .and_then(|c| c.parse().ok())
                .unwrap_or_else(|| panic!("{line}"))
        })
        .collect();
    assert_eq!(matvecs.len(), 4, "{lines:?}");
    assert!(matvecs[0] > 0);
    assert!(matvecs.iter().all(|&m| m == matvecs[0]), "{lines:?}");
    let charges: Vec<u64> = out.report.attempts.iter().map(|a| a.charge).collect();
    assert_eq!(charges, matvecs);
}

#[test]
fn poisoned_operator_detected_and_survived() {
    // an injected NonFinite stands in for a poisoned operator here; the
    // real NaN detection is `lanczos::tests::poisoned_operator_surfaces_non_finite`
    let plan = FaultPlan::new().with(FallbackStage::IgMatch, FaultKind::NonFinite);
    let out = robust_partition(&circuit(), &opts_with(plan)).unwrap();
    assert_eq!(
        out.diagnostics.winning_stage,
        Some(FallbackStage::ReseededLanczos)
    );
    let err = out.diagnostics.attempts[0].error.as_ref().unwrap();
    assert!(err.to_string().contains("non-finite"), "{err}");
}

#[test]
fn injected_budget_exhaustion_aborts_chain() {
    let plan = FaultPlan::new().with(FallbackStage::IgMatch, FaultKind::ExhaustBudget);
    let fail = robust_partition(&circuit(), &opts_with(plan)).unwrap_err();
    assert!(matches!(fail.error, PartitionError::Budget(_)));
    // fatal: no later stage may run on a spent budget
    assert_eq!(fail.diagnostics.attempts.len(), 1);
    assert_eq!(fail.diagnostics.winning_stage, None);
}

#[test]
fn full_chain_faulted_reports_total_failure() {
    let plan = FaultPlan::new()
        .with(FallbackStage::IgMatch, FaultKind::NoConvergence)
        .with(FallbackStage::ReseededLanczos, FaultKind::NoConvergence)
        .with(FallbackStage::DenseEigensolve, FaultKind::NoConvergence)
        .with(FallbackStage::CliqueEig1, FaultKind::NoConvergence)
        .with(FallbackStage::FmBaseline, FaultKind::NoConvergence);
    let fail = robust_partition(&circuit(), &opts_with(plan)).unwrap_err();
    assert_eq!(fail.diagnostics.winning_stage, None);
    assert_eq!(fail.diagnostics.attempts.len(), RESEED_ATTEMPTS + 4);
    assert!(fail.to_string().contains("no stage succeeded"), "{fail}");
}

#[test]
fn starved_lanczos_escalates_to_dense_eigensolve() {
    // no injected faults: a 4-vector basis with no restarts cannot reach
    // the residual tolerance on 220 nets (above the 48-net dense cutoff),
    // so every Lanczos link fails for real and the dense link wins
    let mut opts = RobustOptions::default();
    opts.ig_match.lanczos.max_basis = 4;
    opts.ig_match.lanczos.max_restarts = 0;
    let hg = circuit();
    assert!(hg.num_nets() > opts.ig_match.lanczos.dense_cutoff);
    let out = robust_partition(&hg, &opts).unwrap();
    assert_eq!(
        out.diagnostics.winning_stage,
        Some(FallbackStage::DenseEigensolve)
    );
    assert_eq!(out.diagnostics.attempts.len(), RESEED_ATTEMPTS + 2);
    for a in &out.diagnostics.attempts[..RESEED_ATTEMPTS + 1] {
        assert!(
            matches!(
                a.error,
                Some(PartitionError::Eigen(EigenError::NoConvergence { .. }))
            ),
            "{a:?}"
        );
    }
}

#[test]
fn budget_limited_run_returns_within_twice_the_limit() {
    // acceptance criterion: a budget-limited run must come back within
    // 2x the requested wall clock (cooperative checks are per-iteration,
    // so in practice it is far tighter; the bound guards against hangs)
    let run = |hg: &Hypergraph, opts: &RobustOptions, limit: Duration| {
        let meter = BudgetMeter::new(&Budget::UNLIMITED.with_wall_clock(limit));
        let started = Instant::now();
        let outcome = robust_partition_ctx(hg, opts, &RunContext::with_meter(&meter));
        let took = started.elapsed();
        assert!(
            took < limit * 2,
            "took {took:.1?} against a {limit:.1?} budget"
        );
        outcome
    };

    let hg = generate(&GeneratorConfig::new(600, 650, 0xB1D).with_satellite(0.1, 4));
    // either answer is acceptable; exhaustion must be structured
    if let Err(fail) = run(&hg, &RobustOptions::default(), Duration::from_millis(250)) {
        assert!(matches!(fail.error, PartitionError::Budget(_)), "{fail}");
    }

    // with every Lanczos link faulted the dense link runs: an O(n³)
    // Jacobi solve on 1,500+ nets that only its per-row meter checks
    // can stop in time
    let hg = generate(&GeneratorConfig::new(1500, 1600, 0xDE45));
    assert!(hg.num_nets() >= 1500);
    let plan = FaultPlan::new()
        .with(FallbackStage::IgMatch, FaultKind::NoConvergence)
        .with(FallbackStage::ReseededLanczos, FaultKind::NoConvergence);
    let fail = run(&hg, &opts_with(plan), Duration::from_millis(200)).unwrap_err();
    assert!(matches!(fail.error, PartitionError::Budget(_)), "{fail}");
    let last = fail.diagnostics.attempts.last().unwrap();
    assert_eq!(last.label, FallbackStage::DenseEigensolve);
}

#[test]
fn np_part_binary_rejects_malformed_hgr_without_panicking() {
    // drive the real binary over a pile of malformed inputs; a panic or
    // a zero exit status is a failure, a structured error is expected
    let bin = env!("CARGO_BIN_EXE_np-part");
    let dir = std::env::temp_dir();
    let cases: &[(&str, &str)] = &[
        ("empty", ""),
        ("garbage", "not a header\n1 2\n"),
        ("oversized", "1 99999999999999\n1 2\n"),
        ("truncated", "5 4\n1 2\n"),
        ("zero_pin", "1 2\n0 1\n"),
        ("out_of_range", "1 2\n1 9\n"),
    ];
    for (name, text) in cases {
        let path = dir.join(format!("np_part_robust_{name}.hgr"));
        std::fs::write(&path, text).unwrap();
        let out = std::process::Command::new(bin)
            .arg(&path)
            .output()
            .expect("binary should run");
        assert!(!out.status.success(), "{name}: accepted malformed input");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("parse failed") || stderr.contains("cannot open"),
            "{name}: unexpected stderr {stderr}"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn np_part_robust_algorithm_prints_diagnostics() {
    let bin = env!("CARGO_BIN_EXE_np-part");
    let dir = std::env::temp_dir();
    let path = dir.join("np_part_robust_ok.hgr");
    let hg = circuit();
    std::fs::write(&path, ig_match_repro::netlist::io::to_hgr_string(&hg)).unwrap();
    let out = std::process::Command::new(bin)
        .arg(&path)
        .args(["--fallback", "--budget-ms", "60000"])
        .output()
        .expect("binary should run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(
        stderr.contains("solved by"),
        "missing diagnostics: {stderr}"
    );
    assert!(stdout.contains("robust["), "missing label: {stdout}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn np_part_report_json_records_every_attempt() {
    use ig_match_repro::runner::json::{parse, Value};
    let bin = env!("CARGO_BIN_EXE_np-part");
    let dir = std::env::temp_dir();
    let hgr = dir.join(format!("np_part_report_{}.hgr", std::process::id()));
    let report = dir.join(format!("np_part_report_{}.json", std::process::id()));
    std::fs::write(&hgr, ig_match_repro::netlist::io::to_hgr_string(&circuit())).unwrap();
    let out = std::process::Command::new(bin)
        .arg(&hgr)
        .args(["--restarts", "2", "--report-json"])
        .arg(&report)
        .output()
        .expect("binary should run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let text = std::fs::read_to_string(&report).unwrap();
    let doc = parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(ig_match_repro::runner::REPORT_SCHEMA)
    );
    let Some(Value::Array(attempts)) = doc.get("attempts") else {
        panic!("attempts is not an array: {text}");
    };
    assert_eq!(attempts.len(), 2, "{text}");
    let winner = doc.get("winner").and_then(Value::as_u64).expect("a winner");
    let won = &attempts[winner as usize];
    assert_eq!(won.get("status").and_then(Value::as_str), Some("won"));
    assert_eq!(won.get("index").and_then(Value::as_u64), Some(winner));
    std::fs::remove_file(&hgr).ok();
    std::fs::remove_file(&report).ok();
}
