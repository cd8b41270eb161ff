//! Equivalence properties for the engine refactor: every context-taking
//! entry point, run with an unlimited budget and the default seed, must
//! be **bit-identical** to the pre-refactor plain function it replaced,
//! and the `Stage` adapters must agree with both. When the plain path
//! errors, the context path must fail with the same error variant.

use ig_match_repro::core::engine::stages::{
    Eig1Stage, FmStage, IgMatchStage, IgVoteStage, KlStage, RcutStage,
};
use ig_match_repro::core::models::clique_adjacency;
use ig_match_repro::core::ordering::{
    spectral_module_ordering, spectral_module_ordering_ctx, spectral_net_ordering,
    spectral_net_ordering_ctx,
};
use ig_match_repro::eigen::LanczosOptions;
use ig_match_repro::hybrid::{
    hybrid_pipeline, ig_match_refined, ig_match_refined_ctx, HybridOptions,
};
use ig_match_repro::netlist::generate::{generate, GeneratorConfig};
use ig_match_repro::{
    eig1, eig1_ctx, fm_bisect, ig_match, ig_match_ctx, ig_vote, ig_vote_ctx, kl_bisect, rcut,
    robust_partition, robust_partition_ctx, Bipartition, BudgetMeter, Eig1Options, FmOptions,
    IgMatchOptions, IgVoteOptions, KlOptions, ModuleId, PartitionError, RcutOptions, RobustOptions,
    RunContext, Side, Stage,
};
use np_testkit::{check_cases, small_hypergraph};
use std::mem::discriminant;

/// Asserts plain and ctx outcomes agree: identical partitions on
/// success, same error variant on failure.
fn assert_equivalent(
    plain: &Result<ig_match_repro::PartitionResult, PartitionError>,
    ctx: &Result<ig_match_repro::PartitionResult, PartitionError>,
    what: &str,
) {
    match (plain, ctx) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.partition, b.partition, "{what}: partitions diverge");
            assert_eq!(a.stats, b.stats, "{what}: stats diverge");
            assert_eq!(a.algorithm, b.algorithm, "{what}: labels diverge");
        }
        (Err(a), Err(b)) => {
            assert_eq!(discriminant(a), discriminant(b), "{what}: {a} vs {b}");
        }
        (a, b) => panic!("{what}: plain {a:?} but ctx {b:?}"),
    }
}

#[test]
fn eig1_ctx_and_stage_match_plain() {
    check_cases(48, 0xE161, |g| {
        let hg = small_hypergraph(g);
        let opts = Eig1Options::default();
        let plain = eig1(&hg, &opts);
        let via_ctx = eig1_ctx(&hg, &opts, &RunContext::unlimited());
        let via_stage = Eig1Stage::new(opts).run(&hg, None, &RunContext::unlimited());
        assert_equivalent(&plain, &via_ctx, "eig1 ctx");
        assert_equivalent(&plain, &via_stage, "eig1 stage");
    });
}

#[test]
fn ig_match_ctx_and_stage_match_plain() {
    check_cases(48, 0x16AC, |g| {
        let hg = small_hypergraph(g);
        let opts = IgMatchOptions::default();
        let plain = ig_match(&hg, &opts);
        let via_ctx = ig_match_ctx(&hg, &opts, &RunContext::unlimited());
        match (&plain, &via_ctx) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.result.partition, b.result.partition);
                assert_eq!(a.matching_size, b.matching_size);
                assert_eq!(a.loser_count, b.loser_count);
            }
            (Err(a), Err(b)) => assert_eq!(discriminant(a), discriminant(b), "{a} vs {b}"),
            (a, b) => panic!("ig_match: plain {a:?} but ctx {b:?}"),
        }
        let via_stage = IgMatchStage::new(opts).run(&hg, None, &RunContext::unlimited());
        assert_equivalent(&plain.map(|o| o.result), &via_stage, "ig_match stage");
    });
}

#[test]
fn ig_vote_ctx_and_stage_match_plain() {
    check_cases(48, 0x1607E, |g| {
        let hg = small_hypergraph(g);
        let opts = IgVoteOptions::default();
        let plain = ig_vote(&hg, &opts);
        let via_ctx = ig_vote_ctx(&hg, &opts, &RunContext::unlimited());
        let via_stage = IgVoteStage::new(opts).run(&hg, None, &RunContext::unlimited());
        assert_equivalent(&plain, &via_ctx, "ig_vote ctx");
        assert_equivalent(&plain, &via_stage, "ig_vote stage");
    });
}

#[test]
fn spectral_orderings_ctx_match_plain() {
    check_cases(48, 0x0DAC, |g| {
        let hg = small_hypergraph(g);
        let opts = LanczosOptions::default();
        let ctx = RunContext::unlimited();
        match (
            spectral_module_ordering(&hg, &opts),
            spectral_module_ordering_ctx(&hg, &opts, &ctx),
        ) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "module orderings diverge"),
            (Err(a), Err(b)) => assert_eq!(discriminant(&a), discriminant(&b)),
            (a, b) => panic!("module ordering: plain {a:?} but ctx {b:?}"),
        }
        let w = ig_match_repro::IgWeighting::Paper;
        match (
            spectral_net_ordering(&hg, w, &opts),
            spectral_net_ordering_ctx(&hg, w, &opts, &ctx),
        ) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "net orderings diverge"),
            (Err(a), Err(b)) => assert_eq!(discriminant(&a), discriminant(&b)),
            (a, b) => panic!("net ordering: plain {a:?} but ctx {b:?}"),
        }
    });
}

#[test]
fn rcut_stage_matches_plain() {
    check_cases(48, 0x2C07, |g| {
        let hg = small_hypergraph(g);
        let opts = RcutOptions::default();
        let plain = rcut(&hg, &opts);
        let via_stage = RcutStage::new(opts)
            .run(&hg, None, &RunContext::unlimited())
            .expect("rcut stage cannot fail on n >= 2");
        assert_eq!(plain.partition, via_stage.partition);
        assert_eq!(plain.stats, via_stage.stats);
    });
}

#[test]
fn fm_stage_matches_plain_from_the_same_seed_partition() {
    check_cases(48, 0xF180, |g| {
        let hg = small_hypergraph(g);
        let opts = FmOptions::default();
        let n = hg.num_modules();
        let start = Bipartition::from_left_set(n, (0..n as u32 / 2).map(ModuleId));
        let plain = fm_bisect(&hg, &start, &opts);
        match FmStage::new(opts).run(&hg, None, &RunContext::unlimited()) {
            Ok(r) => assert_eq!(plain.partition, r.partition),
            // the stage rejects one-sided results the raw function allows
            Err(PartitionError::Degenerate) => {
                let (l, r) = (
                    plain.partition.count(Side::Left),
                    plain.partition.count(Side::Right),
                );
                assert!(l == 0 || r == 0, "stage rejected a two-sided partition");
            }
            Err(e) => panic!("unexpected FM stage error: {e}"),
        }
    });
}

#[test]
fn kl_stage_matches_plain_on_the_clique_graph() {
    check_cases(48, 0x6B1, |g| {
        let hg = small_hypergraph(g);
        let opts = KlOptions::default();
        let plain = kl_bisect(&clique_adjacency(&hg), &opts);
        let via_stage = KlStage::new(opts)
            .run(&hg, None, &RunContext::unlimited())
            .expect("kl stage cannot fail on n >= 2");
        for (i, side) in via_stage.partition.sides().iter().enumerate() {
            assert_eq!(
                *side == Side::Left,
                plain.left[i],
                "module {i} on the wrong side"
            );
        }
    });
}

#[test]
fn hybrid_ctx_and_pipeline_match_plain() {
    let hg = generate(&GeneratorConfig::new(180, 200, 11).with_satellite(0.1, 4));
    let opts = HybridOptions::default();
    let plain = ig_match_refined(&hg, &opts).unwrap();
    let via_ctx = ig_match_refined_ctx(&hg, &opts, &RunContext::unlimited()).unwrap();
    let via_pipeline = hybrid_pipeline(&opts)
        .run(&hg, None, &RunContext::unlimited())
        .unwrap();
    assert_eq!(plain.partition, via_ctx.partition);
    assert_eq!(plain.partition, via_pipeline.partition);
    assert_eq!(via_pipeline.algorithm, "IG-Match+FM");
}

#[test]
fn robust_ctx_matches_plain_and_is_deterministic() {
    check_cases(16, 0x20B5, |g| {
        let hg = small_hypergraph(g);
        let opts = RobustOptions::default();
        let meter = BudgetMeter::unlimited();
        let via_ctx = robust_partition_ctx(&hg, &opts, &RunContext::with_meter(&meter));
        let robust = robust_partition(&hg, &opts);
        // the chain's first link is IG-Match itself: whenever IG-Match
        // succeeds, robust returns its result (partition, stats,
        // split_rank) bit for bit
        if let Ok(ig) = ig_match_ctx(&hg, &opts.ig_match, &RunContext::unlimited()) {
            let r = &robust.as_ref().expect("IG-Match succeeded").result;
            assert_eq!(r, &ig.result);
        }
        match (robust, via_ctx) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.result.partition, b.result.partition);
                assert_eq!(a.diagnostics.winning_stage, b.diagnostics.winning_stage);
                assert_eq!(a.diagnostics.attempts.len(), b.diagnostics.attempts.len());
            }
            (Err(a), Err(b)) => {
                assert_eq!(discriminant(&a.error), discriminant(&b.error));
            }
            (a, b) => panic!("robust: plain {:?} but ctx {:?}", a.is_ok(), b.is_ok()),
        }
    });
}

#[test]
fn zero_budget_context_trips_every_entry_point() {
    let hg = generate(&GeneratorConfig::new(60, 70, 3));
    let budget = ig_match_repro::Budget::UNLIMITED.with_wall_clock(std::time::Duration::ZERO);
    let meter = BudgetMeter::new(&budget);
    let ctx = RunContext::with_meter(&meter);
    let budgeted = |r: Result<ig_match_repro::PartitionResult, PartitionError>, what: &str| {
        assert!(
            matches!(r, Err(PartitionError::Budget(_))),
            "{what} ignored an exhausted budget"
        );
    };
    budgeted(eig1_ctx(&hg, &Eig1Options::default(), &ctx), "eig1_ctx");
    budgeted(
        ig_match_ctx(&hg, &IgMatchOptions::default(), &ctx).map(|o| o.result),
        "ig_match_ctx",
    );
    budgeted(
        ig_vote_ctx(&hg, &IgVoteOptions::default(), &ctx),
        "ig_vote_ctx",
    );
    budgeted(RcutStage::default().run(&hg, None, &ctx), "RcutStage");
    budgeted(FmStage::default().run(&hg, None, &ctx), "FmStage");
    budgeted(KlStage::default().run(&hg, None, &ctx), "KlStage");
    budgeted(
        ig_match_refined_ctx(&hg, &HybridOptions::default(), &ctx),
        "ig_match_refined_ctx",
    );
}
