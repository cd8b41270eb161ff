//! Property suite for the balanced k-way engine (DESIGN.md §13).
//!
//! Four invariants, checked over random small instances on the
//! recursive-bisection route:
//!
//! * **balance** — every block's area stays within
//!   `(1+ε)·total/k` and no block is empty;
//! * **fixed modules** — a pinned module is on its block in every
//!   returned partition;
//! * **k = 2 bit-identity** — the route at `k = 2` with no pins matches
//!   the bipartition hybrid pipeline exactly: same labels, same cut
//!   statistics, same metered spend, at 1, 2 and 8 threads;
//! * **oracle agreement** — the reported cut and per-block external
//!   counts equal the brute-force recount in `np_testkit`, which shares
//!   no code with the incremental trackers.
//!
//! With module areas the balance invariant holds on block *area*, on the
//! flat route and on the k-way V-cycle, whose coarsest level carries
//! cluster areas.

use ig_match_repro::core::engine::stages::{IgMatchStage, RatioRefineStage};
use ig_match_repro::core::engine::{Pipeline, RunContext, Stage, DEFAULT_SEED};
use ig_match_repro::core::kway::refine::area_cap;
use ig_match_repro::core::kway::{kway_partition, kway_partition_ctx, KwayMethod, KwayOptions};
use ig_match_repro::core::{IgMatchOptions, PartitionError};
use ig_match_repro::multilevel::{multilevel_kway_ctx, MultilevelOptions};
use ig_match_repro::netlist::areas::ModuleAreas;
use ig_match_repro::netlist::generate::{generate, GeneratorConfig};
use ig_match_repro::netlist::{
    balance_bound, hypergraph_from_nets, FixedModules, Hypergraph, KwayPartition,
};
use ig_match_repro::{Budget, BudgetMeter, ModuleId};
use np_testkit::{
    check_cases, kway_reference_cut, kway_reference_externals, pinned_instance, small_hypergraph,
};

/// Errors a random small instance may legitimately raise: the draw can
/// be too small, too degenerate or genuinely infeasible for the asked
/// `(k, ε)`. Anything else is a bug.
fn acceptable(err: &PartitionError) -> bool {
    matches!(
        err,
        PartitionError::TooSmall { .. }
            | PartitionError::InvalidInput { .. }
            | PartitionError::Eigen(_)
    )
}

#[test]
fn every_block_stays_within_the_balance_bound() {
    check_cases(48, 0xBA1A_0ACE, |g| {
        let hg = small_hypergraph(g);
        let n = hg.num_modules();
        let k = g.usize_in(2, (n / 2).clamp(2, 4));
        let epsilon = g.f64_in(0.3, 1.0);
        let opts = KwayOptions {
            k,
            epsilon,
            ..Default::default()
        };
        let bound = balance_bound(n as f64, k, epsilon);
        match kway_partition(&hg, &opts, KwayMethod::Recursive) {
            Ok(out) => {
                assert_eq!(out.partition.num_blocks(), k);
                let sizes = out.partition.block_sizes();
                assert_eq!(sizes.len(), k);
                for (b, &size) in sizes.iter().enumerate() {
                    assert!(size >= 1, "block {b} is empty");
                    assert!(
                        size as f64 <= bound * (1.0 + 1e-9) + 1e-9,
                        "block {b} holds {size} > bound {bound}"
                    );
                }
            }
            Err(e) if acceptable(&e) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    });
}

#[test]
fn pinned_modules_never_move() {
    check_cases(48, 0xF1D0_0001, |g| {
        let k = g.usize_in(2, 4);
        let (hg, fixed) = pinned_instance(g, k);
        let opts = KwayOptions {
            k,
            epsilon: 1.0,
            fixed: Some(fixed.clone()),
            ..Default::default()
        };
        match kway_partition(&hg, &opts, KwayMethod::Recursive) {
            Ok(out) => {
                for (m, b) in fixed.pins() {
                    assert_eq!(
                        out.partition.block_of(m),
                        b,
                        "pinned module {m:?} moved off block {b}"
                    );
                }
            }
            Err(e) if acceptable(&e) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    });
}

#[test]
fn reported_cut_matches_the_brute_force_oracle() {
    check_cases(48, 0x0AC1_E000, |g| {
        let hg = small_hypergraph(g);
        let n = hg.num_modules();
        let k = g.usize_in(2, (n / 2).clamp(2, 4));
        let opts = KwayOptions {
            k,
            epsilon: 1.0,
            ..Default::default()
        };
        match kway_partition(&hg, &opts, KwayMethod::Recursive) {
            Ok(out) => {
                let labels = out.partition.labels();
                assert_eq!(
                    out.stats.cut_nets,
                    kway_reference_cut(&hg, labels),
                    "reported cut diverges from the oracle"
                );
                let (_, external) = kway_reference_externals(&hg, labels, k);
                assert_eq!(
                    out.stats.external, external,
                    "per-block external counts diverge"
                );
            }
            Err(e) if acceptable(&e) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    });
}

#[test]
fn k2_paths_are_bit_identical_to_the_bipartition_pipeline() {
    let hg = generate(&GeneratorConfig::new(180, 200, 0x2B1D));
    let opts = KwayOptions {
        k: 2,
        // ε = 1.0 keeps the bound at n, never binding, so the fast path
        // returns the pipeline's partition untouched.
        epsilon: 1.0,
        ..Default::default()
    };
    for threads in [1usize, 2, 8] {
        // the reference: the bipartition hybrid pipeline, run directly
        let reference_meter = BudgetMeter::new(&Budget::default());
        let ctx = RunContext::with_meter(&reference_meter)
            .with_seed(DEFAULT_SEED)
            .with_threads(threads);
        let reference = Pipeline::named("IG-Match+FM")
            .then(IgMatchStage::new(IgMatchOptions::default()))
            .then(RatioRefineStage::new(opts.max_refine_passes, "IG-Match+FM"))
            .run(&hg, None, &ctx)
            .expect("reference pipeline partitions the instance");
        let expected = KwayPartition::from_bipartition(&reference.partition);
        let expected_spend = reference_meter.matvecs_used();

        let meter = BudgetMeter::new(&Budget::default());
        let ctx = RunContext::with_meter(&meter)
            .with_seed(DEFAULT_SEED)
            .with_threads(threads);
        let out = kway_partition_ctx(&hg, &opts, KwayMethod::Recursive, &ctx)
            .expect("k-way route partitions the instance");
        assert_eq!(
            out.partition.labels(),
            expected.labels(),
            "diverged from the bipartition pipeline at {threads} threads"
        );
        assert_eq!(out.stats.cut_nets, reference.stats.cut_nets);
        assert_eq!(
            meter.matvecs_used(),
            expected_spend,
            "metered spend diverged at {threads} threads"
        );
    }
}

/// Asserts the k-way contract on a result's `partition` and reported
/// `cut_nets`: `k` non-empty blocks, each block's area within the bound,
/// every pin on its block, and a cut that matches the brute-force
/// recount.
fn assert_kway_contract(
    hg: &Hypergraph,
    partition: &KwayPartition,
    cut_nets: usize,
    opts: &KwayOptions,
) {
    let areas = opts
        .areas
        .clone()
        .unwrap_or_else(|| ModuleAreas::uniform(hg.num_modules()));
    let cap = area_cap(balance_bound(areas.total(), opts.k, opts.epsilon));
    assert_eq!(partition.num_blocks(), opts.k);
    assert!(
        partition.block_sizes().iter().all(|&s| s > 0),
        "an empty block"
    );
    for (b, area) in partition.block_areas(&areas).into_iter().enumerate() {
        assert!(area <= cap, "block {b} holds area {area} > cap {cap}");
    }
    for (m, b) in opts.fixed.iter().flat_map(FixedModules::pins) {
        assert_eq!(partition.block_of(m), b, "pinned module {m:?} moved");
    }
    assert_eq!(cut_nets, kway_reference_cut(hg, partition.labels()));
}

#[test]
fn k2_without_pins_degrades_where_the_bipartition_pipeline_fails() {
    // IG-Match finds no split of this netlist with two non-empty sides;
    // the k = 2 fast path falls back to the contiguous split the way a
    // recursion node does, instead of passing the pipeline's error on
    let hg = hypergraph_from_nets(4, &[vec![0, 2], vec![1, 2, 3]]);
    for epsilon in [0.1, 0.5] {
        let opts = KwayOptions {
            k: 2,
            epsilon,
            ..Default::default()
        };
        let out = kway_partition(&hg, &opts, KwayMethod::Recursive)
            .unwrap_or_else(|e| panic!("k = 2 at ε = {epsilon} failed: {e}"));
        assert_kway_contract(&hg, &out.partition, out.stats.cut_nets, &opts);
    }
}

#[test]
fn module_areas_keep_every_block_within_its_area_bound() {
    check_cases(64, 0xA2EA_5EED, |g| {
        let hg = small_hypergraph(g);
        let n = hg.num_modules();
        let k = g.usize_in(2, n.min(6));
        let areas = (0..n)
            .map(|_| {
                if g.with_probability(0.05) {
                    g.usize_in(8, 24) as f64 // macro block
                } else {
                    g.usize_in(1, 3) as f64 // standard cell
                }
            })
            .collect();
        let mut fixed = FixedModules::free(n);
        for _ in 0..g.usize_in(0, 3) {
            fixed.pin(ModuleId(g.usize_in(0, n - 1) as u32), g.usize_in(0, k - 1));
        }
        let opts = KwayOptions {
            k,
            epsilon: g.f64_in(0.05, 0.6),
            areas: Some(ModuleAreas::new(areas)),
            fixed: Some(fixed),
            ..Default::default()
        };
        let vcycle = MultilevelOptions {
            coarsen_target: 4,
            ..Default::default()
        };
        let flat = kway_partition(&hg, &opts, KwayMethod::Recursive)
            .map(|out| (out.partition, out.stats.cut_nets));
        let coarse = multilevel_kway_ctx(&hg, &opts, &vcycle, &RunContext::unlimited())
            .map(|out| (out.result.partition, out.result.stats.cut_nets));
        for result in [flat, coarse] {
            match result {
                Ok((partition, cut_nets)) => {
                    assert_kway_contract(&hg, &partition, cut_nets, &opts);
                }
                Err(PartitionError::InvalidInput { .. }) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    });
}

#[test]
fn the_route_is_deterministic() {
    let opts = |k, epsilon| KwayOptions {
        k,
        epsilon,
        ..Default::default()
    };
    // run to run on two circuits, then across thread counts on the first
    let cases = [
        (
            generate(&GeneratorConfig::new(150, 160, 0xD17)),
            opts(4, 0.5),
        ),
        (
            generate(&GeneratorConfig::new(180, 200, 0x5EED)),
            opts(8, 0.4),
        ),
    ];
    let mut first = None;
    for (hg, opts) in &cases {
        let a = kway_partition(hg, opts, KwayMethod::Recursive).unwrap();
        let b = kway_partition(hg, opts, KwayMethod::Recursive).unwrap();
        assert_eq!(a.partition, b.partition, "the route is nondeterministic");
        assert_eq!(a.stats, b.stats);
        first.get_or_insert(a);
    }
    let (a, (hg, opts)) = (first.unwrap(), &cases[0]);
    for threads in [1usize, 2, 8] {
        let meter = BudgetMeter::new(&Budget::default());
        let ctx = RunContext::with_meter(&meter).with_threads(threads);
        let c = kway_partition_ctx(hg, opts, KwayMethod::Recursive, &ctx).unwrap();
        assert_eq!(a.partition, c.partition, "diverged at {threads} threads");
    }
}

#[test]
fn empty_label_vector_yields_zero_blocks() {
    let p = KwayPartition::from_labels(Vec::new());
    assert_eq!(p.num_blocks(), 0);
    assert_eq!(p.len(), 0);
}
