//! Equivalence suite for the incremental IG-Match sweep (DESIGN.md §11).
//!
//! The sweep engine maintains the net classification and the Phase II
//! completion under O(Δ) updates; these properties pin it to the
//! from-scratch reference pipeline (`SplitMatcher::classify` +
//! `CompletionOracle`) at **every** split — classes, both-orientation
//! `CutStats`, `put_free_left`, loser counts, matching size, partitions
//! and free masks — across random hypergraphs, random orderings, the
//! degenerate-hypergraph distribution, the banded benchmark family and
//! two of the paper-suite circuits in their spectral net order.
//!
//! The same checks run as `debug_assert`s inside `SweepState::advance`;
//! this suite keeps them alive in release builds (CI runs it with
//! `cargo test --release --test sweep`).

use ig_match_repro::core::igmatch::{
    ig_match_with_ordering, CompletionOracle, OrientedEval, SplitMatcher, SweepState,
};
use ig_match_repro::core::models::{intersection_neighbors, IgWeighting};
use ig_match_repro::core::ordering::spectral_net_ordering;
use ig_match_repro::eigen::LanczosOptions;
use ig_match_repro::netlist::generate::{generate, mcnc_specs};
use ig_match_repro::netlist::{Hypergraph, NetId};
use np_testkit::{banded_hypergraph, check_cases, degenerate_hypergraph, small_hypergraph, Gen};

/// Runs the incremental sweep over `order` and asserts it agrees with the
/// from-scratch reference at every split.
fn assert_sweep_matches_oracle(hg: &Hypergraph, order: &[u32]) {
    let neighbors = intersection_neighbors(hg);
    let mut sweep = SweepState::new(hg, &neighbors);
    let mut matcher = SplitMatcher::new(&neighbors);
    let mut oracle = CompletionOracle::new(hg);
    for (k, &net) in order[..order.len() - 1].iter().enumerate() {
        let eval = sweep.advance(hg, net);
        matcher.move_to_r(net);
        let class = matcher.classify();
        let reference: OrientedEval = oracle.evaluate(hg, &class);

        assert_eq!(eval, reference, "orientation eval diverged at split {k}");
        let inc = eval.candidate();
        let ref_c = reference.candidate();
        assert_eq!(inc.stats, ref_c.stats, "CutStats diverged at split {k}");
        assert_eq!(
            inc.put_free_left, ref_c.put_free_left,
            "orientation choice diverged at split {k}"
        );
        assert_eq!(
            inc.losers, ref_c.losers,
            "loser count diverged at split {k}"
        );
        assert_eq!(
            sweep.matching_size(),
            matcher.matching_size(),
            "matching size diverged at split {k}"
        );
        let classes = class.net_classes(hg.num_nets());
        for (v, &expect) in classes.iter().enumerate() {
            assert_eq!(
                sweep.net_class(v as u32),
                expect,
                "class of net {v} diverged at split {k}"
            );
        }
        for put_free_left in [true, false] {
            assert_eq!(
                sweep.materialize(hg, put_free_left),
                oracle.materialize(hg, put_free_left),
                "materialized partition diverged at split {k}"
            );
        }
        assert_eq!(
            sweep.free_mask(hg),
            oracle.free_mask(hg),
            "free mask diverged at split {k}"
        );
    }
}

/// A pseudo-random permutation of the nets of `hg`.
fn shuffled_order(g: &mut Gen, hg: &Hypergraph) -> Vec<u32> {
    let mut order: Vec<u32> = (0..hg.num_nets() as u32).collect();
    g.rng().shuffle(&mut order);
    order
}

#[test]
fn incremental_sweep_matches_oracle_on_random_instances() {
    check_cases(96, 0x5EE9_0001, |g| {
        let hg = small_hypergraph(g);
        let order = shuffled_order(g, &hg);
        assert_sweep_matches_oracle(&hg, &order);
    });
}

#[test]
fn incremental_sweep_matches_oracle_on_degenerate_instances() {
    check_cases(96, 0x5EE9_0002, |g| {
        let hg = degenerate_hypergraph(g);
        let order = shuffled_order(g, &hg);
        assert_sweep_matches_oracle(&hg, &order);
    });
}

#[test]
fn incremental_sweep_matches_oracle_on_banded_instances() {
    for (seed, modules, nets, band) in [(3u64, 60, 48, 6), (11, 120, 90, 10), (29, 200, 160, 16)] {
        let hg = banded_hypergraph(seed, modules, nets, band);
        // natural (banded) order — the benchmark's sweep order
        let natural: Vec<u32> = (0..hg.num_nets() as u32).collect();
        assert_sweep_matches_oracle(&hg, &natural);
        // and an adversarial shuffle that destroys locality
        let mut g = Gen::new(seed ^ 0x0BAD_C0DE);
        let order = shuffled_order(&mut g, &hg);
        assert_sweep_matches_oracle(&hg, &order);
    }
}

/// Suite scale: the two smallest paper circuits (about 900 nets each) in
/// the spectral net order the IG-Match route sweeps them in, plus one
/// shuffled order — long sweeps whose moves reach far into `B`.
#[test]
fn incremental_sweep_matches_oracle_on_suite_circuits() {
    for spec in mcnc_specs() {
        if spec.name != "bm1" && spec.name != "Prim1" {
            continue;
        }
        let hg = generate(&spec.config);
        let spectral: Vec<u32> =
            spectral_net_ordering(&hg, IgWeighting::default(), &LanczosOptions::default())
                .expect("suite circuits have a spectral ordering")
                .iter()
                .map(|n| n.0)
                .collect();
        assert_sweep_matches_oracle(&hg, &spectral);
        if spec.name == "bm1" {
            let mut g = Gen::new(0x5EE9_0004);
            let order = shuffled_order(&mut g, &hg);
            assert_sweep_matches_oracle(&hg, &order);
        }
    }
}

/// The full algorithm over an explicit ordering must agree with a
/// from-scratch best-split search driven entirely by the reference
/// pipeline — same ratio, split rank, matching size, loser count and
/// partition bits.
#[test]
fn full_sweep_agrees_with_from_scratch_best_search() {
    check_cases(64, 0x5EE9_0003, |g| {
        let hg = small_hypergraph(g);
        let order = shuffled_order(g, &hg);
        let order_ids: Vec<NetId> = order.iter().map(|&v| NetId(v)).collect();

        let neighbors = intersection_neighbors(&hg);
        let mut matcher = SplitMatcher::new(&neighbors);
        let mut oracle = CompletionOracle::new(&hg);
        let mut best: Option<(f64, usize, _, usize, usize)> = None;
        for (k, &net) in order[..order.len() - 1].iter().enumerate() {
            matcher.move_to_r(net);
            let class = matcher.classify();
            let cand = oracle.evaluate(&hg, &class).candidate();
            let ratio = cand.stats.ratio();
            if ratio.is_finite() && best.as_ref().is_none_or(|b| ratio < b.0) {
                best = Some((
                    ratio,
                    k,
                    oracle.materialize(&hg, cand.put_free_left),
                    matcher.matching_size(),
                    cand.losers,
                ));
            }
        }

        let out = ig_match_with_ordering(&hg, &order_ids, false);
        match (best, out) {
            (None, Err(_)) => {}
            (Some((ratio, rank, partition, mm, losers)), Ok(out)) => {
                assert_eq!(out.result.split_rank, Some(rank));
                assert_eq!(out.result.partition, partition);
                assert_eq!(out.result.ratio().to_bits(), ratio.to_bits());
                assert_eq!(out.matching_size, mm);
                assert_eq!(out.loser_count, losers);
            }
            (best, out) => panic!(
                "feasibility disagrees: reference {best:?} vs {:?}",
                out.err()
            ),
        }
    });
}
