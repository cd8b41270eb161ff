//! Cross-algorithm property tests: every partitioner, run on arbitrary
//! generated circuits, must produce valid, consistent, deterministic
//! output, and the documented dominance/never-worse relations must hold.

use ig_match_repro::core::bounds::ratio_cut_lower_bound;
use ig_match_repro::core::eig1::spectral_bisect;
use ig_match_repro::core::placement::module_placement;
use ig_match_repro::hybrid::{ig_match_refined, HybridOptions};
use ig_match_repro::multilevel::{multilevel, MultilevelOptions};
use ig_match_repro::netlist::areas::{area_cut_stats, ModuleAreas};
use ig_match_repro::netlist::generate::{generate, GeneratorConfig};
use ig_match_repro::{
    eig1, ig_match, ig_vote, rcut, Eig1Options, IgMatchOptions, IgVoteOptions, RcutOptions,
};
use np_testkit::{check_cases, Gen};

fn arb_circuit(g: &mut Gen) -> ig_match_repro::Hypergraph {
    let modules = g.usize_in(30, 149);
    let extra = g.usize_in(0, 39);
    let seed = g.u64_below(400);
    let satellite = g.flip();
    let mut cfg = GeneratorConfig::new(modules, modules + extra, seed);
    if satellite {
        cfg = cfg.with_satellite(0.15, 3);
    }
    generate(&cfg)
}

#[test]
fn every_partitioner_valid_and_consistent() {
    check_cases(24, 0xA101, |g| {
        let hg = arb_circuit(g);
        let n = hg.num_modules();
        let igm = ig_match(&hg, &IgMatchOptions::default()).unwrap();
        let igv = ig_vote(&hg, &IgVoteOptions::default()).unwrap();
        let e1 = eig1(&hg, &Eig1Options::default()).unwrap();
        let rc = rcut(
            &hg,
            &RcutOptions {
                runs: 2,
                ..Default::default()
            },
        );
        for (name, partition, stats) in [
            ("igmatch", &igm.result.partition, igm.result.stats),
            ("igvote", &igv.partition, igv.stats),
            ("eig1", &e1.partition, e1.stats),
            ("rcut", &rc.partition, rc.stats),
        ] {
            assert_eq!(partition.len(), n, "{name}");
            assert_eq!(stats, partition.cut_stats(&hg), "{name}");
            assert!(stats.left > 0 && stats.right > 0, "{name}");
        }
    });
}

#[test]
fn theorem1_bound_below_all_results() {
    check_cases(24, 0xA102, |g| {
        let hg = arb_circuit(g);
        let bound = ratio_cut_lower_bound(&hg, &Default::default()).unwrap();
        for ratio in [
            ig_match(&hg, &IgMatchOptions::default())
                .unwrap()
                .result
                .ratio(),
            ig_vote(&hg, &IgVoteOptions::default()).unwrap().ratio(),
            eig1(&hg, &Eig1Options::default()).unwrap().ratio(),
        ] {
            assert!(ratio >= bound.bound - 1e-9);
        }
    });
}

#[test]
fn hybrid_and_refined_never_worse() {
    check_cases(24, 0xA103, |g| {
        let hg = arb_circuit(g);
        let plain = ig_match(&hg, &IgMatchOptions::default()).unwrap();
        let refined = ig_match(
            &hg,
            &IgMatchOptions {
                refine_free_modules: true,
                ..Default::default()
            },
        )
        .unwrap();
        let hybrid = ig_match_refined(&hg, &HybridOptions::default()).unwrap();
        assert!(refined.result.ratio() <= plain.result.ratio() + 1e-12);
        assert!(hybrid.ratio() <= plain.result.ratio() + 1e-12);
    });
}

#[test]
fn bisection_is_balanced() {
    check_cases(24, 0xA104, |g| {
        let hg = arb_circuit(g);
        let r = spectral_bisect(&hg, 0.0, &Eig1Options::default()).unwrap();
        assert!(r.stats.left.abs_diff(r.stats.right) <= 3);
    });
}

/// The §5 clustering flow of E14 (`ablation_cluster`): condense one or
/// two levels, run IG-Match on the condensed netlist, project back with
/// refinement off — the answer is exactly the pure projection.
#[test]
fn clustered_partition_valid() {
    check_cases(24, 0xA106, |g| {
        let hg = arb_circuit(g);
        for max_levels in [1, 2] {
            let opts = MultilevelOptions {
                coarsen_target: 64,
                max_levels,
                refine_passes: 0,
                flat_refine_passes: 0,
                ..Default::default()
            };
            let out = multilevel(&hg, &opts).unwrap();
            let r = &out.result;
            assert!(out.levels <= max_levels);
            if hg.num_modules() > 64 {
                assert!(out.levels >= 1, "above the target the netlist condenses");
            }
            assert_eq!(r.stats, r.partition.cut_stats(&hg));
            assert!(r.stats.left > 0 && r.stats.right > 0);
            assert_eq!(r.ratio(), out.projected_ratio);
        }
    });
}

#[test]
fn area_metric_consistent_with_counts_for_uniform_areas() {
    check_cases(24, 0xA107, |g| {
        let hg = arb_circuit(g);
        let igm = ig_match(&hg, &IgMatchOptions::default()).unwrap();
        let areas = ModuleAreas::uniform(hg.num_modules());
        let a = area_cut_stats(&hg, &igm.result.partition, &areas);
        assert_eq!(a.cut_nets, igm.result.stats.cut_nets);
        assert!((a.ratio() - igm.result.ratio()).abs() < 1e-12);
    });
}

#[test]
fn placement_first_axis_matches_eig1_ordering_signs() {
    check_cases(24, 0xA108, |g| {
        let hg = arb_circuit(g);
        // the 1-D Hall placement IS the EIG1 ordering vector
        let p = module_placement(&hg, 1, &Default::default()).unwrap();
        assert_eq!(p.len(), hg.num_modules());
        assert!(p.eigenvalues[0] >= -1e-9);
    });
}
