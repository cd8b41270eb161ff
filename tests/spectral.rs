//! Serial-vs-parallel equivalence suite for the sharded spectral kernels.
//!
//! The determinism contract (`DESIGN.md` §10) promises that the
//! `--threads` knob trades wall-clock only: operators, eigenpairs,
//! orderings and metered spend are **bit-identical** for every thread
//! count. This suite enforces the contract end-to-end at
//! `threads ∈ {1, 2, 8}`, and property-checks the model
//! builders on degenerate netlists (single-pin and duplicate-pin nets).
//!
//! CI runs this file in release mode with `RUST_TEST_THREADS=1` so the
//! kernels' own thread pools are the only parallelism in play.

use ig_match_repro::core::engine::RunContext;
use ig_match_repro::core::models::clique::bound_preserving_adjacency;
use ig_match_repro::core::models::{clique_adjacency, intersection_adjacency};
use ig_match_repro::core::ordering::{spectral_module_ordering_ctx, spectral_net_ordering_ctx};
use ig_match_repro::core::IgWeighting;
use ig_match_repro::eigen::{fiedler, LanczosOptions};
use ig_match_repro::netlist::generate::mcnc_benchmark;
use ig_match_repro::sparse::{shard_ranges, vecops, BudgetMeter, Laplacian, LinearOperator as _};
use np_testkit::{check_cases, degenerate_hypergraph};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn model_builders_bit_identical_across_thread_counts() {
    let hg = mcnc_benchmark("bm1").expect("suite benchmark").hypergraph;
    let clique = clique_adjacency(&hg);
    let bound = bound_preserving_adjacency(&hg);
    // A context at any thread count serves the serial builds.
    for threads in THREAD_COUNTS {
        let ctx = RunContext::unlimited().with_threads(threads);
        assert_eq!(&clique, ctx.clique_laplacian(&hg).adjacency());
        assert_eq!(
            &bound,
            ctx.operators().bound_preserving_laplacian(&hg).adjacency()
        );
        for weighting in IgWeighting::ALL {
            assert_eq!(
                &intersection_adjacency(&hg, weighting),
                ctx.intersection_laplacian(&hg, weighting).adjacency(),
                "intersection graph differs at {threads} threads ({weighting:?})"
            );
        }
    }
}

#[test]
fn eigenpairs_bit_identical_across_thread_counts() {
    let hg = mcnc_benchmark("bm1").expect("suite benchmark").hypergraph;
    let lap = Laplacian::from_adjacency(clique_adjacency(&hg));
    let opts = LanczosOptions::default();
    let baseline = fiedler(&lap.threaded(1), &opts).expect("serial solve");
    for threads in THREAD_COUNTS {
        let pair = fiedler(&lap.threaded(threads), &opts).expect("threaded solve");
        assert_eq!(
            baseline.value.to_bits(),
            pair.value.to_bits(),
            "eigenvalue differs at {threads} threads"
        );
        assert_eq!(
            baseline.vector, pair.vector,
            "vector differs at {threads} threads"
        );
    }
}

#[test]
fn orderings_and_metered_spend_bit_identical_across_thread_counts() {
    let hg = mcnc_benchmark("bm1").expect("suite benchmark").hypergraph;
    let opts = LanczosOptions::default();
    let mut baseline = None;
    for threads in THREAD_COUNTS {
        let meter = BudgetMeter::unlimited();
        let ctx = RunContext::with_meter(&meter).with_threads(threads);
        let modules = spectral_module_ordering_ctx(&hg, &opts, &ctx).expect("module ordering");
        let nets =
            spectral_net_ordering_ctx(&hg, IgWeighting::Paper, &opts, &ctx).expect("net ordering");
        let spend = meter.matvecs_used();
        match &baseline {
            None => baseline = Some((modules, nets, spend)),
            Some((m, n, s)) => {
                assert_eq!(m, &modules, "module ordering differs at {threads} threads");
                assert_eq!(n, &nets, "net ordering differs at {threads} threads");
                assert_eq!(*s, spend, "metered spend differs at {threads} threads");
            }
        }
    }
}

/// Deterministic LCG-filled vector in `[-1, 1)`.
fn rand_vec(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

#[test]
fn sharded_spmv_bit_identical_to_reference_across_thread_counts() {
    let hg = mcnc_benchmark("bm1").expect("suite benchmark").hypergraph;
    let a = clique_adjacency(&hg);
    let n = a.dim();
    let x = rand_vec(0xB10C, n);
    let mut reference = vec![0.0; n];
    a.apply(&x, &mut reference);
    // Row-sharded application (the threaded operators' shape) agrees
    // with the whole-range product at every thread count.
    for threads in THREAD_COUNTS {
        let mut out = vec![f64::NAN; n];
        for (lo, hi) in shard_ranges(n, threads) {
            a.apply_rows(lo, &x, &mut out[lo..hi]);
        }
        assert!(
            reference
                .iter()
                .zip(&out)
                .all(|(p, q)| p.to_bits() == q.to_bits()),
            "sharded SpMV differs at {threads} threads"
        );
    }
}

#[test]
fn fused_vecops_match_unfused_on_random_and_degenerate_vectors() {
    // Random vectors of awkward lengths plus degenerate shapes: empty,
    // singleton, all zeros, all negative zeros, zeros against negative
    // zeros (where only a dot summed from −0.0 gets the sign right),
    // constant.
    let mut cases: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = [0usize, 1, 3, 64, 257, 1000]
        .iter()
        .map(|&n| (rand_vec(1, n), rand_vec(2, n), rand_vec(3, n)))
        .collect();
    cases.push((vec![0.0; 65], vec![0.0; 65], vec![0.0; 65]));
    cases.push((vec![-0.0; 65], vec![-0.0; 65], vec![-0.0; 65]));
    cases.push((vec![0.0; 65], vec![-0.0; 65], vec![0.0; 65]));
    cases.push((vec![1.25; 33], vec![-2.5; 33], vec![0.5; 33]));
    for (x, y, z) in &cases {
        let n = x.len();
        // two axpys vs fused axpy2.
        let mut plain = y.clone();
        vecops::axpy(0.37, x, &mut plain);
        vecops::axpy(-0.81, z, &mut plain);
        let mut fused = y.clone();
        vecops::axpy2(0.37, x, -0.81, z, &mut fused);
        assert!(
            plain
                .iter()
                .zip(&fused)
                .all(|(p, q)| p.to_bits() == q.to_bits()),
            "axpy2 at n={n}"
        );
        // sequential projection sweep vs fused chain.
        let basis = vec![x.clone(), z.clone()];
        let mut plain = y.clone();
        for b in &basis {
            vecops::orthogonalize_against(b, &mut plain);
        }
        let mut fused = y.clone();
        vecops::orthogonalize_fused(&[&basis], &mut fused);
        assert!(
            plain
                .iter()
                .zip(&fused)
                .all(|(p, q)| p.to_bits() == q.to_bits()),
            "orthogonalize_fused at n={n}"
        );
        // coefficients against the incoming vector, then sequential axpys,
        // vs the classical Gram–Schmidt kernel, projecting scaled copies
        // of x and z out of y: set sizes 0–9 run no four-wide block, whole
        // blocks and every remainder length, and the set is split in two
        // to cross a set boundary.
        let pool = [x, z];
        for m in 0..=9usize {
            let set: Vec<Vec<f64>> = (0..m)
                .map(|i| {
                    let scale = 1.0 + i as f64 / 8.0;
                    pool[i % 2].iter().map(|v| v * scale).collect()
                })
                .collect();
            let h: Vec<f64> = set.iter().map(|u| vecops::dot(u, y)).collect();
            let mut plain = y.clone();
            for (c, u) in h.iter().zip(&set) {
                vecops::axpy(-c, u, &mut plain);
            }
            let (a, b) = set.split_at(m / 2);
            let mut fused = y.clone();
            vecops::orthogonalize_classical(&[a, b], &mut fused);
            assert!(
                plain
                    .iter()
                    .zip(&fused)
                    .all(|(p, q)| p.to_bits() == q.to_bits()),
                "orthogonalize_classical at n={n}, m={m}"
            );
        }
    }
}

#[test]
fn model_builders_finite_and_symmetric_on_degenerate_netlists() {
    check_cases(48, 0x57EC, |g| {
        let hg = degenerate_hypergraph(g);
        let mut graphs = vec![
            ("clique", clique_adjacency(&hg)),
            ("bound-preserving", bound_preserving_adjacency(&hg)),
        ];
        for weighting in IgWeighting::ALL {
            graphs.push(("intersection", intersection_adjacency(&hg, weighting)));
        }
        for (name, a) in &graphs {
            assert!(a.is_symmetric(0.0), "{name} adjacency not symmetric");
            for r in 0..a.dim() {
                let (cols, vals) = a.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    assert!(v.is_finite(), "{name} weight not finite at ({r},{c})");
                    assert_ne!(c as usize, r, "{name} has a diagonal entry at {r}");
                }
            }
        }
    });
}
