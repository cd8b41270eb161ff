//! Serial-vs-parallel equivalence suite for the sharded spectral kernels.
//!
//! The determinism contract (`DESIGN.md` §10) promises that the
//! `--threads` knob trades wall-clock only: operators, eigenpairs,
//! orderings and metered spend are **bit-identical** for every thread
//! count. This suite enforces the contract end-to-end at
//! `threads ∈ {1, 2, 8}`, holds the Laplacian's windowed four-row matvec
//! to a plain per-row kernel bit for bit, holds the one-pass
//! intersection-graph builder to a pair-enumerating reference, and
//! property-checks the model builders on degenerate netlists
//! (single-pin and duplicate-pin nets).
//!
//! CI runs this file in release mode with `RUST_TEST_THREADS=1` so the
//! kernels' own thread pools are the only parallelism in play.

use ig_match_repro::core::engine::RunContext;
use ig_match_repro::core::models::clique::bound_preserving_adjacency;
use ig_match_repro::core::models::{
    clique_adjacency, intersection_adjacency, intersection_laplacian,
};
use ig_match_repro::core::ordering::{spectral_module_ordering_ctx, spectral_net_ordering_ctx};
use ig_match_repro::core::IgWeighting;
use ig_match_repro::eigen::{fiedler, LanczosOptions};
use ig_match_repro::netlist::generate::{mcnc_benchmark, mcnc_suite};
use ig_match_repro::netlist::{hypergraph_from_nets, Hypergraph};
use ig_match_repro::sparse::{
    shard_ranges, vecops, BudgetMeter, CsrMatrix, Laplacian, LinearOperator as _,
};
use np_testkit::{check_cases, degenerate_hypergraph};
use std::collections::BTreeMap;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn model_builders_bit_identical_across_thread_counts() {
    let hg = mcnc_benchmark("bm1").expect("suite benchmark").hypergraph;
    let clique = clique_adjacency(&hg);
    let bound = bound_preserving_adjacency(&hg);
    // A context at any thread count serves the serial builds.
    for threads in THREAD_COUNTS {
        let ctx = RunContext::unlimited().with_threads(threads);
        assert_eq!(clique, ctx.clique_laplacian(&hg).adjacency());
        assert_eq!(
            bound,
            ctx.operators().bound_preserving_laplacian(&hg).adjacency()
        );
        for weighting in IgWeighting::ALL {
            assert_eq!(
                intersection_adjacency(&hg, weighting),
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

/// `d[r]·x[r] − Σ a·x` for every row, each summed from `0.0` in CSR
/// column order: the plain kernel the Laplacian's windowed four-row
/// layout must reproduce.
fn per_row_reference(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    let d = a.row_sums();
    (0..a.dim())
        .map(|r| {
            let (cols, vals) = a.row(r);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c as usize];
            }
            d[r] * x[r] - acc
        })
        .collect()
}

/// `Laplacian::apply` and the threaded operator at 1/2/8 threads against
/// [`per_row_reference`]: bit for bit where the reference is finite, and
/// non-finite in exactly the reference's non-finite rows.
fn assert_kernel_matches_reference(case: &str, a: &CsrMatrix, x: &[f64]) {
    let want = per_row_reference(a, x);
    let q = Laplacian::from_adjacency(a.clone());
    let mut outputs = vec![("serial".to_string(), vec![f64::NAN; x.len()])];
    q.apply(x, &mut outputs[0].1);
    for threads in THREAD_COUNTS {
        let mut y = vec![f64::NAN; x.len()];
        q.threaded(threads).apply(x, &mut y);
        outputs.push((format!("{threads} threads"), y));
    }
    for (how, got) in &outputs {
        for (r, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.is_finite(),
                w.is_finite(),
                "{case}, {how}: row {r} is {g}, reference {w}"
            );
            if w.is_finite() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{case}, {how}: row {r} is {g}, reference {w}"
                );
            }
        }
    }
}

/// The input vectors every kernel case runs: random, random with ±0.0
/// spliced in, and random with one +∞, −∞ or NaN at an entry of the
/// longest row.
fn kernel_inputs(a: &CsrMatrix, seed: u64) -> Vec<(String, Vec<f64>)> {
    let n = a.dim();
    let random = rand_vec(seed, n);
    let mut zeros = random.clone();
    for (i, v) in zeros.iter_mut().enumerate() {
        match i % 3 {
            0 => *v = 0.0,
            1 => *v = -0.0,
            _ => {}
        }
    }
    let mut inputs = vec![
        ("random".to_string(), random.clone()),
        ("±0.0".to_string(), zeros),
        ("all −0.0".to_string(), vec![-0.0; n]),
    ];
    let longest = (0..n).max_by_key(|&r| a.row(r).0.len());
    if let Some(at) = longest.and_then(|r| a.row(r).0.first().copied()) {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut x = random.clone();
            x[at as usize] = bad;
            inputs.push((format!("{bad} at {at}"), x));
        }
    }
    inputs
}

#[test]
fn windowed_kernel_bit_identical_to_per_row_reference() {
    let mut cases: Vec<(String, CsrMatrix)> = Vec::new();
    let bm1 = mcnc_benchmark("bm1").expect("suite benchmark").hypergraph;
    cases.push((
        "bm1 intersection graph".into(),
        intersection_adjacency(&bm1, IgWeighting::Paper),
    ));
    // fewer rows than one group of four, and an empty row
    for nets in [
        vec![vec![0, 1]],
        vec![vec![0, 1], vec![1, 2]],
        vec![vec![0, 1], vec![1, 2], vec![3]],
    ] {
        let hg = hypergraph_from_nets(4, &nets);
        cases.push((
            format!("{} nets", nets.len()),
            intersection_adjacency(&hg, IgWeighting::Paper),
        ));
    }
    // one hub net meeting every other net: its row is far longer than a
    // window, beside 2-pin rows; 301 rows is no multiple of 4 or 64
    let mut nets: Vec<Vec<u32>> = (0..300u32).map(|i| vec![i, i + 1]).collect();
    nets.push((0..301).collect());
    let hub = hypergraph_from_nets(301, &nets);
    cases.push((
        "hub".into(),
        intersection_adjacency(&hub, IgWeighting::Paper),
    ));
    for (case, a) in &cases {
        for (input, x) in kernel_inputs(a, 0x5E11) {
            assert_kernel_matches_reference(&format!("{case}, {input}"), a, &x);
        }
    }
    // degenerate netlists: empty rows (single-pin nets), dimensions
    // below and off multiples of 4, every weighting and the clique model
    check_cases(48, 0x4B1D, |g| {
        let hg = degenerate_hypergraph(g);
        let mut graphs = vec![clique_adjacency(&hg)];
        graphs.extend(IgWeighting::ALL.map(|w| intersection_adjacency(&hg, w)));
        for a in &graphs {
            for (input, x) in kernel_inputs(a, 0xD6) {
                assert_kernel_matches_reference(&format!("degenerate, {input}"), a, &x);
            }
        }
    });
}

/// The intersection graph by enumeration: every module's `C(d,2)` net
/// pairs, each entry's terms summed in module order — the pair
/// enumeration the one-pass row builder replaced.
fn enumerated_intersection(hg: &Hypergraph, weighting: IgWeighting) -> Vec<BTreeMap<u32, f64>> {
    let mut rows: Vec<BTreeMap<u32, f64>> = vec![BTreeMap::new(); hg.num_nets()];
    for module in hg.modules() {
        let nets = hg.nets_of(module);
        let d = nets.len();
        for i in 0..d {
            for j in i + 1..d {
                let (a, b) = (nets[i], nets[j]);
                let sizes = 1.0 / hg.net_size(a) as f64 + 1.0 / hg.net_size(b) as f64;
                let w = match weighting {
                    IgWeighting::Paper => 1.0 / (d as f64 - 1.0) * sizes,
                    IgWeighting::SizeScaled => sizes,
                    _ => 1.0,
                };
                for (r, c) in [(a, b), (b, a)] {
                    let sum = rows[r.index()].entry(c.0).or_insert(0.0);
                    *sum = if weighting == IgWeighting::Uniform {
                        1.0
                    } else {
                        *sum + w
                    };
                }
            }
        }
    }
    rows
}

fn assert_builder_matches_enumeration(name: &str, hg: &Hypergraph) {
    for weighting in IgWeighting::ALL {
        let a = intersection_adjacency(hg, weighting);
        // the pattern the IG-Match matcher reads
        let (offsets, neighbors) = intersection_laplacian(hg, weighting).pattern();
        let reference = enumerated_intersection(hg, weighting);
        for (r, want) in reference.iter().enumerate() {
            let (cols, vals) = a.row(r);
            let want_cols: Vec<u32> = want.keys().copied().collect();
            assert_eq!(
                cols,
                &want_cols[..],
                "{name} {weighting:?}: row {r} pattern"
            );
            assert_eq!(
                &neighbors[offsets[r] as usize..offsets[r + 1] as usize],
                &want_cols[..],
                "{name} {weighting:?}: neighbours of {r}"
            );
            for (c, (v, w)) in cols.iter().zip(vals.iter().zip(want.values())) {
                assert_eq!(
                    v.to_bits(),
                    w.to_bits(),
                    "{name} {weighting:?}: A'[{r},{c}] = {v}, enumeration {w}"
                );
            }
        }
    }
}

#[test]
fn intersection_builder_matches_pair_enumeration() {
    for bench in mcnc_suite() {
        assert_builder_matches_enumeration(&bench.name, &bench.hypergraph);
    }
    check_cases(48, 0x16B0, |g| {
        assert_builder_matches_enumeration("degenerate", &degenerate_hypergraph(g));
    });
}
