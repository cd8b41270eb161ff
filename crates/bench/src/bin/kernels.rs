//! Kernel-floor micro-bench: the three single-core hot loops of the
//! workspace (CSR SpMV, fused Lanczos vecops, IG-Match sweep BFS),
//! timed criterion-free and emitting a JSON record
//! (`BENCH_kernels.json` by default). CI runs this in release mode to
//! track the kernel speed floor (DESIGN.md §16).
//!
//! Every fused variant is asserted **bit-identical** to its
//! straight-line reference before it is timed — a fast kernel that
//! drifts from the reference fails the binary, not just the benchmark.
//!
//! ```text
//! cargo run --release -p bench --bin kernels [-- OUT.json]
//! ```

use bench::{best_of, BenchEntry, BenchReport};
use np_core::igmatch::SweepState;
use np_core::models::{intersection_laplacian, intersection_neighbors, IgWeighting};
use np_sparse::vecops::{axpy, axpy2, axpy_dot, dot, orthogonalize_against, orthogonalize_fused};
use np_sparse::{CsrMatrix, LinearOperator, TripletBuilder};
use np_testkit::banded_hypergraph;
use std::hint::black_box;
use std::time::Duration;

/// Timed repetitions per case; the minimum is reported.
const RUNS: usize = 5;

/// SpMV instance size: 2¹⁷ rows, so `x` (1 MiB) spills out of L2.
const SPMV_DIM: usize = 1 << 17;

/// Half-bandwidth of the SpMV band matrix (17 nonzeros per interior row).
const SPMV_BAND: usize = 8;

/// Matvecs per timed SpMV run.
const SPMV_REPS: usize = 20;

/// Dense-vector length for the vecops cases (plus reps per timed run).
const VEC_N: usize = 1 << 16;
const VEC_REPS: usize = 100;

/// Basis size for the orthogonalization case.
const BASIS_M: usize = 8;

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

/// Symmetric band matrix with `band` off-diagonals per side.
fn band_matrix(n: usize, band: usize) -> CsrMatrix {
    let mut b = TripletBuilder::new(n);
    for i in 0..n {
        b.push(i, i, 2.0 + (i % 7) as f64);
        for d in 1..=band {
            if i + d < n {
                let w = 1.0 / d as f64;
                b.push(i, i + d, w);
                b.push(i + d, i, w);
            }
        }
    }
    b.into_csr()
}

/// Matrix with `per_row` uniformly scattered columns per row — a
/// cache-hostile gather pattern.
fn scatter_matrix(n: usize, per_row: usize) -> CsrMatrix {
    let mut b = TripletBuilder::new(n);
    let mut state = 0x5CA77E2u64;
    for i in 0..n {
        b.push(i, i, 4.0);
        for _ in 0..per_row {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = ((state >> 16) % n as u64) as usize;
            b.push(i, j, 0.25);
        }
    }
    b.into_csr()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let mut report = BenchReport::new("kernels");
    report.meta("kernel", "speed-floor");
    report.meta("fp_mode", "bit-exact");

    // --- CSR SpMV: the straight row loop on netlist-like rows (~17 nnz),
    // banded and scattered ---
    let x = rand_vec(1, SPMV_DIM);
    for (name, m) in [
        ("spmv_band", band_matrix(SPMV_DIM, SPMV_BAND)),
        ("spmv_scatter", scatter_matrix(SPMV_DIM, 16)),
    ] {
        let (_, wall) = best_of(RUNS, || {
            let mut out = vec![0.0; SPMV_DIM];
            for _ in 0..SPMV_REPS {
                m.apply_rows(0, black_box(&x), &mut out);
            }
            black_box(out)
        });
        let wall_ms = wall.as_secs_f64() * 1e3;
        println!("{name:<16} n={SPMV_DIM:<8} wall {wall_ms:>9.3} ms");
        report.push(
            BenchEntry::new()
                .str("name", name)
                .int("n", SPMV_DIM)
                .int("nnz", m.nnz())
                .fixed("wall_ms", wall_ms)
                .rate("matvecs_per_sec", SPMV_REPS, wall),
        );
    }

    // --- Laplacian apply: fused degree/gather loop --------------------
    let hg = banded_hypergraph(17, 6_000, 4_000, 12);
    let lap = intersection_laplacian(&hg, IgWeighting::Paper);
    let lx = rand_vec(2, lap.dim());
    let (_, lap_wall) = best_of(RUNS, || {
        let mut out = vec![0.0; lap.dim()];
        for _ in 0..SPMV_REPS {
            lap.apply(black_box(&lx), &mut out);
        }
        black_box(out)
    });
    report.push(
        BenchEntry::new()
            .str("name", "laplacian_apply")
            .int("n", lap.dim())
            .fixed("wall_ms", lap_wall.as_secs_f64() * 1e3)
            .rate("matvecs_per_sec", SPMV_REPS, lap_wall),
    );

    // --- Fused vecops vs straight-line references ---------------------
    let u = rand_vec(3, VEC_N);
    let v = rand_vec(4, VEC_N);
    let w = rand_vec(5, VEC_N);
    {
        // axpy-then-dot vs fused axpy_dot: same bits out of both.
        let mut a = v.clone();
        axpy(0.37, &u, &mut a);
        let want = dot(&w, &a);
        let mut b = v.clone();
        let got = axpy_dot(0.37, &u, &mut b, &w);
        assert!(
            a.iter().zip(&b).all(|(p, q)| p.to_bits() == q.to_bits())
                && want.to_bits() == got.to_bits(),
            "fused axpy_dot is not bit-identical to axpy + dot"
        );
        // two axpys vs fused axpy2.
        let mut a = v.clone();
        axpy(0.37, &u, &mut a);
        axpy(-0.81, &w, &mut a);
        let mut b = v.clone();
        axpy2(0.37, &u, -0.81, &w, &mut b);
        assert!(
            a.iter().zip(&b).all(|(p, q)| p.to_bits() == q.to_bits()),
            "fused axpy2 is not bit-identical to two axpys"
        );
    }
    let (_, unfused) = best_of(RUNS, || {
        let mut acc = 0.0;
        let mut y = v.clone();
        for _ in 0..VEC_REPS {
            axpy(black_box(0.37), &u, &mut y);
            acc += dot(&w, &y);
        }
        black_box(acc)
    });
    let (_, fused) = best_of(RUNS, || {
        let mut acc = 0.0;
        let mut y = v.clone();
        for _ in 0..VEC_REPS {
            acc += axpy_dot(black_box(0.37), &u, &mut y, &w);
        }
        black_box(acc)
    });
    push_pair(
        &mut report,
        "axpy_dot",
        VEC_N,
        "ops_per_sec",
        VEC_REPS,
        unfused,
        fused,
    );

    // --- Reorthogonalization: sequential sweep vs fused chain ---------
    let basis: Vec<Vec<f64>> = (0..BASIS_M)
        .map(|i| rand_vec(10 + i as u64, VEC_N))
        .collect();
    {
        let mut a = u.clone();
        for bvec in &basis {
            orthogonalize_against(bvec, &mut a);
        }
        let mut b = u.clone();
        orthogonalize_fused(&[&basis], &mut b);
        assert!(
            a.iter().zip(&b).all(|(p, q)| p.to_bits() == q.to_bits()),
            "fused orthogonalization is not bit-identical to the sequential sweep"
        );
    }
    let (_, seq) = best_of(RUNS, || {
        let mut y = u.clone();
        for _ in 0..VEC_REPS / 10 {
            for bvec in black_box(&basis) {
                orthogonalize_against(bvec, &mut y);
            }
        }
        black_box(y)
    });
    let (_, fused_orth) = best_of(RUNS, || {
        let mut y = u.clone();
        for _ in 0..VEC_REPS / 10 {
            orthogonalize_fused(&[black_box(&basis)], &mut y);
        }
        black_box(y)
    });
    push_pair(
        &mut report,
        "orthogonalize",
        VEC_N,
        "ops_per_sec",
        VEC_REPS / 10,
        seq,
        fused_orth,
    );

    // --- IG-Match sweep BFS: bitset + flattened adjacency -------------
    let sweep_hg = banded_hypergraph(17, 4_500, 3_000, 12);
    let neighbors = intersection_neighbors(&sweep_hg);
    let moves = sweep_hg.num_nets() - 1;
    let (_, sweep_wall) = best_of(RUNS, || {
        let mut state = SweepState::new(&sweep_hg, &neighbors);
        let mut last = 0usize;
        for v in 0..moves as u32 {
            last = state.advance(&sweep_hg, v).candidate().losers;
        }
        black_box(last)
    });
    report.push(
        BenchEntry::new()
            .str("name", "sweep_bfs")
            .int("n", sweep_hg.num_nets())
            .int("sweep_moves", moves)
            .fixed("wall_ms", sweep_wall.as_secs_f64() * 1e3)
            .rate("sweep_moves_per_sec", moves, sweep_wall),
    );

    report.write(&out_path);
}

/// Records a reference/optimized pair with the shared field shape.
fn push_pair(
    report: &mut BenchReport,
    name: &str,
    n: usize,
    rate_key: &str,
    count: usize,
    reference: Duration,
    optimized: Duration,
) {
    let ref_ms = reference.as_secs_f64() * 1e3;
    let opt_ms = optimized.as_secs_f64() * 1e3;
    let speedup = ref_ms / opt_ms.max(1e-9);
    println!(
        "{name:<16} n={n:<8} reference {ref_ms:>9.3} ms  optimized {opt_ms:>9.3} ms  \
         speedup {speedup:>5.2}x"
    );
    report.push(
        BenchEntry::new()
            .str("name", name)
            .int("n", n)
            .fixed("reference_ms", ref_ms)
            .fixed("optimized_ms", opt_ms)
            .rate(rate_key, count, optimized)
            .fixed("speedup", speedup),
    );
}
