//! Spectral-kernel benchmark: serial per-attempt operator rebuilds vs
//! the shared [`OperatorCache`] plus row-sharded SpMV, on the generated
//! benchmark suite, emitting a JSON record (`BENCH_spectral.json` by
//! default) with both wall times and the speedup per circuit. CI runs
//! this to track the parallel-kernel win; the determinism contract
//! (`DESIGN.md` §10) is asserted inline — both configurations must
//! produce bit-identical Fiedler pairs.
//!
//! ```text
//! cargo run --release -p bench --bin spectral [-- OUT.json]
//! ```

use bench::{best_of, suite, BenchEntry, BenchReport};
use np_core::engine::OperatorCache;
use np_core::models::{clique_laplacian, intersection_laplacian, IgWeighting};
use np_eigen::{fiedler, fiedler_metered, EigenPair, LanczosOptions};
use np_sparse::{resolve_threads, BudgetMeter};
use std::sync::Arc;

/// Attempts per configuration: models a small portfolio where several
/// spectral stages (EIG1 plus an IG stage) each need the same operators.
const ATTEMPTS: usize = 4;

/// Timed repetitions per configuration; the minimum is reported.
const RUNS: usize = 3;

/// One configuration's outcome: the Fiedler pairs of the last attempt
/// (for the bit-identity check) in clique/intersection order.
fn run_serial(hg: &np_netlist::Hypergraph, opts: &LanczosOptions) -> (EigenPair, EigenPair) {
    let mut out = None;
    for _ in 0..ATTEMPTS {
        // The pre-cache behaviour: every attempt rebuilds both operators
        // and solves with the serial kernel.
        let q = clique_laplacian(hg);
        let clique_pair = fiedler(&q, opts).expect("serial clique solve");
        let ig = intersection_laplacian(hg, IgWeighting::Paper);
        let ig_pair = fiedler(&ig, opts).expect("serial intersection solve");
        out = Some((clique_pair, ig_pair));
    }
    out.expect("at least one attempt")
}

fn run_cached(
    hg: &np_netlist::Hypergraph,
    opts: &LanczosOptions,
    threads: usize,
) -> (EigenPair, EigenPair) {
    let cache = Arc::new(OperatorCache::new());
    let mut out = None;
    for _ in 0..ATTEMPTS {
        // One shared cache across attempts: the first attempt builds each
        // operator, the rest reuse the same Arc; every solve shards its
        // matvecs over `threads`.
        let q = cache.clique_laplacian(hg);
        let clique_pair = fiedler(&q.threaded(threads), opts).expect("cached clique solve");
        let ig = cache.intersection_laplacian(hg, IgWeighting::Paper);
        let ig_pair = fiedler(&ig.threaded(threads), opts).expect("cached intersection solve");
        out = Some((clique_pair, ig_pair));
    }
    out.expect("at least one attempt")
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_spectral.json".to_string());
    // At least two threads even on a single-core runner: the acceptance
    // bar is "cache + sharded kernels beat per-attempt serial rebuilds at
    // >= 2 threads", and the cache reuse dominates that win.
    let threads = resolve_threads(0).max(2);
    let opts = LanczosOptions::default();
    let mut report = BenchReport::new("spectral");
    report.meta("kernel", "fiedler");
    for b in suite() {
        let hg = &b.hypergraph;
        // Best-of-3 per configuration (like `bench_case`): minimum
        // wall-clock is the standard noise-robust point estimate.
        let (serial_pairs, serial) = best_of(RUNS, || run_serial(hg, &opts));
        let (cached_pairs, cached) = best_of(RUNS, || run_cached(hg, &opts, threads));
        // Determinism contract: same bits from both configurations.
        assert_eq!(
            serial_pairs.0.value.to_bits(),
            cached_pairs.0.value.to_bits(),
            "clique eigenvalue differs on {}",
            b.name
        );
        assert_eq!(serial_pairs.0.vector, cached_pairs.0.vector);
        assert_eq!(
            serial_pairs.1.value.to_bits(),
            cached_pairs.1.value.to_bits(),
            "intersection eigenvalue differs on {}",
            b.name
        );
        assert_eq!(serial_pairs.1.vector, cached_pairs.1.vector);
        // Matvec throughput: both configurations run the same solves
        // (the bit-identity above proves it), so count one attempt's
        // matvecs with a metered re-solve and scale by ATTEMPTS.
        let meter = BudgetMeter::unlimited();
        fiedler_metered(&clique_laplacian(hg), &opts, &meter).expect("metered clique solve");
        fiedler_metered(
            &intersection_laplacian(hg, IgWeighting::Paper),
            &opts,
            &meter,
        )
        .expect("metered intersection solve");
        let matvecs = meter.matvecs_used() as usize * ATTEMPTS;
        let serial_ms = serial.as_secs_f64() * 1e3;
        let cached_ms = cached.as_secs_f64() * 1e3;
        let speedup = serial_ms / cached_ms.max(1e-9);
        let per_sec = matvecs as f64 / cached.as_secs_f64().max(1e-9);
        println!(
            "{:<8} {ATTEMPTS} attempts: serial {serial_ms:>9.1} ms  cached+{threads}t \
             {cached_ms:>9.1} ms  speedup {speedup:>5.2}x  {per_sec:>9.0} matvecs/s",
            b.name
        );
        report.push(
            BenchEntry::new()
                .str("name", &b.name)
                .int("modules", hg.num_modules())
                .int("nets", hg.num_nets())
                .int("attempts", ATTEMPTS)
                .int("threads", threads)
                .int("matvecs", matvecs)
                .fixed("serial_ms", serial_ms)
                .fixed("cached_threaded_ms", cached_ms)
                .rate("serial_matvecs_per_sec", matvecs, serial)
                .rate("cached_matvecs_per_sec", matvecs, cached)
                // canonical throughput field: the headline (fast-arm) rate
                // every bench record carries under the same key
                .rate("matvecs_per_sec", matvecs, cached)
                .fixed("speedup", speedup),
        );
    }
    report.write(&out_path);
}
