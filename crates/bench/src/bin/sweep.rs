//! Sweep benchmark: from-scratch vs incremental IG-Match sweep, emitting
//! a JSON record (`BENCH_sweep.json` by default) with both wall times and
//! the speedup per instance. CI runs this to track the delta-maintenance
//! win (DESIGN.md §11); the determinism contract is asserted inline —
//! both sweeps must agree bit-for-bit on the best ratio, the winning
//! split rank, the matching size and the loser count at the winner.
//!
//! Two instance families:
//!
//! * `np_testkit::banded_hypergraph` in its natural net order, which
//!   keeps every move local: the incremental sweep pays `O(band)` per
//!   split while the from-scratch sweep re-runs the full alternating BFS
//!   plus an `O(pins)` completion, so the asymptotic gap grows with the
//!   instance. Every band row's best ratio is 0 (the band is
//!   disconnected), so its winner comparison compares zeros;
//! * the nine paper-suite circuits in the spectral net order the
//!   IG-Match route sweeps them in. Their best ratios are non-zero, so
//!   the winner comparison checks real winners, and their sweep times
//!   are the ones np-part pays.
//!
//! ```text
//! cargo run --release -p bench --bin sweep [-- OUT.json]
//! ```

use bench::{best_of, per_sec};
use np_core::igmatch::{CompletionOracle, SplitClassification, SplitMatcher, SweepState};
use np_core::models::{intersection_laplacian, IgWeighting};
use np_core::ordering::spectral_net_ordering;
use np_eigen::LanczosOptions;
use np_netlist::generate::{generate, mcnc_specs};
use np_netlist::Hypergraph;
use np_runner::json::Obj;
use np_sparse::Laplacian;
use np_testkit::banded_hypergraph;

/// Timed repetitions per configuration; the minimum is reported.
const RUNS: usize = 3;

/// `(name, seed, modules, nets, band)` — sized so the from-scratch arm's
/// `O(m)`-per-split cost dominates visibly at the large end while the
/// whole benchmark stays CI-friendly.
const INSTANCES: [(&str, u64, usize, usize, usize); 3] = [
    ("band-S", 17, 1_500, 1_000, 8),
    ("band-M", 17, 4_500, 3_000, 12),
    ("band-L", 17, 12_000, 8_000, 16),
];

/// What both sweep arms must agree on, bit for bit.
#[derive(Debug, PartialEq)]
struct Winner {
    ratio_bits: u64,
    split_rank: usize,
    matching_size: usize,
    loser_count: usize,
}

/// The seed implementation: full alternating-BFS classification plus an
/// `O(pins)` oracle evaluation at every split.
fn from_scratch_sweep(hg: &Hypergraph, ig: &Laplacian, order: &[u32]) -> Winner {
    let mut matcher = SplitMatcher::new(ig);
    let mut class = SplitClassification::default();
    let mut oracle = CompletionOracle::new(hg);
    let mut best: Option<Winner> = None;
    for (k, &v) in order[..order.len() - 1].iter().enumerate() {
        matcher.move_to_r(v);
        matcher.classify_into(&mut class);
        let cand = oracle.evaluate(hg, &class).candidate();
        let ratio = cand.stats.ratio();
        if ratio.is_finite()
            && best
                .as_ref()
                .is_none_or(|b| ratio < f64::from_bits(b.ratio_bits))
        {
            best = Some(Winner {
                ratio_bits: ratio.to_bits(),
                split_rank: k,
                matching_size: matcher.matching_size(),
                loser_count: cand.losers,
            });
        }
    }
    best.expect("benchmark instances are non-degenerate")
}

/// The delta-maintained sweep engine.
fn incremental_sweep(hg: &Hypergraph, ig: &Laplacian, order: &[u32]) -> Winner {
    let mut state = SweepState::new(hg, SplitMatcher::new(ig));
    let mut best: Option<Winner> = None;
    for (k, &v) in order[..order.len() - 1].iter().enumerate() {
        let cand = state.advance(hg, v).candidate();
        let ratio = cand.stats.ratio();
        if ratio.is_finite()
            && best
                .as_ref()
                .is_none_or(|b| ratio < f64::from_bits(b.ratio_bits))
        {
            best = Some(Winner {
                ratio_bits: ratio.to_bits(),
                split_rank: k,
                matching_size: state.matching_size(),
                loser_count: cand.losers,
            });
        }
    }
    best.expect("benchmark instances are non-degenerate")
}

/// One benchmark instance: the hypergraph, its sweep order and the row
/// fields that describe where both came from.
struct Instance {
    name: &'static str,
    hg: Hypergraph,
    order: Vec<u32>,
    /// `"natural"` (the band's net order) or `"spectral"`.
    order_kind: &'static str,
    /// The band width, for band rows.
    band: Option<usize>,
}

fn instances() -> Vec<Instance> {
    let bands = INSTANCES
        .into_iter()
        .map(|(name, seed, modules, nets, band)| Instance {
            name,
            hg: banded_hypergraph(seed, modules, nets, band),
            order: (0..nets as u32).collect(),
            order_kind: "natural",
            band: Some(band),
        });
    let suite = mcnc_specs().into_iter().map(|spec| {
        let hg = generate(&spec.config);
        let order = spectral_net_ordering(&hg, IgWeighting::default(), &LanczosOptions::default())
            .expect("suite circuits have a spectral ordering")
            .iter()
            .map(|n| n.0)
            .collect();
        Instance {
            name: spec.name,
            hg,
            order,
            order_kind: "spectral",
            band: None,
        }
    });
    bands.chain(suite).collect()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let mut rows = Vec::new();
    for Instance {
        name,
        hg,
        order,
        order_kind,
        band,
    } in instances()
    {
        let (modules, nets) = (hg.num_modules(), hg.num_nets());
        let ig = intersection_laplacian(&hg, IgWeighting::default());
        let (scratch_winner, scratch) = best_of(RUNS, || from_scratch_sweep(&hg, &ig, &order));
        let (inc_winner, inc) = best_of(RUNS, || incremental_sweep(&hg, &ig, &order));
        // Determinism contract: same bits from both sweeps.
        assert_eq!(
            scratch_winner, inc_winner,
            "incremental sweep diverged from the from-scratch sweep on {name}"
        );
        let scratch_ms = scratch.as_secs_f64() * 1e3;
        let inc_ms = inc.as_secs_f64() * 1e3;
        let speedup = scratch_ms / inc_ms.max(1e-9);
        // Each sweep step moves one net across the split and re-evaluates,
        // so the sweep's unit of work is `nets - 1` moves per pass.
        let moves = nets - 1;
        let rate = per_sec(moves, inc);
        println!(
            "{name:<8} {modules:>6} modules {nets:>6} nets: from-scratch {scratch_ms:>9.1} ms  \
             incremental {inc_ms:>9.1} ms  speedup {speedup:>6.1}x  {rate:>9.0} moves/s"
        );
        let row = Obj::new()
            .str("name", name)
            .str("order", order_kind)
            .int("modules", modules as u64)
            .int("nets", nets as u64);
        let row = match band {
            Some(band) => row.int("band", band as u64),
            None => row.null("band"),
        };
        rows.push(
            row.int("best_split", inc_winner.split_rank as u64)
                .int("matching_size", inc_winner.matching_size as u64)
                .int("loser_count", inc_winner.loser_count as u64)
                .num("best_ratio", f64::from_bits(inc_winner.ratio_bits))
                .int("sweep_moves", moves as u64)
                .num("from_scratch_ms", scratch_ms)
                .num("incremental_ms", inc_ms)
                .num("from_scratch_moves_per_sec", per_sec(moves, scratch))
                .num("incremental_moves_per_sec", rate)
                // canonical throughput field: the headline (fast-arm) rate
                // every bench record carries under the same key
                .num("sweep_moves_per_sec", rate)
                .num("speedup", speedup),
        );
    }
    bench::write(&out_path, &bench::record("sweep", "ig-match-sweep", &rows));
}
