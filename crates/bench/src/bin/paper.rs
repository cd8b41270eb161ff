//! Regenerates the paper's quality claims — E1–E5, E10–E12, E18 and E19
//! of `EXPERIMENTS.md` — in one pass over the nine-circuit suite.
//!
//! Each circuit is built once and each method runs once per circuit.
//! Default IG-Match's run is shared by every experiment that reports it:
//! the contender of Tables 2 and 3 and of the EIG1 comparison, the
//! weighting ablation's paper column, the
//! baseline of the free-module and FM-polish rows (the polish refines it
//! instead of rerunning it), the ratio Theorem 1 certifies and the
//! area-oblivious side of the module-area ablation. Both best-of-10 RCut
//! baselines run as `np-runner` portfolios, reduced deterministically by
//! `(score, attempt index)`.
//!
//! Prints the ten tables, writes one `bench/paper/v1` record
//! (`BENCH_paper.json` by default) and exits non-zero when a floor of
//! [`bench::paper_floors`] fails.
//!
//! ```text
//! cargo run --release -p bench --bin paper [-- OUT.json]
//! ```

use bench::{fmt_ratio, improvement_percent, paper_floors, suite, timed};
use np_baselines::rcut::{rcut, rcut_with_areas, refine_ratio_cut_metered, RcutOptions};
use np_core::bounds::{ratio_cut_lower_bound, RatioCutBound};
use np_core::hybrid::HybridOptions;
use np_core::models::{clique_adjacency, intersection_adjacency};
use np_core::{eig1, ig_match, ig_vote, IgMatchOptions, IgWeighting, PartitionError};
use np_core::{PartitionResult, Partitioner, RunContext};
use np_netlist::areas::{area_cut_stats, AreaCutStats, ModuleAreas};
use np_netlist::generate::Benchmark;
use np_netlist::rng::{derive_seed, Rng64};
use np_netlist::stats::CutBySize;
use np_netlist::{CutStats, Hypergraph};
use np_runner::json::{parse, Obj};
use np_runner::{run_portfolio_scored, Algorithm, Portfolio, PortfolioOptions};
use np_sparse::BudgetMeter;

/// Paper-faithful restart count of both RCut baselines.
const RCUT_RESTARTS: usize = 10;

/// Every method's result on one circuit.
struct Runs {
    bench: Benchmark,
    /// Default IG-Match.
    igm: CutStats,
    rcut: CutStats,
    igvote: CutStats,
    eig1: CutStats,
    /// IG-Match's ratio under each of [`IgWeighting::ALL`].
    weightings: Vec<f64>,
    refined: CutStats,
    hybrid: CutStats,
    clique_nnz: usize,
    ig_nnz: usize,
    bound: RatioCutBound,
    igm_area: AreaCutStats,
    rcut_area: AreaCutStats,
}

impl Runs {
    fn run(bench: Benchmark) -> Self {
        let (hg, name) = (&bench.hypergraph, &bench.name);
        let ok = |r: Result<PartitionResult, PartitionError>| {
            r.unwrap_or_else(|e| panic!("a method failed on {name}: {e}"))
        };
        let ig_match_with = |opts| ok(ig_match(hg, &opts).map(|o| o.result));
        let igm = ig_match_with(IgMatchOptions::default());
        let rcut_seed = RcutOptions::default().seed;
        let best_of = |portfolio: &Portfolio, score: &(dyn Fn(&PartitionResult) -> f64 + Sync)| {
            let opts = PortfolioOptions::default().with_seed(rcut_seed);
            run_portfolio_scored(hg, portfolio, &opts, &BudgetMeter::unlimited(), None, score)
                .unwrap_or_else(|e| panic!("RCut portfolio failed on {name}: {e}"))
                .best
        };
        let rcut = best_of(
            &Algorithm::Rcut.portfolio(IgMatchOptions::default(), RCUT_RESTARTS, rcut_seed),
            &|r: &PartitionResult| r.ratio(),
        );
        let areas = synth_areas(hg, 0xA1EA ^ hg.num_modules() as u64);
        let rcut_area = best_of(
            &Portfolio::new().restarts("RCut-area", RCUT_RESTARTS, |i| {
                let seed = derive_seed(rcut_seed, i as u64);
                Box::new(AreaRcutStage(areas.clone(), seed))
            }),
            &|r: &PartitionResult| area_cut_stats(hg, &r.partition, &areas).ratio(),
        );
        let weightings = IgWeighting::ALL
            .into_iter()
            .map(|weighting| {
                if weighting == IgMatchOptions::default().weighting {
                    igm.ratio()
                } else {
                    let opts = IgMatchOptions {
                        weighting,
                        ..Default::default()
                    };
                    ig_match_with(opts).ratio()
                }
            })
            .collect();
        let polish = HybridOptions::default().max_refine_passes;
        let unlimited = BudgetMeter::unlimited();
        Runs {
            rcut: rcut.stats,
            igvote: ok(ig_vote(hg, &Default::default())).stats,
            eig1: ok(eig1(hg, &Default::default())).stats,
            weightings,
            refined: ig_match_with(IgMatchOptions {
                refine_free_modules: true,
                ..Default::default()
            })
            .stats,
            hybrid: refine_ratio_cut_metered(hg, &igm.partition, polish, &unlimited)
                .expect("an unlimited meter never trips")
                .1,
            clique_nnz: clique_adjacency(hg).nnz(),
            ig_nnz: intersection_adjacency(hg, IgWeighting::Paper).nnz(),
            bound: ratio_cut_lower_bound(hg, &Default::default())
                .unwrap_or_else(|e| panic!("bound failed on {name}: {e}")),
            igm_area: area_cut_stats(hg, &igm.partition, &areas),
            rcut_area: area_cut_stats(hg, &rcut_area.partition, &areas),
            igm: igm.stats,
            bench,
        }
    }

    fn name(&self) -> &str {
        &self.bench.name
    }

    fn hg(&self) -> &Hypergraph {
        &self.bench.hypergraph
    }

    /// The record row: every method's cut and ratio, the two nonzero
    /// counts and the bound.
    fn row(&self) -> Obj {
        let mut row = Obj::new()
            .str("name", self.name())
            .int("modules", self.hg().num_modules() as u64)
            .int("nets", self.hg().num_nets() as u64);
        for (cut, ratio, stats) in [
            ("igmatch_cut", "igmatch_ratio", self.igm),
            ("rcut_cut", "rcut_ratio", self.rcut),
            ("igvote_cut", "igvote_ratio", self.igvote),
            ("eig1_cut", "eig1_ratio", self.eig1),
            ("refined_cut", "refined_ratio", self.refined),
            ("hybrid_cut", "hybrid_ratio", self.hybrid),
        ] {
            row = row
                .int(cut, stats.cut_nets as u64)
                .num(ratio, stats.ratio());
        }
        let weightings = IgWeighting::ALL
            .into_iter()
            .zip(&self.weightings)
            .fold(Obj::new(), |o, (w, &r)| o.num(w.name(), r));
        row.raw("weighting_ratio", weightings.render())
            .int("igmatch_area_cut", self.igm_area.cut_nets as u64)
            .num("igmatch_area_ratio", self.igm_area.ratio())
            .int("rcut_area_cut", self.rcut_area.cut_nets as u64)
            .num("rcut_area_ratio", self.rcut_area.ratio())
            .int("clique_nnz", self.clique_nnz as u64)
            .int("ig_nnz", self.ig_nnz as u64)
            .num("bound", self.bound.bound)
    }
}

/// Heterogeneous module areas: 5% macro blocks of area 8–24, standard
/// cells 1–3.
fn synth_areas(hg: &Hypergraph, seed: u64) -> ModuleAreas {
    let mut rng = Rng64::new(seed);
    let areas = (0..hg.num_modules())
        .map(|_| {
            if rng.gen_bool(0.05) {
                8.0 + rng.gen_range(17) as f64 // macro block
            } else {
                1.0 + rng.gen_range(3) as f64 // standard cell
            }
        })
        .collect();
    ModuleAreas::new(areas)
}

/// One area-aware RCut start on its seed, portfolio-schedulable.
struct AreaRcutStage(ModuleAreas, u64);

impl Partitioner for AreaRcutStage {
    fn name(&self) -> &'static str {
        "RCut-area"
    }

    fn partition(
        &self,
        hg: &Hypergraph,
        _ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        let opts = RcutOptions {
            runs: 1,
            seed: self.1,
            ..Default::default()
        };
        let r = rcut_with_areas(hg, &self.0, &opts);
        Ok(PartitionResult::evaluate(
            hg,
            r.partition,
            "RCut-area",
            None,
        ))
    }
}

/// Prints a paper-style comparison table of `contender` against
/// `baseline` and returns on how many circuits the contender's ratio cut
/// matches or beats the baseline's.
fn compare(
    runs: &[Runs],
    title: &str,
    [baseline_name, contender_name]: [&str; 2],
    baseline: fn(&Runs) -> CutStats,
    contender: fn(&Runs) -> CutStats,
) -> usize {
    println!("\n=== {title} ===");
    println!(
        "{:<8} {:>9} | {:>11} {:>8} {:>10} | {:>11} {:>8} {:>10} | {:>7}",
        "Test", "elements", "areas", "cut", baseline_name, "areas", "cut", contender_name, "impr %"
    );
    let (mut sum, mut dominated) = (0.0, 0);
    for r in runs {
        let (b, c) = (baseline(r), contender(r));
        let impr = improvement_percent(b.ratio(), c.ratio());
        println!(
            "{:<8} {:>9} | {:>11} {:>8} {:>10} | {:>11} {:>8} {:>10} | {:>7.0}",
            r.name(),
            r.hg().num_modules(),
            b.areas(),
            b.cut_nets,
            fmt_ratio(b.ratio()),
            c.areas(),
            c.cut_nets,
            fmt_ratio(c.ratio()),
            impr
        );
        sum += impr;
        dominated += usize::from(c.ratio() <= b.ratio() + 1e-15);
    }
    let avg = sum / runs.len() as f64;
    println!("average ratio-cut improvement of {contender_name} over {baseline_name}: {avg:.1}%");
    dominated
}

/// E1 — Table 1: cut statistics by net size in a locally minimum ratio
/// cut of Prim2. Returns that cut's size and whether the cut probability
/// is monotone in net size.
fn table1(prim2: &Runs) -> (usize, bool) {
    let hg = prim2.hg();
    let rc = rcut(hg, &RcutOptions::default());
    let table = CutBySize::compute(hg, &rc.partition);
    let monotone = table.cut_probability_monotone(10);
    println!(
        "Cut statistics for k-pin nets of {} ({} modules, {} nets), \
         locally-minimum ratio cut ({} nets cut):\n",
        prim2.name(),
        hg.num_modules(),
        hg.num_nets(),
        rc.stats.cut_nets
    );
    print!("{table}");
    println!("\ncut probability monotone in net size (classes with >= 10 nets): {monotone}");
    println!("(the paper's observation is that this is typically NOT monotone)");
    (rc.stats.cut_nets, monotone)
}

fn sparsity(runs: &[Runs]) {
    println!(
        "{:<8} {:>9} {:>9} {:>14} {:>14} {:>8}",
        "Test", "modules", "nets", "clique nnz", "ig nnz", "ratio"
    );
    let mut worst = 0.0f64;
    let mut best = f64::INFINITY;
    for r in runs {
        let ratio = r.clique_nnz as f64 / r.ig_nnz as f64;
        worst = worst.max(ratio);
        best = best.min(ratio);
        println!(
            "{:<8} {:>9} {:>9} {:>14} {:>14} {:>7.2}x",
            r.name(),
            r.hg().num_modules(),
            r.hg().num_nets(),
            r.clique_nnz,
            r.ig_nnz,
            ratio
        );
    }
    println!(
        "\nclique/intersection nonzero ratio ranges {best:.2}x .. {worst:.2}x \
         (paper reports >10x for Test05)"
    );
    println!(
        "note: the ratio is driven by the wide-net tail — every k-pin net \
         contributes C(k,2) clique nonzeros but only its overlaps to the \
         intersection graph"
    );
}

fn weightings(runs: &[Runs]) {
    print!("{:<8}", "Test");
    for w in IgWeighting::ALL {
        print!(" {:>14}", w.name());
    }
    println!();
    for r in runs {
        print!("{:<8}", r.name());
        for &ratio in &r.weightings {
            print!(" {:>14}", fmt_ratio(ratio));
        }
        println!();
    }
    println!("\ngeometric-mean ratio cut by weighting:");
    for (i, w) in IgWeighting::ALL.into_iter().enumerate() {
        let mean_ln = runs.iter().map(|r| r.weightings[i].ln()).sum::<f64>() / runs.len() as f64;
        println!("  {:<14} {}", w.name(), fmt_ratio(mean_ln.exp()));
    }
}

fn bounds(runs: &[Runs]) {
    println!(
        "{:<8} {:>12} {:>12} {:>10}",
        "Test", "λ2/n bound", "IG-Match", "gap"
    );
    for r in runs {
        println!(
            "{:<8} {:>12} {:>12} {:>9.1}x",
            r.name(),
            fmt_ratio(r.bound.bound),
            fmt_ratio(r.igm.ratio()),
            r.bound.gap(r.igm.ratio())
        );
    }
    println!(
        "\n(gap = achieved/bound; the bound certifies how far any heuristic can possibly improve)"
    );
}

fn areas(runs: &[Runs]) {
    println!(
        "{:<8} | {:>12} {:>10} | {:>12} {:>10}",
        "Test", "IGM areas", "area-ratio", "RCut areas", "area-ratio"
    );
    let mut sum_rel = 0.0;
    for r in runs {
        println!(
            "{:<8} | {:>12} {:>10} | {:>12} {:>10}",
            r.name(),
            r.igm_area.areas(),
            fmt_ratio(r.igm_area.ratio()),
            r.rcut_area.areas(),
            fmt_ratio(r.rcut_area.ratio())
        );
        sum_rel += (r.rcut_area.ratio() / r.igm_area.ratio()).ln();
    }
    let geo = (sum_rel / runs.len() as f64).exp();
    println!(
        "\ngeometric mean RCut(area-aware) / IG-Match(area-oblivious) = {geo:.2} \
         (> 1 means the area-oblivious spectral method still wins, \
         matching the paper's 'not a significant disadvantage')"
    );
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_paper.json".to_string());
    let runs: Vec<Runs> = suite()
        .into_iter()
        .map(|b| {
            let (runs, wall) = timed(|| Runs::run(b));
            eprintln!("{:<8} every method in {wall:.2?}", runs.name());
            runs
        })
        .collect();
    let section = |heading: &str| println!("\n## {heading}");

    section("E1 — Table 1: cut statistics by net size (Prim2)");
    let prim2 = runs.iter().find(|r| r.name() == "Prim2");
    let (table1_cut, table1_monotone) = table1(prim2.expect("Prim2 is in the suite"));
    section("E2 — Table 2: IG-Match vs RCut1.0");
    let title = "Table 2: IG-Match vs Wei-Cheng RCut1.0 (stand-in, best of 10 starts)";
    compare(&runs, title, ["RCut", "IG-Match"], |r| r.rcut, |r| r.igm);
    section("E3 — Table 3: IG-Match vs IG-Vote");
    let title = "Table 3: IG-Match vs Hagen-Kahng IG-Vote (EIG1-IG)";
    let dominated = compare(
        &runs,
        title,
        ["IG-Vote", "IG-Match"],
        |r| r.igvote,
        |r| r.igm,
    );
    println!(
        "IG-Match matches or beats IG-Vote on {dominated}/{} circuits \
         (paper: uniform domination)",
        runs.len()
    );
    section("E4 — §4: IG-Match vs EIG1");
    let title = "Section 4 claim: IG-Match vs EIG1 (clique model; paper reports ~22%)";
    compare(&runs, title, ["EIG1", "IG-Match"], |r| r.eig1, |r| r.igm);
    section("E5 — §1.2: clique vs intersection-graph nonzeros");
    sparsity(&runs);
    section("E10 — §2.2: IG weighting robustness");
    weightings(&runs);
    section("E11 — §3: free-module component refinement");
    let title = "Section 3 extension: IG-Match with free-module component refinement";
    compare(&runs, title, ["plain", "refined"], |r| r.igm, |r| r.refined);
    println!("(refinement is guaranteed never to worsen a partition)");
    section("E12 — §5: IG-Match + ratio-FM post-refinement");
    let title = "Section 5 hybrid: IG-Match + ratio-FM post-refinement";
    compare(
        &runs,
        title,
        ["IG-Match", "IGM+FM"],
        |r| r.igm,
        |r| r.hybrid,
    );
    println!("(the refinement stage is deterministic and can only improve the cut)");
    section("E18 — Theorem 1: optimality certificates");
    bounds(&runs);
    section("E19 — §4: area-oblivious IG-Match vs area-aware RCut");
    areas(&runs);

    // Table 1's numbers ride on Prim2's row
    let rows: Vec<Obj> = runs
        .iter()
        .map(|r| match r.name() {
            "Prim2" => r
                .row()
                .int("table1_cut", table1_cut as u64)
                .bool("table1_monotone", table1_monotone),
            _ => r.row(),
        })
        .collect();
    let json = bench::record("paper", "paper-suite", &rows);
    bench::write(&out_path, &json);
    let failures = paper_floors(&parse(&json).expect("the record parses"));
    for failure in &failures {
        eprintln!("floor failed: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    eprintln!("every paper floor holds");
}
