//! Regenerates the paper's claims — E1–E6, E10–E14, E18 and E19 of
//! `EXPERIMENTS.md` — in one pass over the nine-circuit suite.
//!
//! Each circuit is built once and each method runs once per circuit.
//! Default IG-Match's run is shared by every experiment that reports it:
//! the contender of Tables 2 and 3 and of the EIG1 comparison, the
//! weighting ablation's paper column, the
//! baseline of the free-module and FM-polish rows (the polish refines it
//! instead of rerunning it), the ratio Theorem 1 certifies, the
//! area-oblivious side of the module-area ablation and the flat ratio of
//! the condensation ablation. Both best-of-10 RCut
//! baselines run as `np-runner` portfolios, reduced deterministically by
//! `(score, attempt index)`; the plain one's per-attempt walls are also
//! the "10 RCut runs" of the §4 CPU-time claim.
//!
//! Prints the thirteen tables, writes one `bench/paper/v1` record
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
use np_core::igmatch::ig_match_with_ordering;
use np_core::models::{clique_adjacency, clique_laplacian};
use np_core::models::{intersection_adjacency, intersection_laplacian};
use np_core::ordering::spectral_net_ordering_thresholded;
use np_core::{eig1, ig_match, ig_vote, IgMatchOptions, IgWeighting, PartitionError};
use np_core::{PartitionResult, Partitioner, RunContext};
use np_eigen::{fiedler, LanczosOptions};
use np_multilevel::{build_hierarchy, multilevel_ctx, MultilevelOptions};
use np_netlist::areas::{area_cut_stats, AreaCutStats, ModuleAreas};
use np_netlist::generate::Benchmark;
use np_netlist::kway::FixedModules;
use np_netlist::rng::{derive_seed, Rng64};
use np_netlist::stats::CutBySize;
use np_netlist::{CutStats, Hypergraph};
use np_runner::json::{parse, Obj};
use np_runner::{run_portfolio_scored, Algorithm, Portfolio, PortfolioOptions};
use np_sparse::{BudgetMeter, Laplacian};
use std::time::Duration;

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
    /// Laplacian build plus Fiedler solve on the intersection graph and
    /// on the clique model, best of 3.
    ig_eig: Duration,
    clique_eig: Duration,
    /// The best-of-10 RCut portfolio's per-attempt walls, summed.
    rcut_x10: Duration,
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
        let best_of_rcut =
            |portfolio: &Portfolio, score: &(dyn Fn(&PartitionResult) -> f64 + Sync)| {
                let opts = PortfolioOptions::default();
                run_portfolio_scored(hg, portfolio, &opts, &BudgetMeter::unlimited(), None, score)
                    .unwrap_or_else(|e| panic!("RCut portfolio failed on {name}: {e}"))
            };
        let rcut = best_of_rcut(
            &Algorithm::Rcut.portfolio(IgMatchOptions::default(), RCUT_RESTARTS, rcut_seed),
            &|r: &PartitionResult| r.ratio(),
        );
        let areas = synth_areas(hg, 0xA1EA ^ hg.num_modules() as u64);
        let rcut_area = best_of_rcut(
            &Portfolio::new().restarts("RCut-area", RCUT_RESTARTS, |i| {
                let seed = derive_seed(rcut_seed, i as u64);
                Box::new(AreaRcutStage(areas.clone(), seed))
            }),
            &|r: &PartitionResult| area_cut_stats(hg, &r.partition, &areas).ratio(),
        )
        .best;
        let eigensolve = |laplacian: &dyn Fn(&Hypergraph) -> Laplacian| {
            let solve = || fiedler(&laplacian(hg), &LanczosOptions::default());
            let (pair, wall) = bench::best_of(3, solve);
            pair.unwrap_or_else(|e| panic!("eigensolve failed on {name}: {e}"));
            wall
        };
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
            ig_eig: eigensolve(&|hg| intersection_laplacian(hg, IgWeighting::Paper)),
            clique_eig: eigensolve(&clique_laplacian),
            rcut_x10: rcut.report.attempts.iter().map(|a| a.wall).sum(),
            rcut: rcut.best.stats,
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
    /// counts, the bound and the E6 times.
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
            .num("ig_eig_ms", ms(self.ig_eig))
            .num("clique_eig_ms", ms(self.clique_eig))
            .num("rcut_x10_ms", ms(self.rcut_x10))
    }
}

/// A duration in milliseconds, the record's time unit.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
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

fn cpu_time(runs: &[Runs]) {
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>9} {:>10}",
        "Test", "IG eig", "clique eig", "RCut x10", "IG/RCut", "clique/IG"
    );
    for r in runs {
        println!(
            "{:<8} {:>12.2?} {:>12.2?} {:>12.2?} {:>8.3}x {:>9.2}x",
            r.name(),
            r.ig_eig,
            r.clique_eig,
            r.rcut_x10,
            r.ig_eig.as_secs_f64() / r.rcut_x10.as_secs_f64(),
            r.clique_eig.as_secs_f64() / r.ig_eig.as_secs_f64()
        );
    }
    println!(
        "\n(eig = Laplacian build + Fiedler solve, best of 3; RCut x10 = the \
         best-of-10 portfolio's attempt walls summed)"
    );
    println!(
        "paper: one spectral solve costs less than 10 FM-style runs \
         (83 s vs 204 s on PrimSC2/Sun4, 0.41x)"
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

/// E13: drops the intersection graph's edges lighter than a quantile of
/// its weights before the eigensolve, on Prim2 and Test05.
fn thresholding(runs: &[Runs]) {
    println!(
        "{:<8} {:>6} {:>10} {:>10} {:>12} {:>10}",
        "Test", "thresh", "nnz kept", "dropped", "eig time", "ratio cut"
    );
    for r in runs
        .iter()
        .filter(|r| matches!(r.name(), "Prim2" | "Test05"))
    {
        let (hg, name) = (r.hg(), r.name());
        let adj = intersection_adjacency(hg, IgWeighting::Paper);
        let mut weights: Vec<f64> = (0..hg.num_nets())
            .flat_map(|net| adj.row(net).1.iter().copied())
            .collect();
        weights.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.75] {
            let label = format!("q{:.0}", q * 100.0);
            let threshold = weights[((weights.len() - 1) as f64 * q) as usize];
            let ((order, dropped), wall) = bench::best_of(3, || {
                spectral_net_ordering_thresholded(
                    hg,
                    IgWeighting::Paper,
                    threshold,
                    &Default::default(),
                )
                .unwrap_or_else(|e| panic!("eigensolve failed on {name}@{label}: {e}"))
            });
            let out = ig_match_with_ordering(hg, &order, false)
                .unwrap_or_else(|e| panic!("IG-Match failed on {name}@{label}: {e}"));
            println!(
                "{:<8} {:>6} {:>10} {:>10} {:>12.2?} {:>10}",
                name,
                label,
                adj.nnz() - dropped,
                dropped,
                wall,
                fmt_ratio(out.result.ratio())
            );
        }
    }
    println!("\n(eig time = thresholded Laplacian build + Fiedler solve, best of 3)");
}

/// E14's §5 flow: coarsen `levels` times, run plain IG-Match on the
/// condensed netlist, project back with no refinement. The 64-module
/// target is below every suite circuit's two-level size, so it only sets
/// the absorption area cap (4× the average cluster area at 64 clusters),
/// which keeps hub modules from swallowing the netlist.
fn condensed(levels: usize) -> MultilevelOptions {
    MultilevelOptions {
        coarsen_target: 64,
        max_levels: levels,
        refine_passes: 0,
        flat_refine_passes: 0,
        ..Default::default()
    }
}

/// E14: flat IG-Match against its one- and two-level condensations, then
/// what two levels keep of the netlist and its intersection graph.
fn condensation(runs: &[Runs]) {
    println!(
        "{:<8} {:>10} {:>9} | {:>10} {:>5} {:>9} | {:>10} {:>5} {:>9}",
        "Test", "flat ratio", "time", "1-lvl", "mods", "time", "2-lvl", "mods", "time"
    );
    for r in runs {
        let (hg, name) = (r.hg(), r.name());
        // the flat ratio is the shared run's; only its time is new
        let (_, t_flat) = bench::best_of(3, || ig_match(hg, &IgMatchOptions::default()));
        let condense = |levels| {
            let solve = || multilevel_ctx(hg, &condensed(levels), &RunContext::unlimited());
            let (out, wall) = bench::best_of(3, solve);
            let out = out.unwrap_or_else(|e| panic!("{levels}-level failed on {name}: {e}"));
            (out, wall)
        };
        let ((one, t_one), (two, t_two)) = (condense(1), condense(2));
        println!(
            "{:<8} {:>10} {:>9.2?} | {:>10} {:>5} {:>9.2?} | {:>10} {:>5} {:>9.2?}",
            name,
            fmt_ratio(r.igm.ratio()),
            t_flat,
            fmt_ratio(one.result.ratio()),
            one.coarsest_modules,
            t_one,
            fmt_ratio(two.result.ratio()),
            two.coarsest_modules,
            t_two
        );
    }
    println!(
        "\n{:<8} {:>7} {:>7} {:>10} {:>10} {:>7}",
        "Test", "mods %", "nets %", "IG nnz", "2-lvl nnz", "growth"
    );
    for r in runs {
        let hg = r.hg();
        let n = hg.num_modules();
        let hierarchy = build_hierarchy(
            hg,
            &ModuleAreas::uniform(n),
            &FixedModules::free(n),
            &condensed(2),
            f64::INFINITY,
            &BudgetMeter::unlimited(),
        )
        .expect("an unlimited meter never trips");
        let coarse = &hierarchy
            .levels
            .last()
            .expect("every suite circuit coarsens")
            .coarse;
        let nnz = intersection_adjacency(coarse, IgWeighting::Paper).nnz();
        let share = |part: usize, whole: usize| 100.0 * part as f64 / whole as f64;
        println!(
            "{:<8} {:>6.1}% {:>6.1}% {:>10} {:>10} {:>6.2}x",
            r.name(),
            share(coarse.num_modules(), n),
            share(coarse.num_nets(), hg.num_nets()),
            r.ig_nnz,
            nnz,
            nnz as f64 / r.ig_nnz as f64
        );
    }
    println!(
        "\n(times are best of 3; the second table is the two-level netlist \
         against the flat one)"
    );
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
    section("E6 — §4: CPU time, one eigensolve vs 10 RCut runs");
    cpu_time(&runs);
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
    section("E13 — §5: thresholding the intersection graph");
    thresholding(&runs);
    section("E14 — §5: clustering condensation");
    condensation(&runs);
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
