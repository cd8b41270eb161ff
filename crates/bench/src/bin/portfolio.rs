//! Portfolio benchmark: best-of-16 FM restarts under the `np-runner`
//! executor on the generated benchmark suite, emitting a JSON record
//! (`BENCH_portfolio.json` by default) with the best ratio cut and wall
//! time per circuit. CI runs this to track portfolio quality and
//! latency.
//!
//! ```text
//! cargo run --release -p bench --bin portfolio [-- OUT.json]
//! ```

use bench::{suite, BenchEntry, BenchReport};
use np_core::IgMatchOptions;
use np_runner::{run_portfolio, Algorithm, PortfolioOptions};
use np_sparse::BudgetMeter;

/// Restart count tracked by the benchmark (ISSUE PR 3, satellite 5).
const RESTARTS: usize = 16;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_portfolio.json".to_string());
    let mut report = BenchReport::new("portfolio");
    report.meta("algorithm", "FM-restart");
    for b in suite() {
        let hg = &b.hypergraph;
        let portfolio = Algorithm::Fm.portfolio(IgMatchOptions::default(), RESTARTS, 0);
        let opts = PortfolioOptions::default();
        let out = run_portfolio(hg, &portfolio, &opts, &BudgetMeter::unlimited(), None)
            .unwrap_or_else(|e| panic!("portfolio failed on {}: {e}", b.name));
        println!(
            "{:<8} best-of-{RESTARTS} FM: cut={:<4} ratio={:.3e}  winner #{:<2} {} thread(s) {:>8.1} ms",
            b.name,
            out.best.stats.cut_nets,
            out.best.ratio(),
            out.winner,
            out.report.threads,
            out.report.wall.as_secs_f64() * 1e3
        );
        report.push(
            BenchEntry::new()
                .str("name", &b.name)
                .int("modules", hg.num_modules())
                .int("nets", hg.num_nets())
                .int("restarts", RESTARTS)
                .int("threads", out.report.threads)
                .int("best_cut", out.best.stats.cut_nets)
                .sci("best_ratio", out.best.ratio())
                .int("winner", out.winner)
                .fixed("wall_ms", out.report.wall.as_secs_f64() * 1e3),
        );
    }
    report.write(&out_path);
}
