//! Ablation for the §5 clustering hybrid: condense the netlist with the
//! V-cycle's coarsener (one or two levels), partition the condensed
//! netlist with IG-Match, project back — refinement off at every level,
//! so the numbers isolate what condensation alone trades in quality for
//! eigensolve speed on a smaller instance.
//!
//! ```text
//! cargo run --release -p bench --bin ablation_cluster
//! ```

use bench::{fmt_ratio, suite, timed};
use np_core::engine::RunContext;
use np_core::{ig_match, IgMatchOptions};
use np_multilevel::{multilevel_ctx, MultilevelOptions};

/// The §5 flow: coarsen `levels` times, run plain IG-Match on the
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

fn main() {
    println!(
        "{:<8} {:>12} {:>10} | {:>12} {:>6} {:>10} | {:>12} {:>6} {:>10}",
        "Test", "flat ratio", "time", "1-lvl ratio", "mods", "time", "2-lvl ratio", "mods", "time"
    );
    let ctx = RunContext::unlimited();
    for b in suite() {
        let hg = &b.hypergraph;
        let (flat, t_flat) = timed(|| ig_match(hg, &IgMatchOptions::default()));
        let flat = flat.unwrap_or_else(|e| panic!("flat failed on {}: {e}", b.name));
        let (one, t_one) = timed(|| multilevel_ctx(hg, &condensed(1), &ctx));
        let one = one.unwrap_or_else(|e| panic!("1-level failed on {}: {e}", b.name));
        let (two, t_two) = timed(|| multilevel_ctx(hg, &condensed(2), &ctx));
        let two = two.unwrap_or_else(|e| panic!("2-level failed on {}: {e}", b.name));
        println!(
            "{:<8} {:>12} {:>10.2?} | {:>12} {:>6} {:>10.2?} | {:>12} {:>6} {:>10.2?}",
            b.name,
            fmt_ratio(flat.result.ratio()),
            t_flat,
            fmt_ratio(one.result.ratio()),
            one.coarsest_modules,
            t_one,
            fmt_ratio(two.result.ratio()),
            two.coarsest_modules,
            t_two
        );
    }
    println!("\n(condensation trades solution quality for time on the smaller instance)");
}
