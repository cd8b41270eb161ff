//! Dumps the ratio-cut sweep curve of the spectral net ordering — the
//! "try all splits of the sorted eigenvector" picture behind §3 — as
//! tab-separated values, together with the matching-size bound at each
//! split.
//!
//! ```text
//! cargo run --release --example sweep_curve [benchmark-name] > curve.tsv
//! ```
//!
//! Columns: split rank, max-matching size (the Theorem-3 optimal
//! completion bound), completed cut, ratio cut.

use ig_match_repro::core::igmatch::{SplitClassification, SplitMatcher};
use ig_match_repro::core::models::intersection_laplacian;
use ig_match_repro::core::ordering::spectral_net_ordering;
use ig_match_repro::netlist::generate::mcnc_benchmark;
use ig_match_repro::netlist::{Bipartition, ModuleId, NetId, Side};
use ig_match_repro::IgWeighting;
use std::collections::HashSet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "Prim1".into());
    let b = mcnc_benchmark(&name).ok_or_else(|| format!("unknown benchmark '{name}'"))?;
    let hg = &b.hypergraph;

    let order = spectral_net_ordering(hg, IgWeighting::Paper, &Default::default())?;
    let mut matcher = SplitMatcher::new(&intersection_laplacian(hg, IgWeighting::Paper));
    let mut class = SplitClassification::default();

    println!("rank\tmatching\tcut\tratio");
    let m = hg.num_nets();
    for (k, &net) in order[..m - 1].iter().enumerate() {
        matcher.move_to_r(net.0);
        matcher.classify_into(&mut class);
        // Phase II, evaluated directly (clarity over speed here)
        let mut in_l: HashSet<ModuleId> = HashSet::new();
        let mut in_r: HashSet<ModuleId> = HashSet::new();
        for &w in &class.winners_l {
            in_l.extend(hg.pins(NetId(w)));
        }
        for &w in &class.winners_r {
            in_r.extend(hg.pins(NetId(w)));
        }
        let score = |free_left: bool| -> (usize, f64) {
            let sides: Vec<Side> = hg
                .modules()
                .map(|md| {
                    if in_l.contains(&md) {
                        Side::Left
                    } else if in_r.contains(&md) {
                        Side::Right
                    } else if free_left {
                        Side::Left
                    } else {
                        Side::Right
                    }
                })
                .collect();
            let stats = Bipartition::from_sides(sides).cut_stats(hg);
            (stats.cut_nets, stats.ratio())
        };
        let (cut_a, ratio_a) = score(true);
        let (cut_b, ratio_b) = score(false);
        let (cut, ratio) = if ratio_a <= ratio_b {
            (cut_a, ratio_a)
        } else {
            (cut_b, ratio_b)
        };
        if ratio.is_finite() {
            println!("{k}\t{}\t{cut}\t{ratio:.6e}", matcher.matching_size());
        }
    }
    Ok(())
}
