//! Multi-way partitioning by recursive bipartition — the hierarchical
//! divide-and-conquer application that motivates the paper's introduction
//! (layout synthesis, hardware simulation and test all consume multi-block
//! decompositions).
//!
//! Uses the balanced k-way route ([`ig_match_repro::core::kway`]) to split
//! a suite circuit into `k` blocks and reports the block structure, the
//! number of nets multiplexed between blocks, and the per-block
//! external-net counts driving test-vector cost.
//!
//! ```text
//! cargo run --release --example multiway [benchmark-name] [k]
//! ```

use ig_match_repro::core::kway::{kway_partition, KwayMethod, KwayOptions};
use ig_match_repro::netlist::generate::mcnc_benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "Test02".into());
    let b = mcnc_benchmark(&name)
        .ok_or_else(|| format!("unknown benchmark '{name}' (try Prim2, Test05, ...)"))?;
    let hg = &b.hypergraph;
    // default: blocks of about 200 modules
    let k: usize = std::env::args()
        .nth(2)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or_else(|| hg.num_modules().div_ceil(200));

    let opts = KwayOptions {
        k,
        ..Default::default()
    };
    let out = kway_partition(hg, &opts, KwayMethod::Recursive)?;
    let mw = &out.partition;

    println!(
        "{}: {} modules, {} nets -> {} blocks ({})",
        b.name,
        hg.num_modules(),
        hg.num_nets(),
        mw.num_blocks(),
        out.stats
    );
    let mut sizes = mw.block_sizes();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!("block sizes: {sizes:?}");

    let crossing = mw.crossing_nets(hg);
    println!(
        "nets multiplexed between blocks: {crossing} / {} ({:.1}%)",
        hg.num_nets(),
        100.0 * crossing as f64 / hg.num_nets() as f64
    );

    let ext = mw.external_nets_per_block(hg);
    println!(
        "external nets per block (test-vector driver): min {} / median {} / max {}",
        ext.iter().min().unwrap(),
        {
            let mut e = ext.clone();
            e.sort_unstable();
            e[e.len() / 2]
        },
        ext.iter().max().unwrap()
    );

    let hist = mw.span_histogram(hg);
    println!("net span histogram (blocks touched -> nets):");
    for (span, count) in hist.iter().enumerate().filter(|(_, &c)| c > 0) {
        println!("  {span:>3} -> {count}");
    }
    Ok(())
}
