//! Workload inputs: generated from the seed, rendered to `.hgr` text.
//!
//! The program under test only ever sees the text. The batch instances
//! come from fixed generator configurations, and the seed shuffles the
//! order of the pins on every net line, so each seed hands the parser
//! different text for the same netlist. The instances themselves stay
//! fixed because every other seed-driven variation measured moves the
//! routes' cost or quality more than the regressions the benchmark must
//! resolve:
//!
//! * regenerating the nine circuits per seed spreads the suite's pass
//!   wall over 3.7–6.0 s and its objective by ±15%;
//! * relabeling modules keeps the intersection graph (it is indexed by
//!   nets) but changes the sweep's traversal order — Test02 takes 259 or
//!   450 ms depending on the numbering — and k-way refinement's
//!   tie-breaks (objective interquartile range 4.3% over ten numberings);
//! * V-cycle coarsening visits modules in index order, so a relabeled
//!   instance coarsens to a different coarsest level whose eigenvector
//!   sign — and with it the sweep direction — flips the wall by up to 2×.
//!
//! The serve workload draws its traffic from the seed; see `serve`.

use ig_match_repro::netlist::components::ModuleComponents;
use ig_match_repro::netlist::generate::{generate, mcnc_specs, GeneratorConfig};
use ig_match_repro::netlist::rng::{derive_seed, Rng64};
use ig_match_repro::netlist::{Hypergraph, HypergraphBuilder, ModuleId};
use std::fmt::Write;

/// One named input, as the program receives it.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Display name (`Prim2`, `band-3500`, ...).
    pub name: String,
    /// The netlist in hMETIS `.hgr` text.
    pub hgr: String,
}

/// Module count of the V-cycle workload's generated circuit and of its
/// connected banded netlist: just above the V-cycle's default coarsening
/// target of 3000, so each coarsens once. At 4000 the banded netlist's
/// coarsest-level Lanczos ran into its 3000-iteration cap and took 10–20 s
/// alone; at 3500 it converges after about 1100 products in 3–4 s, so a
/// pass fits four times into a run.
const CIRCUIT_MODULES: usize = 3_500;
const BAND_MODULES: usize = 3_500;
const CIRCUIT_SEED: u64 = 0x6C1C;
const BAND_SEED: u64 = 0xBA4D;
const BAND_WIDTH: usize = 16;

/// Renders `hg` as `.hgr` text with each net's pins in shuffled order.
pub fn render_hgr(hg: &Hypergraph, rng: &mut Rng64) -> String {
    let mut out = String::with_capacity(hg.num_pins() * 6 + 32);
    writeln!(out, "{} {}", hg.num_nets(), hg.num_modules()).expect("writing to a String");
    let mut pins: Vec<u32> = Vec::new();
    for net in hg.nets() {
        pins.clear();
        pins.extend(hg.pins(net).iter().map(|m| m.0));
        rng.shuffle(&mut pins);
        for (i, p) in pins.iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(out, "{sep}{}", p + 1).expect("writing to a String");
        }
        out.push('\n');
    }
    out
}

/// The nine circuits of paper Tables 2/3 (`mcnc_specs()`).
pub fn suite(seed: u64) -> Vec<Instance> {
    let mut rng = Rng64::new(derive_seed(seed, 0x5017));
    mcnc_specs()
        .into_iter()
        .map(|spec| Instance {
            name: spec.name.to_string(),
            hgr: render_hgr(&generate(&spec.config), &mut rng),
        })
        .collect()
}

/// The V-cycle pair: a generated circuit whose coarsest level is
/// sweep-heavy, and a connected banded netlist whose coarsest level is
/// Lanczos-heavy.
///
/// # Errors
///
/// When the banded netlist is not connected or leaves a module without a
/// pin — either would let a zero cut stand in for a real result.
pub fn vcycle_mix(seed: u64) -> Result<Vec<Instance>, String> {
    let circuit = generate(&GeneratorConfig::new(
        CIRCUIT_MODULES,
        CIRCUIT_MODULES * 11 / 10,
        CIRCUIT_SEED,
    ));
    let band = connected_band(BAND_SEED, BAND_MODULES, BAND_MODULES * 11 / 10, BAND_WIDTH)?;
    let mut rng = Rng64::new(derive_seed(seed, 0x7C7C));
    Ok(vec![
        Instance {
            name: format!("circuit-{CIRCUIT_MODULES}"),
            hgr: render_hgr(&circuit, &mut rng),
        },
        Instance {
            name: format!("band-{BAND_MODULES}"),
            hgr: render_hgr(&band, &mut rng),
        },
    ])
}

/// `np_testkit::banded_hypergraph` plus a two-pin net between every pair
/// of consecutive modules that lie in different components, which joins
/// the components into one chain and gives every module a pin.
///
/// # Errors
///
/// When the result is not connected or some module has no pin.
pub fn connected_band(
    seed: u64,
    modules: usize,
    nets: usize,
    band: usize,
) -> Result<Hypergraph, String> {
    let base = np_testkit::banded_hypergraph(seed, modules, nets, band);
    let components = ModuleComponents::compute(&base);
    let mut b = HypergraphBuilder::new(modules);
    for net in base.nets() {
        b.add_net(base.pins(net).iter().copied())
            .map_err(|e| e.to_string())?;
    }
    for i in 1..modules as u32 {
        let (prev, cur) = (ModuleId(i - 1), ModuleId(i));
        if components.label(prev) != components.label(cur) {
            b.add_net([prev, cur]).map_err(|e| e.to_string())?;
        }
    }
    let hg = b.finish().map_err(|e| e.to_string())?;
    if !ModuleComponents::compute(&hg).is_connected() {
        return Err("banded netlist is not connected".into());
    }
    if let Some(m) = hg.modules().find(|&m| hg.degree(m) == 0) {
        return Err(format!(
            "banded netlist leaves module {} without a pin",
            m.0
        ));
    }
    Ok(hg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ig_match_repro::netlist::io::parse_hgr;

    #[test]
    fn rendering_round_trips() {
        let hg = generate(&GeneratorConfig::new(120, 130, 3));
        let text = render_hgr(&hg, &mut Rng64::new(9));
        assert_eq!(parse_hgr(&text).unwrap(), hg, "pin order is not structure");
    }

    #[test]
    fn same_seed_same_text_other_seed_other_text() {
        let a = suite(1);
        assert_eq!(a.len(), 9);
        assert_eq!(a[0].hgr, suite(1)[0].hgr);
        let b = suite(2);
        assert_ne!(a[0].hgr, b[0].hgr);
        assert_eq!(parse_hgr(&a[0].hgr).unwrap(), parse_hgr(&b[0].hgr).unwrap());
    }

    #[test]
    fn connected_band_joins_components() {
        let raw = np_testkit::banded_hypergraph(5, 600, 660, 16);
        assert!(!ModuleComponents::compute(&raw).is_connected());
        let hg = connected_band(5, 600, 660, 16).unwrap();
        assert!(ModuleComponents::compute(&hg).is_connected());
        assert!(hg.modules().all(|m| hg.degree(m) > 0));
        assert!(hg.num_nets() > raw.num_nets());
    }
}
