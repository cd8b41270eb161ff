//! Multilevel benchmark: flat hybrid pipeline vs the
//! coarsen/partition/uncoarsen V-cycle across the `np-testkit` band
//! ladder, emitting a JSON record (`BENCH_multilevel.json` by default).
//! CI runs this to track the V-cycle's scaling win: at the large rungs
//! the V-cycle must finish instances the flat spectral pipeline cannot
//! complete inside `FLAT_BUDGET_FACTOR` times the V-cycle's own wall,
//! while staying close to flat quality where flat is feasible (the
//! band-S/M closeness is asserted inline).
//!
//! The flat arm *is* the V-cycle with `coarsen_target` above the module
//! count: with zero coarsening levels the entry point is bit-identical
//! to the flat hybrid pipeline (the debug-mode oracle contract of
//! DESIGN.md §14), so one code path serves both arms.
//!
//! ```text
//! cargo run --release -p bench --bin multilevel [-- OUT.json]
//! ```

use bench::{per_sec, timed};
use np_core::engine::RunContext;
use np_multilevel::{multilevel_ctx, MultilevelOptions};
use np_runner::json::Obj;
use np_sparse::{Budget, BudgetMeter};
use np_testkit::band_ladder;
use std::time::Duration;

/// Largest rung the benchmark attempts; band-XXL (10⁶ modules) exists
/// for stress runs, not for the CI wall-clock budget.
const MAX_MODULES: usize = 200_000;

/// Wall budget granted to the flat arm, as a multiple of the V-cycle's
/// measured wall. Failing to finish within this bound is a *stronger*
/// statement than failing within the same budget.
const FLAT_BUDGET_FACTOR: u32 = 5;

/// Floor on the flat arm's budget so millisecond-scale V-cycle walls on
/// the small rungs don't turn scheduler noise into spurious timeouts.
const FLAT_BUDGET_FLOOR: Duration = Duration::from_secs(2);

/// Rungs at or below this module count must land within 10% of flat
/// quality (the band-S/M acceptance bar).
const QUALITY_BAR_MODULES: usize = 10_000;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_multilevel.json".to_string());
    let mut rows = Vec::new();
    for spec in band_ladder() {
        if spec.modules > MAX_MODULES {
            eprintln!(
                "skipping {} ({} modules > {MAX_MODULES})",
                spec.name, spec.modules
            );
            continue;
        }
        let hg = spec.build();
        let opts = MultilevelOptions::default();
        // Meter the V-cycle arm so the record carries a throughput
        // counter: matvec-equivalents charged across the whole cycle
        // (eigensolve matvecs, coarsening levels, FM passes) per second.
        let vcycle_meter = BudgetMeter::unlimited();
        let (ml, ml_wall) = timed(|| {
            let ctx = RunContext::with_meter(&vcycle_meter);
            multilevel_ctx(&hg, &opts, &ctx).expect("V-cycle")
        });
        let matvecs = vcycle_meter.matvecs_used();
        let flat_opts = MultilevelOptions {
            coarsen_target: usize::MAX,
            ..opts
        };
        let flat_budget = (ml_wall * FLAT_BUDGET_FACTOR).max(FLAT_BUDGET_FLOOR);
        let budget = Budget::UNLIMITED.with_wall_clock(flat_budget);
        let (flat, flat_wall) = timed(|| {
            let meter = BudgetMeter::new(&budget);
            let ctx = RunContext::with_meter(&meter);
            multilevel_ctx(&hg, &flat_opts, &ctx)
        });
        let ml_ms = ml_wall.as_secs_f64() * 1e3;
        let flat_ms = flat_wall.as_secs_f64() * 1e3;
        let mut entry = Obj::new()
            .str("name", spec.name)
            .int("modules", spec.modules as u64)
            .int("nets", spec.nets as u64)
            .int("levels", ml.levels as u64)
            .int("coarsest_modules", ml.coarsest_modules as u64)
            .int("coarse_cut", ml.coarse_cut as u64)
            .int("vcycle_cut", ml.result.stats.cut_nets as u64)
            .num("vcycle_ratio", ml.result.ratio())
            .num("vcycle_ms", ml_ms)
            .int("matvecs", matvecs)
            // canonical throughput field: the headline (fast-arm) rate
            // every bench record carries under the same key
            .num("matvecs_per_sec", per_sec(matvecs as usize, ml_wall))
            .num("flat_budget_ms", flat_budget.as_secs_f64() * 1e3)
            .int("flat_completed", flat.is_ok() as u64);
        match flat {
            Ok(f) => {
                let quality_delta =
                    (ml.result.ratio() - f.result.ratio()) / f.result.ratio().max(1e-300);
                if spec.modules <= QUALITY_BAR_MODULES {
                    assert!(
                        quality_delta <= 0.10,
                        "{}: V-cycle ratio {:.3e} is more than 10% above flat {:.3e}",
                        spec.name,
                        ml.result.ratio(),
                        f.result.ratio()
                    );
                }
                println!(
                    "{:<8} {:>7} modules: V-cycle {ml_ms:>9.1} ms ({} levels, cut {})  \
                     flat {flat_ms:>9.1} ms (cut {})  quality delta {:+.1}%",
                    spec.name,
                    spec.modules,
                    ml.levels,
                    ml.result.stats.cut_nets,
                    f.result.stats.cut_nets,
                    quality_delta * 100.0
                );
                entry = entry
                    .int("flat_cut", f.result.stats.cut_nets as u64)
                    .num("flat_ratio", f.result.ratio())
                    .num("flat_ms", flat_ms)
                    .num("quality_delta_pct", quality_delta * 100.0)
                    .num("wall_speedup", flat_ms / ml_ms.max(1e-9));
            }
            Err(e) => {
                println!(
                    "{:<8} {:>7} modules: V-cycle {ml_ms:>9.1} ms ({} levels, cut {})  \
                     flat DNF within {:.1} ms ({e})",
                    spec.name,
                    spec.modules,
                    ml.levels,
                    ml.result.stats.cut_nets,
                    flat_budget.as_secs_f64() * 1e3
                );
                entry = entry.str("flat_error", &e.to_string());
            }
        }
        rows.push(entry);
    }
    bench::write(&out_path, &bench::record("multilevel", "v-cycle", &rows));
}
