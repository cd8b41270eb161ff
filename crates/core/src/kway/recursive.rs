//! Recursive bisection: the hybrid bipartition pipeline applied
//! divide-and-conquer until `k` blocks exist.
//!
//! Each node of the recursion splits a module subset into a Left half
//! that will hold `⌈k/2⌉` blocks and a Right half that will hold
//! `⌊k/2⌋`, using the exact IG-Match+FM pipeline from the bipartition
//! engine. The top-level node runs on the original hypergraph under the
//! caller's [`RunContext`] — sharing its operator cache, meter and event
//! sink — while deeper nodes run on [`induced_subhypergraph`] instances
//! under a derived context (same meter, seed and thread count, fresh
//! operator cache, since the cache memoizes exactly one hypergraph).
//!
//! After each bisection the node repairs the split on a 2-way
//! [`CutTracker`]: pinned modules are forced to the side whose block
//! range contains their target, each side is topped up to at least as
//! many modules as blocks it must produce, and module area is nudged
//! toward each side's proportional share of the budget. The final k-way
//! repair in [`finalize`](super::finalize) is the hard guarantor of the
//! `(1+ε)` bound; the per-node nudging just keeps the recursion from
//! painting itself into a corner.

use super::refine::area_cap;
use super::{bipartition_fast_path, finalize, prepare, trivial, KwayOptions, KwayResult, Prepared};
use crate::engine::{RunContext, Stage};
use crate::hybrid::hybrid_pipeline;
use crate::{PartitionError, PartitionResult};
use np_netlist::areas::ModuleAreas;
use np_netlist::induce::induced_subhypergraph;
use np_netlist::partition::CutTracker;
use np_netlist::{Bipartition, Hypergraph, KwayPartition, ModuleId, Side};

/// Runs recursive bisection to `opts.k` balanced blocks.
///
/// # Errors
///
/// The shared validation errors of
/// [`kway_partition_ctx`](super::kway_partition_ctx); additionally
/// [`PartitionError::InvalidInput`] when pins make some bisection level
/// unsatisfiable, and [`PartitionError::Budget`] when the meter trips.
pub fn kway_recursive_ctx(
    hg: &Hypergraph,
    opts: &KwayOptions,
    ctx: &RunContext<'_>,
) -> Result<KwayResult, PartitionError> {
    let prep = prepare(hg, opts)?;
    if opts.k == 1 {
        return Ok(trivial(hg));
    }
    if opts.k == 2 && prep.fixed.pinned_count() == 0 {
        return bipartition_fast_path(hg, opts, &prep, ctx);
    }
    let mut block_of = vec![0u32; hg.num_modules()];
    let all: Vec<ModuleId> = hg.modules().collect();
    split(hg, &all, 0, opts.k, opts, &prep, ctx, &mut block_of, true)?;
    let partition = KwayPartition::with_num_blocks(block_of, opts.k);
    finalize(hg, partition, opts, &prep, ctx)
}

/// One recursion node: assign blocks `lo .. lo + k_sub` to `modules`.
#[allow(clippy::too_many_arguments)]
fn split(
    hg: &Hypergraph,
    modules: &[ModuleId],
    lo: usize,
    k_sub: usize,
    opts: &KwayOptions,
    prep: &Prepared,
    ctx: &RunContext<'_>,
    block_of: &mut [u32],
    top: bool,
) -> Result<(), PartitionError> {
    if k_sub == 1 {
        for &m in modules {
            block_of[m.index()] = lo as u32;
        }
        return Ok(());
    }
    let k_l = k_sub - k_sub / 2;
    let k_r = k_sub / 2;
    let n_sub = modules.len();
    debug_assert!(n_sub >= k_sub, "recursion invariant: enough modules");

    // Run the bipartition pipeline — on the original hypergraph under the
    // caller's context at the top, on an induced sub-instance under a
    // derived context (fresh operator cache) deeper down.
    let pipeline = hybrid_pipeline(&opts.hybrid());
    let storage;
    let (local_hg, run_result): (&Hypergraph, Result<PartitionResult, PartitionError>) = if top {
        (hg, pipeline.run(hg, None, ctx))
    } else {
        storage = induced_subhypergraph(hg, modules);
        let child = RunContext::with_meter(ctx.meter())
            .with_seed(ctx.seed())
            .with_threads(ctx.threads());
        let r = pipeline.run(&storage.hypergraph, None, &child);
        (&storage.hypergraph, r)
    };
    let local_part = match run_result {
        Ok(r) => r.partition,
        Err(e) => degrade(e, n_sub, k_l, k_sub, ctx)?,
    };

    let mut tracker = CutTracker::from_partition(local_hg, &local_part);
    let local_areas = ModuleAreas::new(modules.iter().map(|&m| prep.areas.area(m)).collect());
    let total_local = local_areas.total();
    tracker.set_areas(&local_areas);

    // Force every pinned module to the side whose block range holds its
    // target.
    for (i, &gm) in modules.iter().enumerate() {
        if let Some(b) = prep.fixed.block_of(gm) {
            debug_assert!(
                b >= lo && b < lo + k_sub,
                "pin routed into the wrong subtree"
            );
            let want = if b < lo + k_l {
                Side::Left
            } else {
                Side::Right
            };
            let lm = ModuleId(i as u32);
            if tracker.side(lm) != want {
                tracker.move_module(lm, want);
            }
        }
    }

    // Top up each side to at least as many modules as blocks it must
    // produce, moving the best-gain free module across.
    loop {
        let stats = tracker.stats();
        let need = if stats.left < k_l {
            Side::Left
        } else if stats.right < k_r {
            Side::Right
        } else {
            break;
        };
        let from = need.flip();
        let Some(m) = best_move(&tracker, modules, prep, &local_areas, from, f64::INFINITY) else {
            return Err(PartitionError::InvalidInput {
                reason: "pins leave too few free modules for a bisection level",
            });
        };
        ctx.meter().charge(1)?;
        tracker.move_module(m, need);
    }

    // Best-effort area nudge toward each side's share of the budget. The
    // final k-way repair enforces the real bound; this only prevents the
    // recursion from handing a child more area than its blocks can hold.
    let cap_l = area_cap(prep.bound) * k_l as f64;
    let cap_r = area_cap(prep.bound) * k_r as f64;
    for _ in 0..n_sub {
        let stats = tracker.stats();
        let left_area = tracker.left_area();
        let right_area = total_local - left_area;
        let (from, room) = if left_area > cap_l && stats.left > k_l {
            (Side::Left, cap_r - right_area)
        } else if right_area > cap_r && stats.right > k_r {
            (Side::Right, cap_l - left_area)
        } else {
            break;
        };
        let Some(m) = best_move(&tracker, modules, prep, &local_areas, from, room) else {
            break;
        };
        ctx.meter().charge(1)?;
        tracker.move_module(m, from.flip());
    }

    // Recurse on the two sides in global module ids.
    let stats = tracker.stats();
    let p = tracker.to_partition();
    let mut left_mods = Vec::with_capacity(stats.left);
    let mut right_mods = Vec::with_capacity(stats.right);
    for (i, &gm) in modules.iter().enumerate() {
        match p.side(ModuleId(i as u32)) {
            Side::Left => left_mods.push(gm),
            Side::Right => right_mods.push(gm),
        }
    }
    drop(tracker);
    split(hg, &left_mods, lo, k_l, opts, prep, ctx, block_of, false)?;
    split(
        hg,
        &right_mods,
        lo + k_l,
        k_r,
        opts,
        prep,
        ctx,
        block_of,
        false,
    )
}

/// The free module on side `from` with the best move gain among those
/// whose area fits `room`, the lowest local index among equal gains.
fn best_move(
    tracker: &CutTracker<'_>,
    modules: &[ModuleId],
    prep: &Prepared,
    local_areas: &ModuleAreas,
    from: Side,
    room: f64,
) -> Option<ModuleId> {
    let mut best: Option<(i64, ModuleId)> = None;
    for (i, &gm) in modules.iter().enumerate() {
        let lm = ModuleId(i as u32);
        if !prep.free[gm.index()] || tracker.side(lm) != from || local_areas.area(lm) > room {
            continue;
        }
        let g = tracker.gain(lm);
        if best.is_none_or(|(bg, _)| g > bg) {
            best = Some((g, lm));
        }
    }
    best.map(|(_, lm)| lm)
}

/// What a bisection does when the pipeline fails on its (sub-)instance.
/// Budget exhaustion is fatal wherever it surfaced (including inside the
/// eigensolver); anything else degrades to a deterministic contiguous
/// split that repair can work with: the first `⌊n·k_l/k⌋` modules
/// (clamped so each side can still host its blocks) go Left.
pub(super) fn degrade(
    err: PartitionError,
    n_sub: usize,
    k_l: usize,
    k_sub: usize,
    ctx: &RunContext<'_>,
) -> Result<Bipartition, PartitionError> {
    ctx.meter().check()?;
    if let PartitionError::Budget(_) = err {
        return Err(err);
    }
    let left_n = (n_sub * k_l / k_sub).clamp(k_l, n_sub - (k_sub - k_l));
    Ok(Bipartition::from_left_set(
        n_sub,
        (0..left_n).map(|i| ModuleId(i as u32)),
    ))
}

#[cfg(test)]
mod tests {
    use super::super::{kway_partition, KwayMethod};
    use super::*;
    use np_netlist::generate::{generate, GeneratorConfig};
    use np_netlist::FixedModules;
    use np_sparse::BudgetMeter;

    fn circuit() -> Hypergraph {
        generate(&GeneratorConfig::new(180, 200, 0x5EED))
    }

    fn assert_contract(hg: &Hypergraph, out: &KwayResult, k: usize, epsilon: f64) {
        assert_eq!(out.partition.num_blocks(), k);
        assert!(out.partition.block_sizes().iter().all(|&s| s > 0));
        let bound = np_netlist::balance_bound(hg.num_modules() as f64, k, epsilon);
        for &s in &out.stats.block_sizes {
            assert!(s as f64 <= area_cap(bound), "block of {s} exceeds {bound}");
        }
        assert_eq!(out.stats, out.partition.cut_stats(hg));
    }

    #[test]
    fn four_way_balanced() {
        let hg = circuit();
        let opts = KwayOptions {
            k: 4,
            epsilon: 0.3,
            ..Default::default()
        };
        let out = kway_partition(&hg, &opts, KwayMethod::Recursive).unwrap();
        assert_eq!(out.algorithm, "kway-recursive");
        assert_contract(&hg, &out, 4, 0.3);
    }

    #[test]
    fn non_power_of_two_k() {
        let hg = circuit();
        for k in [3, 5, 7] {
            let opts = KwayOptions {
                k,
                epsilon: 0.5,
                ..Default::default()
            };
            let out = kway_partition(&hg, &opts, KwayMethod::Recursive).unwrap();
            assert_contract(&hg, &out, k, 0.5);
        }
    }

    #[test]
    fn pins_are_respected() {
        let hg = circuit();
        let mut fixed = FixedModules::free(hg.num_modules());
        fixed.pin(ModuleId(0), 3);
        fixed.pin(ModuleId(1), 3);
        fixed.pin(ModuleId(17), 0);
        fixed.pin(ModuleId(99), 2);
        let opts = KwayOptions {
            k: 4,
            epsilon: 0.5,
            fixed: Some(fixed.clone()),
            ..Default::default()
        };
        let out = kway_partition(&hg, &opts, KwayMethod::Recursive).unwrap();
        assert_contract(&hg, &out, 4, 0.5);
        for (m, b) in fixed.pins() {
            assert_eq!(out.partition.block_of(m), b, "pin on {m} moved");
        }
    }

    #[test]
    fn degenerate_netless_subinstances_fall_back() {
        // A single net among 9 modules: every sub-instance past the first
        // split is essentially netless, exercising the fallback split.
        let hg = np_netlist::hypergraph_from_nets(9, &[vec![0, 1]]);
        let opts = KwayOptions {
            k: 3,
            epsilon: 0.5,
            ..Default::default()
        };
        let out = kway_partition(&hg, &opts, KwayMethod::Recursive).unwrap();
        assert_contract(&hg, &out, 3, 0.5);
    }

    #[test]
    fn zero_budget_trips() {
        let hg = circuit();
        let meter = BudgetMeter::new(&np_sparse::Budget::default().with_matvecs(0));
        let ctx = RunContext::with_meter(&meter);
        let opts = KwayOptions {
            k: 4,
            epsilon: 0.5,
            ..Default::default()
        };
        assert!(matches!(
            kway_recursive_ctx(&hg, &opts, &ctx),
            Err(PartitionError::Budget(_))
        ));
    }
}
