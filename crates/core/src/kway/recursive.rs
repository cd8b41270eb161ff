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
//! toward each side's proportional share of the budget. Each move takes
//! the best-gain free module from a per-side gain queue, in the order a
//! scan over the node would pick (see [`RepairQueue`]). The final k-way
//! repair in [`finalize`] is the hard guarantor of the
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
use np_sparse::BudgetMeter;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
        let child = RunContext::with_meter(ctx.meter()).with_threads(ctx.threads());
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

    let cap = area_cap(prep.bound);
    let mut queue = RepairQueue::new(local_hg, modules, &prep.free, &local_areas);
    repair(
        &mut tracker,
        &mut queue,
        (k_l, k_r),
        (cap * k_l as f64, cap * k_r as f64),
        total_local,
        ctx.meter(),
    )?;

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

/// Repairs a node's split on `tracker` once its pins sit on their sides.
/// First each side is topped up to at least as many modules as blocks it
/// must produce (`k`), then module area is nudged toward each side's
/// share (`cap`) of the budget, in at most as many moves as the node has
/// modules. Every move goes to the module `picker` names and is charged
/// one matvec-equivalent on `meter`. The final k-way repair enforces the
/// real bound; the nudge only keeps the recursion from handing a child
/// more area than its blocks can hold.
fn repair(
    tracker: &mut CutTracker<'_>,
    picker: &mut impl Picker,
    k: (usize, usize),
    cap: (f64, f64),
    total: f64,
    meter: &BudgetMeter,
) -> Result<(), PartitionError> {
    let (k_l, k_r) = k;
    loop {
        let stats = tracker.stats();
        let need = if stats.left < k_l {
            Side::Left
        } else if stats.right < k_r {
            Side::Right
        } else {
            break;
        };
        let Some(m) = picker.pick(tracker, need.flip(), f64::INFINITY) else {
            return Err(PartitionError::InvalidInput {
                reason: "pins leave too few free modules for a bisection level",
            });
        };
        meter.charge(1)?;
        picker.commit(tracker, m, need);
    }

    let (cap_l, cap_r) = cap;
    let stats = tracker.stats();
    for _ in 0..stats.left + stats.right {
        let stats = tracker.stats();
        let left_area = tracker.left_area();
        let right_area = total - left_area;
        let (from, room) = if left_area > cap_l && stats.left > k_l {
            (Side::Left, cap_r - right_area)
        } else if right_area > cap_r && stats.right > k_r {
            (Side::Right, cap_l - left_area)
        } else {
            break;
        };
        let Some(m) = picker.pick(tracker, from, room) else {
            break;
        };
        meter.charge(1)?;
        picker.commit(tracker, m, from.flip());
    }
    Ok(())
}

/// Chooses and makes the moves of a node [`repair`].
trait Picker {
    /// The free module on side `from` with the best move gain among those
    /// whose area fits `room`, the lowest local index among equal gains.
    fn pick(&mut self, tracker: &CutTracker<'_>, from: Side, room: f64) -> Option<ModuleId>;

    /// Moves `m` to side `to`.
    fn commit(&mut self, tracker: &mut CutTracker<'_>, m: ModuleId, to: Side);
}

/// A queue entry: a move gain, then the local index reversed, so a
/// max-heap pops the highest gain first and the lowest index among
/// equal gains.
type Entry = (i64, Reverse<u32>);

/// One node's free modules in gain order: one lazy max-heap per side.
///
/// The heaps are filled on the first [`pick`](Picker::pick), so a node
/// that needs no repair pays nothing. `gain` stays exact move by move
/// under Fiduccia–Mattheyses' critical-net rule: a net changes its pins'
/// gains only when its count on a side crosses 0, 1, |e|−1 or |e|, and
/// only those pins get a fresh entry. Entries are never removed in
/// place; one is stale, and dropped when popped, once its module has
/// changed side or gain.
///
/// A pick skips modules whose area exceeds `room`. While the nudge keeps
/// its direction, `room` only shrinks (areas are non-negative), so a
/// skipped entry is parked in `skipped` rather than re-examined; it goes
/// back into its heap when the direction flips.
struct RepairQueue<'a> {
    hg: &'a Hypergraph,
    modules: &'a [ModuleId],
    /// `free[global index]`: whether a module may move.
    free: &'a [bool],
    areas: &'a ModuleAreas,
    /// Move gain of each free local module, once seeded.
    gain: Vec<i64>,
    /// Entries by side: `heaps[0]` Left, `heaps[1]` Right.
    heaps: [BinaryHeap<Entry>; 2],
    seeded: bool,
    /// Entries popped from `skipped_from`'s heap that did not fit.
    skipped: Vec<Entry>,
    skipped_from: Side,
}

impl<'a> RepairQueue<'a> {
    fn new(
        hg: &'a Hypergraph,
        modules: &'a [ModuleId],
        free: &'a [bool],
        areas: &'a ModuleAreas,
    ) -> Self {
        RepairQueue {
            hg,
            modules,
            free,
            areas,
            gain: Vec::new(),
            heaps: [BinaryHeap::new(), BinaryHeap::new()],
            seeded: false,
            skipped: Vec::new(),
            skipped_from: Side::Left,
        }
    }

    fn is_free(&self, lm: usize) -> bool {
        self.free[self.modules[lm].index()]
    }

    /// Queues local module `i` on its side at its current gain.
    fn push(&mut self, tracker: &CutTracker<'_>, i: usize) {
        let side = tracker.side(ModuleId(i as u32));
        self.heaps[slot(side)].push((self.gain[i], Reverse(i as u32)));
    }

    /// Fills both heaps with every free module at its current gain.
    fn seed(&mut self, tracker: &CutTracker<'_>) {
        self.gain = vec![0; self.modules.len()];
        for i in 0..self.modules.len() {
            if self.is_free(i) {
                self.gain[i] = tracker.gain(ModuleId(i as u32));
                self.push(tracker, i);
            }
        }
        self.seeded = true;
    }

    /// Adds `delta` to the gain of local module `v`, if it is free, and
    /// queues it at its new gain.
    fn bump(&mut self, tracker: &CutTracker<'_>, v: ModuleId, delta: i64) {
        let i = v.index();
        if self.is_free(i) {
            self.gain[i] += delta;
            self.push(tracker, i);
        }
    }

    /// The one pin of `net` on `side` other than `except`.
    fn lone_pin(
        tracker: &CutTracker<'_>,
        pins: &[ModuleId],
        side: Side,
        except: ModuleId,
    ) -> ModuleId {
        *pins
            .iter()
            .find(|&&v| v != except && tracker.side(v) == side)
            .expect("net count names a pin on that side")
    }
}

impl Picker for RepairQueue<'_> {
    fn pick(&mut self, tracker: &CutTracker<'_>, from: Side, room: f64) -> Option<ModuleId> {
        if !self.seeded {
            self.seed(tracker);
        }
        if from != self.skipped_from {
            let heap = &mut self.heaps[slot(self.skipped_from)];
            heap.extend(self.skipped.drain(..));
            self.skipped_from = from;
        }
        let heap = &mut self.heaps[slot(from)];
        while let Some((g, Reverse(i))) = heap.pop() {
            let lm = ModuleId(i);
            if tracker.side(lm) != from || self.gain[i as usize] != g {
                continue;
            }
            if self.areas.area(lm) > room {
                self.skipped.push((g, Reverse(i)));
                continue;
            }
            return Some(lm);
        }
        None
    }

    fn commit(&mut self, tracker: &mut CutTracker<'_>, m: ModuleId, to: Side) {
        let from = to.flip();
        let hg = self.hg;
        for &net in hg.nets_of(m) {
            let pins = hg.pins(net);
            let size = pins.len() as u32;
            let left = tracker.left_pins(net);
            let (on_from, on_to) = match from {
                Side::Left => (left, size - left),
                Side::Right => (size - left, left),
            };
            // before the move: a net wholly on `from` stops costing its
            // pins a cut; a lone pin on `to` stops uncutting it
            if on_to == 0 {
                for &v in pins.iter().filter(|&&v| v != m) {
                    self.bump(tracker, v, 1);
                }
            } else if on_to == 1 {
                self.bump(tracker, Self::lone_pin(tracker, pins, to, m), -1);
            }
            // after the move: a net wholly on `to` costs its pins a cut;
            // a lone pin left on `from` would uncut it
            if on_from == 1 {
                for &v in pins.iter().filter(|&&v| v != m) {
                    self.bump(tracker, v, -1);
                }
            } else if on_from == 2 {
                self.bump(tracker, Self::lone_pin(tracker, pins, from, m), 1);
            }
        }
        tracker.move_module(m, to);
        let i = m.index();
        self.gain[i] = -self.gain[i];
        self.push(tracker, i);
    }
}

/// The heap of `side` in [`RepairQueue::heaps`].
fn slot(side: Side) -> usize {
    match side {
        Side::Left => 0,
        Side::Right => 1,
    }
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

    /// The per-move scan the gain queue replaced, kept as its oracle.
    struct Scan<'a> {
        modules: &'a [ModuleId],
        free: &'a [bool],
        areas: &'a ModuleAreas,
        /// Picks where `room` turned away a module that would have won.
        area_skips: usize,
    }

    impl Scan<'_> {
        fn best(&self, tracker: &CutTracker<'_>, from: Side, room: f64) -> Option<ModuleId> {
            let mut best: Option<(i64, ModuleId)> = None;
            for (i, &gm) in self.modules.iter().enumerate() {
                let lm = ModuleId(i as u32);
                if !self.free[gm.index()] || tracker.side(lm) != from || self.areas.area(lm) > room
                {
                    continue;
                }
                let g = tracker.gain(lm);
                if best.is_none_or(|(bg, _)| g > bg) {
                    best = Some((g, lm));
                }
            }
            best.map(|(_, lm)| lm)
        }
    }

    impl Picker for Scan<'_> {
        fn pick(&mut self, tracker: &CutTracker<'_>, from: Side, room: f64) -> Option<ModuleId> {
            let m = self.best(tracker, from, room);
            if m != self.best(tracker, from, f64::INFINITY) {
                self.area_skips += 1;
            }
            m
        }

        fn commit(&mut self, tracker: &mut CutTracker<'_>, m: ModuleId, to: Side) {
            tracker.move_module(m, to);
        }
    }

    /// Records the moves a picker makes; after each, `check` inspects it.
    struct Logged<P> {
        inner: P,
        moves: Vec<(ModuleId, Side)>,
        check: fn(&P, &CutTracker<'_>),
    }

    impl<P: Picker> Picker for Logged<P> {
        fn pick(&mut self, tracker: &CutTracker<'_>, from: Side, room: f64) -> Option<ModuleId> {
            self.inner.pick(tracker, from, room)
        }

        fn commit(&mut self, tracker: &mut CutTracker<'_>, m: ModuleId, to: Side) {
            self.inner.commit(tracker, m, to);
            self.moves.push((m, to));
            (self.check)(&self.inner, tracker);
        }
    }

    /// Every free module's queued gain equals its gain from scratch.
    fn gains_are_exact(q: &RepairQueue<'_>, tracker: &CutTracker<'_>) {
        for i in 0..q.modules.len() {
            if q.is_free(i) {
                assert_eq!(q.gain[i], tracker.gain(ModuleId(i as u32)), "module {i}");
            }
        }
    }

    /// Runs [`repair`] with `picker` on a copy of `tracker`: its result,
    /// the split it leaves and what it charged.
    fn run_repair(
        tracker: &CutTracker<'_>,
        picker: &mut impl Picker,
        k: (usize, usize),
        cap: (f64, f64),
        total: f64,
    ) -> (Result<(), PartitionError>, Bipartition, u64) {
        let mut t = tracker.clone();
        let meter = BudgetMeter::unlimited();
        let result = repair(&mut t, picker, k, cap, total, &meter);
        (result, t.to_partition(), meter.local_used())
    }

    #[test]
    fn gain_queue_repairs_exactly_like_the_scan() {
        use np_netlist::rng::Rng64;
        let mut rng = Rng64::new(0x0E9A);
        let (mut top_ups, mut pinned, mut area_skips, mut errors) = (0, 0, 0, 0);
        for trial in 0..240 {
            // a child of a bigger circuit: often disconnected, with wide
            // nets, sometimes one huge side (the 712:1 splits of
            // degenerate children), sometimes pins and macros
            let base_n = 20 + rng.gen_range(if trial == 0 { 800 } else { 120 });
            let base = generate(
                &GeneratorConfig::new(base_n, base_n + rng.gen_range(base_n), rng.next_u64())
                    .with_global_nets(rng.gen_range(3), (6, 40)),
            );
            let keep = (base_n / 2 + rng.gen_range(base_n / 2)).max(2);
            let mut picked = rng.sample_distinct(base_n, keep);
            picked.sort_unstable();
            let modules: Vec<ModuleId> = picked.iter().map(|&i| ModuleId(i as u32)).collect();
            let sub = induced_subhypergraph(&base, &modules);
            let hg = &sub.hypergraph;
            let n = modules.len();
            let lone = rng.gen_range(n);
            let split = match rng.gen_range(3) {
                0 => Bipartition::from_left_set(
                    n,
                    (0..n).filter(|&i| i != lone).map(|i| ModuleId(i as u32)),
                ),
                1 => Bipartition::from_left_set(n, [ModuleId(lone as u32)]),
                _ => Bipartition::from_left_set(
                    n,
                    (0..n)
                        .filter(|_| rng.gen_bool(0.5))
                        .map(|i| ModuleId(i as u32)),
                ),
            };
            let macros = rng.gen_bool(0.6);
            let areas = ModuleAreas::new(
                (0..n)
                    .map(|_| match macros {
                        true if rng.gen_bool(0.05) => 10.0 + 30.0 * rng.gen_f64(),
                        true => 0.5 + 1.5 * rng.gen_f64(),
                        false => 1.0,
                    })
                    .collect(),
            );
            let pin_share = [0.0, 0.0, 0.15, 0.9][rng.gen_range(4)];
            let mut free = vec![true; base_n];
            for &gm in &modules {
                if rng.gen_bool(pin_share) {
                    free[gm.index()] = false;
                    pinned += 1;
                }
            }
            let k_sub = 2 + rng.gen_range(7.min(n - 1));
            let k = (k_sub - k_sub / 2, k_sub / 2);
            let share = areas.total() * (0.8 + 0.6 * rng.gen_f64()) / k_sub as f64;
            let cap = (share * k.0 as f64, share * k.1 as f64);

            let mut tracker = CutTracker::from_partition(hg, &split);
            tracker.set_areas(&areas);
            let stats = tracker.stats();
            if stats.left < k.0 || stats.right < k.1 {
                top_ups += 1;
            }
            let mut queue = Logged {
                inner: RepairQueue::new(hg, &modules, &free, &areas),
                moves: Vec::new(),
                check: gains_are_exact,
            };
            let mut scan = Logged {
                inner: Scan {
                    modules: &modules,
                    free: &free,
                    areas: &areas,
                    area_skips: 0,
                },
                moves: Vec::new(),
                check: |_, _| {},
            };
            let got = run_repair(&tracker, &mut queue, k, cap, areas.total());
            let want = run_repair(&tracker, &mut scan, k, cap, areas.total());
            assert_eq!(
                queue.moves, scan.moves,
                "trial {trial}: move sequences differ"
            );
            assert_eq!(got, want, "trial {trial}");
            assert_eq!(got.2, queue.moves.len() as u64, "one charge per move");
            errors += usize::from(got.0.is_err());
            area_skips += scan.inner.area_skips;
        }
        // every path of the repair was exercised
        assert!(
            top_ups > 0 && pinned > 0 && area_skips > 0 && errors > 0,
            "top-ups {top_ups}, pinned {pinned}, area skips {area_skips}, errors {errors}"
        );
    }

    #[test]
    fn gain_queue_picks_like_the_scan_across_direction_flips() {
        // a repair never grows `room` without flipping direction, but it
        // may flip: walk random (direction, room) sequences that shrink
        // `room` while the direction holds and reset it on each flip
        use np_netlist::rng::Rng64;
        let mut rng = Rng64::new(0xF11B);
        let mut restored = 0;
        for _ in 0..60 {
            let n = 10 + rng.gen_range(150);
            let hg = generate(&GeneratorConfig::new(
                n,
                n + rng.gen_range(n),
                rng.next_u64(),
            ));
            let modules: Vec<ModuleId> = hg.modules().collect();
            let areas = ModuleAreas::new(
                (0..n)
                    .map(|_| match rng.gen_bool(0.1) {
                        true => 10.0 + 30.0 * rng.gen_f64(),
                        false => 0.5 + 1.5 * rng.gen_f64(),
                    })
                    .collect(),
            );
            let free: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.9)).collect();
            let split = Bipartition::from_left_set(
                n,
                (0..n)
                    .filter(|_| rng.gen_bool(0.5))
                    .map(|i| ModuleId(i as u32)),
            );
            let mut tracker = CutTracker::from_partition(&hg, &split);
            let mut queue = RepairQueue::new(&hg, &modules, &free, &areas);
            let mut scan = Scan {
                modules: &modules,
                free: &free,
                areas: &areas,
                area_skips: 0,
            };
            let (mut from, mut room) = (Side::Left, f64::INFINITY);
            for _ in 0..2 * n {
                if rng.gen_bool(0.2) {
                    from = from.flip();
                    room = 45.0 * rng.gen_f64();
                    restored += usize::from(!queue.skipped.is_empty());
                } else {
                    room *= 0.8 + 0.2 * rng.gen_f64();
                }
                let want = scan.pick(&tracker, from, room);
                assert_eq!(queue.pick(&tracker, from, room), want);
                if let Some(m) = want {
                    queue.commit(&mut tracker, m, from.flip());
                    gains_are_exact(&queue, &tracker);
                }
            }
        }
        assert!(restored > 0, "no flip found parked entries");
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
