//! Fiduccia–Mattheyses iterative improvement with gain buckets.
//!
//! A pass tentatively moves every module exactly once, always picking the
//! highest-gain unlocked module whose move respects the balance
//! constraint, then rewinds to the best prefix of the move sequence
//! (minimum cut, ties broken toward balance). Passes repeat until one
//! fails to improve. The bucket list makes each pass `O(pins)` in the
//! number of bucket operations, as in the original paper \[7\].
//!
//! The same machinery, re-targeted at the ratio-cut objective and freed
//! from the balance constraint, powers the [`rcut`](mod@crate::rcut) stand-in
//! for Wei–Cheng's RCut1.0.

use np_netlist::partition::CutTracker;
use np_netlist::{Bipartition, Hypergraph, ModuleId, Side};
use np_sparse::{BudgetExceeded, BudgetMeter};

const NONE: u32 = u32::MAX;

/// What the best-prefix rewind optimizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PrefixObjective {
    /// Minimum net cut (classic FM).
    Cut,
    /// Minimum ratio cut (Wei–Cheng shifting).
    Ratio,
    /// Minimum area-weighted ratio cut; requires the tracker to carry
    /// module areas (`CutTracker::set_areas`).
    AreaRatio,
}

impl PrefixObjective {
    /// The objective value of `tracker`'s current partition.
    fn score(self, tracker: &CutTracker<'_>) -> f64 {
        match self {
            PrefixObjective::Cut => tracker.cut_nets() as f64,
            PrefixObjective::Ratio => tracker.ratio(),
            PrefixObjective::AreaRatio => tracker.area_ratio(),
        }
    }
}

/// Options for [`fm_bisect`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FmOptions {
    /// Maximum imbalance as a fraction of the module count: the left block
    /// must stay within `n/2 ± balance_tolerance·n/2` modules
    /// (plus slack of one module for odd `n`), and never empties either
    /// side.
    pub balance_tolerance: f64,
    /// Upper bound on improvement passes.
    pub max_passes: usize,
}

impl Default for FmOptions {
    fn default() -> Self {
        FmOptions {
            balance_tolerance: 0.1,
            max_passes: 20,
        }
    }
}

/// Result of an FM run.
#[derive(Clone, Debug, PartialEq)]
pub struct FmResult {
    /// The improved partition.
    pub partition: Bipartition,
    /// Net cut of `partition`.
    pub cut_nets: usize,
    /// Number of improvement passes performed (including the final
    /// non-improving one).
    pub passes: usize,
}

/// Runs Fiduccia–Mattheyses passes from `initial` until no pass improves
/// the cut.
///
/// # Panics
///
/// Panics if `initial.len() != hg.num_modules()` or if the balance window
/// excludes the initial partition *and* every reachable one (tolerance so
/// tight no module may move); a zero-module hypergraph is rejected by
/// construction.
///
/// # Example
///
/// ```
/// use np_baselines::{fm_bisect, FmOptions};
/// use np_netlist::{hypergraph_from_nets, Bipartition, ModuleId};
///
/// let hg = hypergraph_from_nets(
///     6,
///     &[vec![0, 1], vec![1, 2], vec![0, 2], vec![3, 4], vec![4, 5], vec![3, 5], vec![2, 3]],
/// );
/// // deliberately bad start: interleaved
/// let start = Bipartition::from_left_set(6, [ModuleId(0), ModuleId(3), ModuleId(4)]);
/// let r = fm_bisect(&hg, &start, &FmOptions::default());
/// assert_eq!(r.cut_nets, 1); // recovers the natural bisection
/// ```
pub fn fm_bisect(hg: &Hypergraph, initial: &Bipartition, opts: &FmOptions) -> FmResult {
    fm_bisect_metered(hg, initial, opts, &BudgetMeter::unlimited())
        .expect("unlimited meter never trips")
}

/// [`fm_bisect`] with cooperative budget enforcement: `meter` is checked
/// before every improvement pass (a pass is `O(pins)` bucket work, so the
/// overshoot past a tripped budget is bounded by one pass).
///
/// One FM pass is charged as one matvec-equivalent so matvec-capped
/// budgets bound FM work too.
///
/// # Errors
///
/// [`BudgetExceeded`] when the meter reports a limit hit; the partition
/// state reached so far is discarded (use [`fm_bisect_anytime`] to keep
/// it).
///
/// # Panics
///
/// Same as [`fm_bisect`].
pub fn fm_bisect_metered(
    hg: &Hypergraph,
    initial: &Bipartition,
    opts: &FmOptions,
    meter: &BudgetMeter,
) -> Result<FmResult, BudgetExceeded> {
    match fm_bisect_anytime(hg, initial, opts, meter) {
        (result, None) => Ok(result),
        (_, Some(tripped)) => Err(tripped),
    }
}

/// [`fm_bisect_metered`] that keeps its progress: when `meter` trips, the
/// best partition reached so far (at worst `initial`) is returned together
/// with the trip. Every completed pass only keeps or lowers the cut, so
/// the partition held at any pass boundary is the best seen.
///
/// # Panics
///
/// Same as [`fm_bisect`].
pub fn fm_bisect_anytime(
    hg: &Hypergraph,
    initial: &Bipartition,
    opts: &FmOptions,
    meter: &BudgetMeter,
) -> (FmResult, Option<BudgetExceeded>) {
    let n = hg.num_modules();
    assert_eq!(initial.len(), n, "partition size mismatch");
    let half = n as f64 / 2.0;
    let slack = (opts.balance_tolerance * half).ceil() as i64 + 1;
    // never empty a side: the window stays inside `1..=n−1`
    let min_left = ((half as i64) - slack).max(1) as usize;
    let max_left = (((half.ceil()) as i64) + slack).min(n as i64 - 1).max(0) as usize;

    let mut tracker = CutTracker::from_partition(hg, initial);
    let mut passes = 0usize;
    let mut tripped = None;
    while passes < opts.max_passes {
        if let Err(e) = meter.charge(1) {
            tripped = Some(e);
            break;
        }
        passes += 1;
        let improved = run_pass(hg, &mut tracker, min_left, max_left, PrefixObjective::Cut);
        if !improved {
            break;
        }
    }
    let result = FmResult {
        partition: tracker.to_partition(),
        cut_nets: tracker.cut_nets(),
        passes,
    };
    (result, tripped)
}

/// Doubly-linked gain bucket lists for one side of the partition.
struct GainBuckets {
    /// `heads[g + offset]` = first module with gain `g`, or `NONE`.
    heads: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
    gain: Vec<i64>,
    present: Vec<bool>,
    offset: i64,
    /// Upper bound hint for the highest non-empty bucket.
    top: i64,
    len: usize,
}

impl GainBuckets {
    fn new(num_modules: usize, max_gain: i64) -> Self {
        GainBuckets {
            heads: vec![NONE; (2 * max_gain + 1) as usize],
            next: vec![NONE; num_modules],
            prev: vec![NONE; num_modules],
            gain: vec![0; num_modules],
            present: vec![false; num_modules],
            offset: max_gain,
            top: -max_gain,
            len: 0,
        }
    }

    fn insert(&mut self, m: u32, gain: i64) {
        debug_assert!(!self.present[m as usize]);
        let slot = (gain + self.offset) as usize;
        self.gain[m as usize] = gain;
        self.prev[m as usize] = NONE;
        self.next[m as usize] = self.heads[slot];
        if self.heads[slot] != NONE {
            self.prev[self.heads[slot] as usize] = m;
        }
        self.heads[slot] = m;
        self.present[m as usize] = true;
        self.top = self.top.max(gain);
        self.len += 1;
    }

    fn remove(&mut self, m: u32) {
        debug_assert!(self.present[m as usize]);
        let (p, nx) = (self.prev[m as usize], self.next[m as usize]);
        if p != NONE {
            self.next[p as usize] = nx;
        } else {
            let slot = (self.gain[m as usize] + self.offset) as usize;
            self.heads[slot] = nx;
        }
        if nx != NONE {
            self.prev[nx as usize] = p;
        }
        self.present[m as usize] = false;
        self.len -= 1;
    }

    fn update(&mut self, m: u32, new_gain: i64) {
        if self.present[m as usize] && self.gain[m as usize] != new_gain {
            self.remove(m);
            self.insert(m, new_gain);
        }
    }

    /// Highest-gain module, if any (refreshing the `top` hint).
    fn peek_best(&mut self) -> Option<(u32, i64)> {
        if self.len == 0 {
            return None;
        }
        while self.heads[(self.top + self.offset) as usize] == NONE {
            self.top -= 1;
        }
        Some((self.heads[(self.top + self.offset) as usize], self.top))
    }
}

/// One bucket list per side, seeded with every module's current gain.
fn seed_buckets(hg: &Hypergraph, tracker: &CutTracker<'_>) -> (GainBuckets, GainBuckets) {
    let n = hg.num_modules();
    let max_gain = hg
        .modules()
        .map(|m| hg.degree(m) as i64)
        .max()
        .unwrap_or(0)
        .max(1);
    let mut left = GainBuckets::new(n, max_gain);
    let mut right = GainBuckets::new(n, max_gain);
    for m in hg.modules() {
        let g = tracker.gain(m);
        match tracker.side(m) {
            Side::Left => left.insert(m.0, g),
            Side::Right => right.insert(m.0, g),
        }
    }
    (left, right)
}

/// Refreshes the gains of the unlocked modules on the nets of `moved`.
fn refresh_gains(
    hg: &Hypergraph,
    tracker: &CutTracker<'_>,
    moved: ModuleId,
    locked: &[bool],
    left: &mut GainBuckets,
    right: &mut GainBuckets,
) {
    for &net in hg.nets_of(moved) {
        for &p in hg.pins(net) {
            if locked[p.index()] {
                continue;
            }
            let g = tracker.gain(p);
            match tracker.side(p) {
                Side::Left => left.update(p.0, g),
                Side::Right => right.update(p.0, g),
            }
        }
    }
}

/// Undoes `moves`, last first.
fn rewind(tracker: &mut CutTracker<'_>, moves: &[ModuleId]) {
    for &m in moves.iter().rev() {
        let side = tracker.side(m);
        tracker.move_module(m, side.flip());
    }
}

/// One *group-swapping* pass: moves are forced to alternate sides, so the
/// tentative sequence explores pairwise exchanges rather than one-sided
/// shifts (the second ingredient of Wei–Cheng's RCut recipe). Returns
/// `true` if the objective improved.
pub(crate) fn run_swap_pass(
    hg: &Hypergraph,
    tracker: &mut CutTracker<'_>,
    objective: PrefixObjective,
) -> bool {
    let n = hg.num_modules();
    let (mut left, mut right) = seed_buckets(hg, tracker);
    let initial_score = objective.score(tracker);
    let mut best_score = initial_score;
    let mut best_prefix = 0usize;
    let mut moves: Vec<ModuleId> = Vec::with_capacity(n);
    let mut locked = vec![false; n];
    let mut take_from = if tracker.stats().left * 2 >= n {
        Side::Left
    } else {
        Side::Right
    };
    loop {
        let stats = tracker.stats();
        let (bucket, dest, side_count) = match take_from {
            Side::Left => (&mut left, Side::Right, stats.left),
            Side::Right => (&mut right, Side::Left, stats.right),
        };
        if side_count <= 1 {
            break; // never empty a side
        }
        let Some((m, _)) = bucket.peek_best() else {
            break;
        };
        bucket.remove(m);
        locked[m as usize] = true;
        let module = ModuleId(m);
        tracker.move_module(module, dest);
        moves.push(module);
        refresh_gains(hg, tracker, module, &locked, &mut left, &mut right);
        // only evaluate after each completed pair (a swap)
        if moves.len().is_multiple_of(2) {
            let s = objective.score(tracker);
            if s < best_score {
                best_score = s;
                best_prefix = moves.len();
            }
        }
        take_from = take_from.flip();
    }
    rewind(tracker, &moves[best_prefix..]);
    best_score < initial_score
}

/// One FM pass over `tracker`. Returns `true` if the objective improved.
///
/// `min_left..=max_left` bounds the left block size throughout the move
/// sequence.
pub(crate) fn run_pass(
    hg: &Hypergraph,
    tracker: &mut CutTracker<'_>,
    min_left: usize,
    max_left: usize,
    objective: PrefixObjective,
) -> bool {
    let n = hg.num_modules();
    let (mut left, mut right) = seed_buckets(hg, tracker);
    let initial_score = objective.score(tracker);
    let mut best_score = initial_score;
    let mut best_prefix = 0usize;
    let mut best_balance = tracker.stats().left.abs_diff(tracker.stats().right);
    let mut moves: Vec<ModuleId> = Vec::with_capacity(n);
    let mut locked = vec![false; n];

    loop {
        let left_count = tracker.stats().left;
        let can_from_left = left_count > min_left && left.len > 0;
        let can_from_right = left_count < max_left && right.len > 0;
        let choice = match (can_from_left, can_from_right) {
            (false, false) => break,
            (true, false) => Side::Left,
            (false, true) => Side::Right,
            (true, true) => {
                let gl = left.peek_best().map(|(_, g)| g).unwrap_or(i64::MIN);
                let gr = right.peek_best().map(|(_, g)| g).unwrap_or(i64::MIN);
                if gl > gr {
                    Side::Left
                } else if gr > gl {
                    Side::Right
                } else if left_count * 2 >= n {
                    Side::Left
                } else {
                    Side::Right
                }
            }
        };
        let (bucket, dest) = match choice {
            Side::Left => (&mut left, Side::Right),
            Side::Right => (&mut right, Side::Left),
        };
        let (m, _) = bucket.peek_best().expect("chosen side has candidates");
        bucket.remove(m);
        locked[m as usize] = true;
        let module = ModuleId(m);
        tracker.move_module(module, dest);
        moves.push(module);
        refresh_gains(hg, tracker, module, &locked, &mut left, &mut right);

        let s = objective.score(tracker);
        let balance = tracker.stats().left.abs_diff(tracker.stats().right);
        if s < best_score || (s == best_score && balance < best_balance) {
            best_score = s;
            best_prefix = moves.len();
            best_balance = balance;
        }
    }

    rewind(tracker, &moves[best_prefix..]);
    best_score < initial_score
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_netlist::hypergraph_from_nets;
    use np_netlist::rng::Rng64;

    fn two_triangles() -> Hypergraph {
        hypergraph_from_nets(
            6,
            &[
                vec![0, 1],
                vec![1, 2],
                vec![0, 2],
                vec![3, 4],
                vec![4, 5],
                vec![3, 5],
                vec![2, 3],
            ],
        )
    }

    #[test]
    fn recovers_natural_bisection_from_bad_start() {
        let hg = two_triangles();
        let start = Bipartition::from_left_set(6, [ModuleId(0), ModuleId(3), ModuleId(4)]);
        let r = fm_bisect(&hg, &start, &FmOptions::default());
        assert_eq!(r.cut_nets, 1);
        assert_eq!(r.partition.cut_stats(&hg).cut_nets, 1);
    }

    #[test]
    fn never_worsens_the_cut() {
        let hg = two_triangles();
        let mut rng = Rng64::new(5);
        for _ in 0..20 {
            let left = (0..6u32).filter(|_| rng.gen_bool(0.5)).map(ModuleId);
            let start = Bipartition::from_left_set(6, left);
            let before = start.cut_stats(&hg).cut_nets;
            let r = fm_bisect(&hg, &start, &FmOptions::default());
            assert!(r.cut_nets <= before, "{} > {before}", r.cut_nets);
        }
    }

    #[test]
    fn respects_balance_window() {
        let hg = two_triangles();
        let start = Bipartition::from_left_set(6, [ModuleId(0), ModuleId(1), ModuleId(2)]);
        let opts = FmOptions {
            balance_tolerance: 0.0,
            ..Default::default()
        };
        let r = fm_bisect(&hg, &start, &opts);
        let s = r.partition.cut_stats(&hg);
        // slack of 1 module around perfect balance
        assert!(s.left.abs_diff(s.right) <= 2, "{s:?}");
    }

    #[test]
    fn keeps_both_sides_non_empty_on_tiny_netlists() {
        // two nets spanning every module: emptying a side would cut
        // nothing, so only the balance window stands in the way
        for n in 2..=5u32 {
            let all: Vec<u32> = (0..n).collect();
            let hg = hypergraph_from_nets(n as usize, &[all.clone(), all]);
            let start = Bipartition::from_left_set(n as usize, [ModuleId(0)]);
            let s = fm_bisect(&hg, &start, &FmOptions::default())
                .partition
                .cut_stats(&hg);
            assert!(s.left > 0 && s.right > 0, "n = {n}: {s:?}");
        }
    }

    #[test]
    fn already_optimal_partition_stable() {
        let hg = two_triangles();
        let start = Bipartition::from_left_set(6, [ModuleId(0), ModuleId(1), ModuleId(2)]);
        let r = fm_bisect(&hg, &start, &FmOptions::default());
        assert_eq!(r.cut_nets, 1);
        assert!(r.passes <= 2);
    }

    #[test]
    fn metered_fm_trips_and_matches() {
        use np_sparse::Budget;
        use std::time::Duration;
        let hg = two_triangles();
        let start = Bipartition::from_left_set(6, [ModuleId(0), ModuleId(3), ModuleId(4)]);
        // zero wall clock: trips before the first pass
        let tight = BudgetMeter::new(&Budget::default().with_wall_clock(Duration::ZERO));
        assert!(fm_bisect_metered(&hg, &start, &FmOptions::default(), &tight).is_err());
        // the anytime form keeps the start it never got to improve
        let (kept, tripped) = fm_bisect_anytime(&hg, &start, &FmOptions::default(), &tight);
        assert!(tripped.is_some());
        assert_eq!((kept.partition, kept.passes), (start.clone(), 0));
        // unlimited meter: identical to the plain entry point
        let meter = BudgetMeter::unlimited();
        let metered = fm_bisect_metered(&hg, &start, &FmOptions::default(), &meter).unwrap();
        let plain = fm_bisect(&hg, &start, &FmOptions::default());
        assert_eq!(metered, plain);
        assert_eq!(meter.matvecs_used() as usize, plain.passes);
    }

    #[test]
    fn gain_buckets_basic_operations() {
        let mut b = GainBuckets::new(4, 3);
        b.insert(0, 1);
        b.insert(1, 3);
        b.insert(2, -3);
        assert_eq!(b.peek_best(), Some((1, 3)));
        b.remove(1);
        assert_eq!(b.peek_best(), Some((0, 1)));
        b.update(2, 2);
        assert_eq!(b.peek_best(), Some((2, 2)));
        b.remove(2);
        b.remove(0);
        assert_eq!(b.peek_best(), None);
        assert_eq!(b.len, 0);
    }

    #[test]
    fn bucket_update_of_absent_module_is_noop() {
        let mut b = GainBuckets::new(2, 2);
        b.update(0, 1);
        assert_eq!(b.peek_best(), None);
    }

    #[test]
    fn pass_moves_every_module_at_most_once() {
        // indirectly: two consecutive non-improving passes terminate
        let hg = hypergraph_from_nets(4, &[vec![0, 1], vec![2, 3]]);
        let start = Bipartition::from_left_set(4, [ModuleId(0), ModuleId(1)]);
        let r = fm_bisect(&hg, &start, &FmOptions::default());
        assert_eq!(r.cut_nets, 0);
    }

    #[test]
    fn swap_pass_fixes_crossed_pair() {
        // optimal bisection needs a swap: start with one module from each
        // triangle exchanged; a pure shift pass can fix it too, but the
        // swap pass must as well, preserving balance
        let hg = two_triangles();
        let start = Bipartition::from_left_set(6, [ModuleId(0), ModuleId(1), ModuleId(3)]);
        let mut tracker = CutTracker::from_partition(&hg, &start);
        let improved = run_swap_pass(&hg, &mut tracker, PrefixObjective::Cut);
        assert!(improved);
        assert_eq!(tracker.cut_nets(), 1);
        let s = tracker.stats();
        assert_eq!(s.left.abs_diff(s.right), 0);
    }

    #[test]
    fn swap_pass_never_worsens() {
        let hg = two_triangles();
        let mut rng = Rng64::new(11);
        for _ in 0..20 {
            let left = (0..6u32).filter(|_| rng.gen_bool(0.5)).map(ModuleId);
            let start = Bipartition::from_left_set(6, left);
            let mut tracker = CutTracker::from_partition(&hg, &start);
            let before = tracker.cut_nets();
            run_swap_pass(&hg, &mut tracker, PrefixObjective::Cut);
            assert!(tracker.cut_nets() <= before);
        }
    }

    #[test]
    fn larger_random_instance_improves() {
        // ring of 40 modules: optimal bisection cut = 2
        let n = 40;
        let nets: Vec<Vec<u32>> = (0..n)
            .map(|i| vec![i as u32, ((i + 1) % n) as u32])
            .collect();
        let hg = hypergraph_from_nets(n, &nets);
        let mut rng = Rng64::new(7);
        let left = (0..n as u32).filter(|_| rng.gen_bool(0.5)).map(ModuleId);
        let start = Bipartition::from_left_set(n, left);
        let r = fm_bisect(&hg, &start, &FmOptions::default());
        assert!(r.cut_nets <= 6, "cut {}", r.cut_nets);
        assert!(r.cut_nets >= 2);
    }
}
