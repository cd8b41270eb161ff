//! Module bipartitions and the ratio-cut metric.
//!
//! The paper optimizes the **ratio cut** objective of Wei and Cheng:
//! for a partition of the module set `V` into disjoint `U` and `W`,
//!
//! ```text
//!               e(U, W)
//!     R(U,W) = ---------
//!              |U| · |W|
//! ```
//!
//! where `e(U, W)` is the number of *nets* with pins on both sides. The
//! numerator captures the min-cut criterion while the denominator favors
//! balanced partitions without imposing a hard bisection constraint.
//!
//! Following Section 4 of the paper ("the spectral approach cannot take
//! module areas into consideration"), modules have uniform weight and the
//! denominator uses module counts.

use crate::{Hypergraph, ModuleId, NetId};
use std::fmt;

/// The side of a bipartition a module is assigned to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// The "left" (`U`) block.
    Left,
    /// The "right" (`W`) block.
    Right,
}

impl Side {
    /// The opposite side.
    #[inline]
    pub fn flip(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Left => write!(f, "L"),
            Side::Right => write!(f, "R"),
        }
    }
}

/// An assignment of every module to one of two sides.
///
/// # Example
///
/// ```
/// use np_netlist::{hypergraph_from_nets, Bipartition, ModuleId, Side};
///
/// let hg = hypergraph_from_nets(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
/// let p = Bipartition::from_left_set(4, [ModuleId(0), ModuleId(1)]);
/// let stats = p.cut_stats(&hg);
/// assert_eq!(stats.cut_nets, 1); // only net {1,2} crosses
/// assert_eq!((stats.left, stats.right), (2, 2));
/// assert!((p.ratio_cut(&hg) - 1.0 / 4.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bipartition {
    sides: Vec<Side>,
}

impl Bipartition {
    /// Creates a partition with all `num_modules` modules on `side`.
    pub fn uniform(num_modules: usize, side: Side) -> Self {
        Bipartition {
            sides: vec![side; num_modules],
        }
    }

    /// Creates a partition from an explicit side vector.
    pub fn from_sides(sides: Vec<Side>) -> Self {
        Bipartition { sides }
    }

    /// Creates a partition in which exactly the given modules are on the
    /// left and everything else is on the right.
    ///
    /// # Panics
    ///
    /// Panics if a module index is `>= num_modules`.
    pub fn from_left_set<I>(num_modules: usize, left: I) -> Self
    where
        I: IntoIterator<Item = ModuleId>,
    {
        let mut p = Bipartition::uniform(num_modules, Side::Right);
        for m in left {
            p.sides[m.index()] = Side::Left;
        }
        p
    }

    /// Number of modules covered by this partition.
    pub fn len(&self) -> usize {
        self.sides.len()
    }

    /// Returns `true` if the partition covers zero modules.
    pub fn is_empty(&self) -> bool {
        self.sides.is_empty()
    }

    /// The side module `m` is assigned to.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    #[inline]
    pub fn side(&self, m: ModuleId) -> Side {
        self.sides[m.index()]
    }

    /// Assigns module `m` to `side`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    #[inline]
    pub fn set(&mut self, m: ModuleId, side: Side) {
        self.sides[m.index()] = side;
    }

    /// The underlying side vector.
    pub fn sides(&self) -> &[Side] {
        &self.sides
    }

    /// Modules on the given side, in index order.
    pub fn members(&self, side: Side) -> Vec<ModuleId> {
        self.sides
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == side)
            .map(|(i, _)| ModuleId(i as u32))
            .collect()
    }

    /// Number of modules on the given side.
    pub fn count(&self, side: Side) -> usize {
        self.sides.iter().filter(|&&s| s == side).count()
    }

    /// Computes exact cut statistics against `hg` from scratch in
    /// `O(pins)`.
    ///
    /// # Panics
    ///
    /// Panics if `hg.num_modules() != self.len()`.
    pub fn cut_stats(&self, hg: &Hypergraph) -> CutStats {
        assert_eq!(
            hg.num_modules(),
            self.len(),
            "partition size does not match hypergraph"
        );
        let mut cut = 0usize;
        for net in hg.nets() {
            let pins = hg.pins(net);
            let first = self.side(pins[0]);
            if pins[1..].iter().any(|&m| self.side(m) != first) {
                cut += 1;
            }
        }
        CutStats {
            cut_nets: cut,
            left: self.count(Side::Left),
            right: self.count(Side::Right),
        }
    }

    /// The ratio-cut cost `cut / (|U|·|W|)`.
    ///
    /// Returns `f64::INFINITY` when one side is empty (the metric is
    /// undefined there; treating it as +∞ lets sweep loops simply minimize).
    pub fn ratio_cut(&self, hg: &Hypergraph) -> f64 {
        self.cut_stats(hg).ratio()
    }
}

/// Cut statistics of a bipartition: cut-net count and block sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CutStats {
    /// Number of nets with pins on both sides.
    pub cut_nets: usize,
    /// Number of modules in the left block (`|U|`).
    pub left: usize,
    /// Number of modules in the right block (`|W|`).
    pub right: usize,
}

impl CutStats {
    /// The ratio-cut value `cut_nets / (left · right)`, or `+∞` if either
    /// block is empty.
    pub fn ratio(&self) -> f64 {
        if self.left == 0 || self.right == 0 {
            f64::INFINITY
        } else {
            self.cut_nets as f64 / (self.left as f64 * self.right as f64)
        }
    }

    /// Formats the block sizes the way the paper's tables do, e.g. `152:681`.
    pub fn areas(&self) -> String {
        format!(
            "{}:{}",
            self.left.min(self.right),
            self.left.max(self.right)
        )
    }
}

impl fmt::Display for CutStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cut={} areas={} ratio={:.3e}",
            self.cut_nets,
            self.areas(),
            self.ratio()
        )
    }
}

/// Incremental cut bookkeeping for algorithms that move one module at a
/// time (spectral sweeps, Fiduccia–Mattheyses passes, IG-Vote).
///
/// Maintains, for every net, the number of its pins currently on the left
/// side; a net is cut iff `0 < left_pins < size`. Moving a module updates the
/// cut count in `O(degree(m))`, so a full sweep over all modules costs
/// `O(pins)` — this is what makes "try every split point" affordable.
///
/// # Example
///
/// ```
/// use np_netlist::partition::CutTracker;
/// use np_netlist::{hypergraph_from_nets, ModuleId, Side};
///
/// let hg = hypergraph_from_nets(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
/// let mut t = CutTracker::all_on(&hg, Side::Right);
/// t.move_module(ModuleId(0), Side::Left);
/// assert_eq!(t.cut_nets(), 1);
/// t.move_module(ModuleId(1), Side::Left);
/// assert_eq!(t.cut_nets(), 1);
/// assert_eq!(t.stats().areas(), "2:2");
/// ```
#[derive(Clone, Debug)]
pub struct CutTracker<'a> {
    hg: &'a Hypergraph,
    sides: Vec<Side>,
    left_pins: Vec<u32>,
    cut_nets: usize,
    left_count: usize,
    /// Optional module areas; when set, `left_area`/`area_ratio` track the
    /// area-weighted metric incrementally.
    areas: Option<Vec<f64>>,
    left_area: f64,
    total_area: f64,
}

impl<'a> CutTracker<'a> {
    /// Creates a tracker with every module on `side`.
    pub fn all_on(hg: &'a Hypergraph, side: Side) -> Self {
        let left_pins = match side {
            Side::Left => hg.nets().map(|n| hg.net_size(n) as u32).collect(),
            Side::Right => vec![0; hg.num_nets()],
        };
        let left_count = match side {
            Side::Left => hg.num_modules(),
            Side::Right => 0,
        };
        CutTracker {
            hg,
            sides: vec![side; hg.num_modules()],
            left_pins,
            cut_nets: 0,
            left_count,
            areas: None,
            left_area: 0.0,
            total_area: 0.0,
        }
    }

    /// Creates a tracker initialized from an existing partition in
    /// `O(pins)`.
    pub fn from_partition(hg: &'a Hypergraph, p: &Bipartition) -> Self {
        assert_eq!(hg.num_modules(), p.len());
        let mut left_pins = vec![0u32; hg.num_nets()];
        let mut cut = 0usize;
        for net in hg.nets() {
            let l = hg
                .pins(net)
                .iter()
                .filter(|&&m| p.side(m) == Side::Left)
                .count() as u32;
            left_pins[net.index()] = l;
            if l > 0 && (l as usize) < hg.net_size(net) {
                cut += 1;
            }
        }
        CutTracker {
            hg,
            sides: p.sides().to_vec(),
            left_pins,
            cut_nets: cut,
            left_count: p.count(Side::Left),
            areas: None,
            left_area: 0.0,
            total_area: 0.0,
        }
    }

    /// Attaches module areas; thereafter [`area_ratio`](Self::area_ratio)
    /// and [`left_area`](Self::left_area) track the area-weighted metric
    /// incrementally.
    ///
    /// # Panics
    ///
    /// Panics if `areas.len()` differs from the module count.
    pub fn set_areas(&mut self, areas: &crate::areas::ModuleAreas) {
        assert_eq!(
            areas.len(),
            self.hg.num_modules(),
            "area vector size mismatch"
        );
        let v = areas.as_slice().to_vec();
        self.total_area = v.iter().sum();
        self.left_area = self
            .sides
            .iter()
            .zip(&v)
            .filter(|(s, _)| **s == Side::Left)
            .map(|(_, a)| *a)
            .sum();
        self.areas = Some(v);
    }

    /// Total area currently on the left side (0.0 until
    /// [`set_areas`](Self::set_areas) is called).
    pub fn left_area(&self) -> f64 {
        self.left_area
    }

    /// The area-weighted ratio cut, or `+∞` when a side has zero area.
    ///
    /// # Panics
    ///
    /// Panics if no areas were attached.
    pub fn area_ratio(&self) -> f64 {
        assert!(self.areas.is_some(), "no module areas attached");
        let right = self.total_area - self.left_area;
        if self.left_area <= 0.0 || right <= 0.0 {
            f64::INFINITY
        } else {
            self.cut_nets as f64 / (self.left_area * right)
        }
    }

    /// Current number of cut nets.
    #[inline]
    pub fn cut_nets(&self) -> usize {
        self.cut_nets
    }

    /// Current side of module `m`.
    #[inline]
    pub fn side(&self, m: ModuleId) -> Side {
        self.sides[m.index()]
    }

    /// Number of pins of `net` currently on the left side.
    #[inline]
    pub fn left_pins(&self, net: NetId) -> u32 {
        self.left_pins[net.index()]
    }

    /// Returns `true` if `net` currently has pins on both sides.
    #[inline]
    pub fn is_cut(&self, net: NetId) -> bool {
        let l = self.left_pins[net.index()] as usize;
        l > 0 && l < self.hg.net_size(net)
    }

    /// Current block sizes and cut count.
    pub fn stats(&self) -> CutStats {
        CutStats {
            cut_nets: self.cut_nets,
            left: self.left_count,
            right: self.hg.num_modules() - self.left_count,
        }
    }

    /// Current ratio-cut value.
    pub fn ratio(&self) -> f64 {
        self.stats().ratio()
    }

    /// Moves module `m` to `to`, updating cut bookkeeping in
    /// `O(degree(m))`. Moving a module to its current side is a no-op.
    pub fn move_module(&mut self, m: ModuleId, to: Side) {
        let from = self.sides[m.index()];
        if from == to {
            return;
        }
        self.sides[m.index()] = to;
        match to {
            Side::Left => self.left_count += 1,
            Side::Right => self.left_count -= 1,
        }
        if let Some(areas) = &self.areas {
            match to {
                Side::Left => self.left_area += areas[m.index()],
                Side::Right => self.left_area -= areas[m.index()],
            }
        }
        let delta: i64 = if to == Side::Left { 1 } else { -1 };
        for &net in self.hg.nets_of(m) {
            let size = self.hg.net_size(net) as i64;
            let old = self.left_pins[net.index()] as i64;
            let new = old + delta;
            self.left_pins[net.index()] = new as u32;
            let was_cut = old > 0 && old < size;
            let now_cut = new > 0 && new < size;
            match (was_cut, now_cut) {
                (false, true) => self.cut_nets += 1,
                (true, false) => self.cut_nets -= 1,
                _ => {}
            }
        }
    }

    /// The net-cut change that *would* result from moving `m` to the other
    /// side (the Fiduccia–Mattheyses *gain*, negated: positive gain means
    /// the cut decreases by that amount).
    ///
    /// A net yields +1 gain if `m` is its only pin on its side (moving `m`
    /// uncuts it) and −1 gain if the net is entirely on `m`'s side (moving
    /// `m` cuts it).
    pub fn gain(&self, m: ModuleId) -> i64 {
        let from = self.sides[m.index()];
        let mut g = 0i64;
        for &net in self.hg.nets_of(m) {
            let size = self.hg.net_size(net) as i64;
            if size <= 1 {
                continue;
            }
            let l = self.left_pins[net.index()] as i64;
            let on_my_side = match from {
                Side::Left => l,
                Side::Right => size - l,
            };
            if on_my_side == 1 {
                g += 1;
            } else if on_my_side == size {
                g -= 1;
            }
        }
        g
    }

    /// Snapshot of the current assignment as a [`Bipartition`].
    pub fn to_partition(&self) -> Bipartition {
        Bipartition::from_sides(self.sides.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph_from_nets;

    fn chain() -> Hypergraph {
        hypergraph_from_nets(4, &[vec![0, 1], vec![1, 2], vec![2, 3]])
    }

    #[test]
    fn uniform_partition_cuts_nothing() {
        let hg = chain();
        let p = Bipartition::uniform(4, Side::Left);
        let s = p.cut_stats(&hg);
        assert_eq!(s.cut_nets, 0);
        assert_eq!(s.ratio(), f64::INFINITY);
    }

    #[test]
    fn ratio_cut_matches_hand_computation() {
        let hg = chain();
        let p = Bipartition::from_left_set(4, [ModuleId(0)]);
        let s = p.cut_stats(&hg);
        assert_eq!(s.cut_nets, 1);
        assert!((s.ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn multipin_net_cut_once() {
        let hg = hypergraph_from_nets(4, &[vec![0, 1, 2, 3]]);
        let p = Bipartition::from_left_set(4, [ModuleId(0), ModuleId(1)]);
        assert_eq!(p.cut_stats(&hg).cut_nets, 1);
    }

    #[test]
    fn areas_puts_smaller_side_first() {
        let s = CutStats {
            cut_nets: 3,
            left: 10,
            right: 4,
        };
        assert_eq!(s.areas(), "4:10");
    }

    #[test]
    fn tracker_matches_scratch_on_random_walk() {
        let hg = hypergraph_from_nets(
            6,
            &[
                vec![0, 1, 2],
                vec![2, 3],
                vec![3, 4, 5],
                vec![0, 5],
                vec![1, 4],
            ],
        );
        let mut t = CutTracker::all_on(&hg, Side::Right);
        let moves = [
            (0, Side::Left),
            (3, Side::Left),
            (0, Side::Right),
            (5, Side::Left),
            (1, Side::Left),
            (3, Side::Right),
        ];
        for (m, side) in moves {
            t.move_module(ModuleId(m), side);
            let scratch = t.to_partition().cut_stats(&hg);
            assert_eq!(t.cut_nets(), scratch.cut_nets);
            assert_eq!(t.stats(), scratch);
        }
    }

    #[test]
    fn tracker_from_partition_consistent() {
        let hg = chain();
        let p = Bipartition::from_left_set(4, [ModuleId(1), ModuleId(2)]);
        let t = CutTracker::from_partition(&hg, &p);
        assert_eq!(t.cut_nets(), p.cut_stats(&hg).cut_nets);
        assert_eq!(t.cut_nets(), 2);
    }

    #[test]
    fn gain_predicts_cut_change() {
        let hg = hypergraph_from_nets(5, &[vec![0, 1, 2], vec![2, 3], vec![3, 4], vec![0, 4]]);
        let p = Bipartition::from_left_set(5, [ModuleId(0), ModuleId(1), ModuleId(2)]);
        let mut t = CutTracker::from_partition(&hg, &p);
        for m in hg.modules() {
            let g = t.gain(m);
            let before = t.cut_nets() as i64;
            let orig = t.side(m);
            t.move_module(m, orig.flip());
            let after = t.cut_nets() as i64;
            assert_eq!(before - after, g, "gain mismatch for {m}");
            t.move_module(m, orig); // restore
        }
    }

    #[test]
    fn move_to_same_side_is_noop() {
        let hg = chain();
        let mut t = CutTracker::all_on(&hg, Side::Right);
        t.move_module(ModuleId(2), Side::Right);
        assert_eq!(t.cut_nets(), 0);
        assert_eq!(t.stats().left, 0);
    }

    #[test]
    fn members_returns_sorted_modules() {
        let p = Bipartition::from_left_set(4, [ModuleId(3), ModuleId(1)]);
        assert_eq!(p.members(Side::Left), vec![ModuleId(1), ModuleId(3)]);
        assert_eq!(p.members(Side::Right), vec![ModuleId(0), ModuleId(2)]);
    }

    #[test]
    fn single_pin_net_never_cut() {
        let hg = hypergraph_from_nets(2, &[vec![0], vec![0, 1]]);
        let mut t = CutTracker::all_on(&hg, Side::Right);
        t.move_module(ModuleId(0), Side::Left);
        assert_eq!(t.cut_nets(), 1); // only the 2-pin net
        assert_eq!(t.gain(ModuleId(0)), 1);
    }
}
