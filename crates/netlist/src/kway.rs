//! Balanced k-way partitions, fixed modules and incremental k-block cut
//! tracking.
//!
//! The paper's introduction motivates bipartitioning as the engine of
//! hierarchical divide-and-conquer (§1), but the consumers it names —
//! layout synthesis, packaging, hardware simulation — want `k` blocks
//! under *area-balance* constraints, often with some modules pinned to a
//! block (terminals, macros). This module supplies the data model those
//! flows share:
//!
//! * [`KwayPartition`] — a dense block-label assignment generalizing
//!   [`Bipartition`] to `k` blocks;
//! * [`KwayCutStats`] — crossing-net count, per-block sizes and external
//!   nets, and the k-way ratio cut `Σ_b ext(b)/|V_b|` (the
//!   Chan–Schlag–Zien generalization of the paper's 2-block objective);
//! * [`KwayCutTracker`] — per-net per-block pin counts so that moving one
//!   module updates the crossing count in `O(degree)`, generalizing
//!   [`CutTracker`](crate::partition::CutTracker)'s left-pin bookkeeping;
//! * [`FixedModules`] — pre-assignments that partitioners must never
//!   move, with the hMETIS `.fix`-file text format;
//! * [`balance_bound`] — the per-block area capacity `(1+ε)·total/k`.
//!
//! # Balance semantics
//!
//! A k-way partition is *ε-balanced* under module areas when every block
//! `b` satisfies `area(b) ≤ (1+ε)·total/k`. With uniform areas this is
//! the usual module-count bound. Note the bound is only *feasible* when
//! `(1+ε)·total/k` is at least the largest single module area and, for
//! unit areas, at least `⌈n/k⌉`; partitioners report infeasible inputs
//! instead of silently violating the bound.

use crate::areas::ModuleAreas;
use crate::{Bipartition, Hypergraph, ModuleId, NetId, NetlistError, Side};
use std::fmt;

/// The per-block area capacity `(1+ε)·total/k` of an ε-balanced k-way
/// partition.
///
/// # Panics
///
/// Panics if `k == 0` or `epsilon` is negative or non-finite.
pub fn balance_bound(total_area: f64, k: usize, epsilon: f64) -> f64 {
    assert!(k >= 1, "k must be at least 1");
    assert!(
        epsilon.is_finite() && epsilon >= 0.0,
        "epsilon must be finite and non-negative"
    );
    (1.0 + epsilon) * total_area / k as f64
}

/// An assignment of every module to one of `num_blocks` labelled blocks.
///
/// Blocks are labelled `0..num_blocks`; blocks may be empty when the
/// partition was built with an explicit block count
/// ([`with_num_blocks`](KwayPartition::with_num_blocks)), which is what
/// in-progress constructions and fixed-block protocols need. The
/// inferring constructor [`from_labels`](KwayPartition::from_labels)
/// requires dense labels.
///
/// # The empty partition
///
/// `from_labels(vec![])` is accepted and yields the *empty* partition:
/// zero modules **and zero blocks** (`num_blocks() == 0`). Callers that
/// assume at least one block must check [`is_empty`](KwayPartition::is_empty)
/// first; all methods on the empty partition are total (they return empty
/// vectors / zero counts) except the per-module accessors, which panic
/// like any out-of-range index.
///
/// # Example
///
/// ```
/// use np_netlist::{hypergraph_from_nets, KwayPartition};
///
/// let hg = hypergraph_from_nets(6, &[vec![0, 1], vec![2, 3], vec![4, 5], vec![1, 2], vec![3, 4]]);
/// let p = KwayPartition::from_labels(vec![0, 0, 1, 1, 2, 2]);
/// assert_eq!(p.num_blocks(), 3);
/// assert_eq!(p.crossing_nets(&hg), 2);
/// assert_eq!(p.block_sizes(), vec![2, 2, 2]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KwayPartition {
    block_of: Vec<u32>,
    num_blocks: usize,
}

impl KwayPartition {
    /// Builds a k-way partition from an explicit block-label vector,
    /// inferring `num_blocks` as `max label + 1`.
    ///
    /// An empty vector yields the empty partition with `num_blocks() == 0`
    /// (see the type-level docs); callers that require at least one block
    /// must handle that case explicitly.
    ///
    /// # Panics
    ///
    /// Panics if the labels are not dense in `0..num_blocks` (use
    /// [`with_num_blocks`](KwayPartition::with_num_blocks) when empty
    /// blocks are intended).
    pub fn from_labels(block_of: Vec<u32>) -> Self {
        let num_blocks = block_of.iter().map(|&b| b as usize + 1).max().unwrap_or(0);
        let mut seen = vec![false; num_blocks];
        for &b in &block_of {
            seen[b as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "block labels must be dense in 0..num_blocks"
        );
        KwayPartition {
            block_of,
            num_blocks,
        }
    }

    /// Builds a k-way partition with an explicit block count; blocks with
    /// no members are allowed.
    ///
    /// # Panics
    ///
    /// Panics if any label is `>= num_blocks`.
    pub fn with_num_blocks(block_of: Vec<u32>, num_blocks: usize) -> Self {
        assert!(
            block_of.iter().all(|&b| (b as usize) < num_blocks),
            "block label out of range 0..num_blocks"
        );
        KwayPartition {
            block_of,
            num_blocks,
        }
    }

    /// Views a bipartition as a 2-block k-way partition (`Left` → block 0,
    /// `Right` → block 1). The conversion shim of the k=2 fast path.
    pub fn from_bipartition(p: &Bipartition) -> Self {
        let block_of = p
            .sides()
            .iter()
            .map(|&s| match s {
                Side::Left => 0u32,
                Side::Right => 1u32,
            })
            .collect();
        KwayPartition {
            block_of,
            num_blocks: 2,
        }
    }

    /// Number of modules covered by this partition.
    pub fn len(&self) -> usize {
        self.block_of.len()
    }

    /// Returns `true` if the partition covers zero modules.
    pub fn is_empty(&self) -> bool {
        self.block_of.is_empty()
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Block label of `module`.
    ///
    /// # Panics
    ///
    /// Panics if `module` is out of range.
    #[inline]
    pub fn block_of(&self, module: ModuleId) -> usize {
        self.block_of[module.index()] as usize
    }

    /// The underlying label vector.
    pub fn labels(&self) -> &[u32] {
        &self.block_of
    }

    /// Module count of each block, indexed by label.
    pub fn block_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_blocks];
        for &b in &self.block_of {
            sizes[b as usize] += 1;
        }
        sizes
    }

    /// Modules in block `b`, in index order.
    pub fn members(&self, b: usize) -> Vec<ModuleId> {
        self.block_of
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l as usize == b)
            .map(|(i, _)| ModuleId(i as u32))
            .collect()
    }

    /// Total area of each block under `areas`, indexed by label.
    ///
    /// # Panics
    ///
    /// Panics if `areas` covers a different number of modules.
    pub fn block_areas(&self, areas: &ModuleAreas) -> Vec<f64> {
        assert_eq!(areas.len(), self.len(), "area vector size mismatch");
        let mut out = vec![0.0f64; self.num_blocks];
        for (i, &b) in self.block_of.iter().enumerate() {
            out[b as usize] += areas.area(ModuleId(i as u32));
        }
        out
    }

    /// Number of nets spanning more than one block — for hardware
    /// simulation, the count of signals that must be multiplexed between
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics if `hg` has a different module count.
    pub fn crossing_nets(&self, hg: &Hypergraph) -> usize {
        assert_eq!(hg.num_modules(), self.block_of.len());
        hg.nets()
            .filter(|&n| {
                let pins = hg.pins(n);
                let first = self.block_of[pins[0].index()];
                pins[1..].iter().any(|p| self.block_of[p.index()] != first)
            })
            .count()
    }

    /// Per-block external-net counts: for each block, the number of nets
    /// with at least one pin inside and at least one pin outside it. This
    /// is the "number of inputs to a block" that drives test-vector cost
    /// (§1: "reducing the number of inputs to a block implies that fewer
    /// vectors will be needed to exercise the logic").
    pub fn external_nets_per_block(&self, hg: &Hypergraph) -> Vec<usize> {
        assert_eq!(hg.num_modules(), self.block_of.len());
        let mut counts = vec![0usize; self.num_blocks];
        let mut touched = vec![false; self.num_blocks];
        let mut touched_list: Vec<u32> = Vec::new();
        for net in hg.nets() {
            touched_list.clear();
            for p in hg.pins(net) {
                let b = self.block_of[p.index()];
                if !touched[b as usize] {
                    touched[b as usize] = true;
                    touched_list.push(b);
                }
            }
            if touched_list.len() > 1 {
                for &b in &touched_list {
                    counts[b as usize] += 1;
                }
            }
            for &b in &touched_list {
                touched[b as usize] = false;
            }
        }
        counts
    }

    /// Histogram of net *span* (how many blocks each net touches), indexed
    /// by span; entry `[1]` counts fully internal nets.
    pub fn span_histogram(&self, hg: &Hypergraph) -> Vec<usize> {
        assert_eq!(hg.num_modules(), self.block_of.len());
        let mut hist = vec![0usize; self.num_blocks + 1];
        let mut touched = vec![false; self.num_blocks];
        let mut touched_list: Vec<u32> = Vec::new();
        for net in hg.nets() {
            touched_list.clear();
            for p in hg.pins(net) {
                let b = self.block_of[p.index()];
                if !touched[b as usize] {
                    touched[b as usize] = true;
                    touched_list.push(b);
                }
            }
            hist[touched_list.len()] += 1;
            for &b in &touched_list {
                touched[b as usize] = false;
            }
        }
        hist
    }

    /// Computes exact k-way cut statistics against `hg` from scratch in
    /// `O(pins)`.
    ///
    /// # Panics
    ///
    /// Panics if `hg` has a different module count.
    pub fn cut_stats(&self, hg: &Hypergraph) -> KwayCutStats {
        let external = self.external_nets_per_block(hg);
        KwayCutStats {
            cut_nets: self.crossing_nets(hg),
            block_sizes: self.block_sizes(),
            external,
        }
    }
}

/// Cut statistics of a k-way partition: crossing-net count, per-block
/// module counts and per-block external-net counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KwayCutStats {
    /// Number of nets spanning more than one block.
    pub cut_nets: usize,
    /// Module count of each block, indexed by label.
    pub block_sizes: Vec<usize>,
    /// Per-block external-net counts (nets with pins both inside and
    /// outside the block).
    pub external: Vec<usize>,
}

impl KwayCutStats {
    /// The k-way ratio cut `Σ_b external(b) / |V_b|` (Chan–Schlag–Zien),
    /// or `+∞` when any block is empty. At `k = 2` this equals
    /// `cut · (1/|U| + 1/|W|) = cut · n / (|U|·|W|)` — the paper's 2-block
    /// ratio cut scaled by the constant `n`, so both orderings agree.
    pub fn ratio(&self) -> f64 {
        if self.block_sizes.is_empty() {
            return f64::INFINITY;
        }
        let mut r = 0.0f64;
        for (&e, &s) in self.external.iter().zip(&self.block_sizes) {
            if s == 0 {
                return f64::INFINITY;
            }
            r += e as f64 / s as f64;
        }
        r
    }

    /// The largest block's module count (0 for the empty partition).
    pub fn max_block(&self) -> usize {
        self.block_sizes.iter().copied().max().unwrap_or(0)
    }
}

impl fmt::Display for KwayCutStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cut={} k={} max_block={} kratio={:.3e}",
            self.cut_nets,
            self.block_sizes.len(),
            self.max_block(),
            self.ratio()
        )
    }
}

/// Modules pre-assigned ("pinned") to a block, which partitioners must
/// never move — terminals, pre-placed macros, per-block seeds.
///
/// The text format is the hMETIS/KaHyPar `.fix` convention: one line per
/// module, in module order, containing the block index or `-1` for a
/// free module.
///
/// # Example
///
/// ```
/// use np_netlist::{FixedModules, ModuleId};
///
/// let fixed = FixedModules::parse("0\n-1\n-1\n2\n").unwrap();
/// assert_eq!(fixed.len(), 4);
/// assert_eq!(fixed.block_of(ModuleId(0)), Some(0));
/// assert_eq!(fixed.block_of(ModuleId(1)), None);
/// assert_eq!(fixed.pinned_count(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixedModules {
    pinned: Vec<Option<u32>>,
}

impl FixedModules {
    /// All `num_modules` modules free.
    pub fn free(num_modules: usize) -> Self {
        FixedModules {
            pinned: vec![None; num_modules],
        }
    }

    /// Pins `module` to `block` (builder style; re-pinning overwrites).
    ///
    /// # Panics
    ///
    /// Panics if `module` is out of range.
    pub fn pin(&mut self, module: ModuleId, block: usize) {
        self.pinned[module.index()] = Some(block as u32);
    }

    /// Number of modules covered.
    pub fn len(&self) -> usize {
        self.pinned.len()
    }

    /// Returns `true` if no modules are covered.
    pub fn is_empty(&self) -> bool {
        self.pinned.is_empty()
    }

    /// The pinned block of `module`, or `None` if it is free.
    ///
    /// # Panics
    ///
    /// Panics if `module` is out of range.
    #[inline]
    pub fn block_of(&self, module: ModuleId) -> Option<usize> {
        self.pinned[module.index()].map(|b| b as usize)
    }

    /// Returns `true` if `module` is pinned.
    ///
    /// # Panics
    ///
    /// Panics if `module` is out of range.
    #[inline]
    pub fn is_pinned(&self, module: ModuleId) -> bool {
        self.pinned[module.index()].is_some()
    }

    /// Number of pinned modules.
    pub fn pinned_count(&self) -> usize {
        self.pinned.iter().filter(|p| p.is_some()).count()
    }

    /// The pinned modules and their blocks, in module order.
    pub fn pins(&self) -> impl Iterator<Item = (ModuleId, usize)> + '_ {
        self.pinned
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|b| (ModuleId(i as u32), b as usize)))
    }

    /// Returns `true` if every pinned block index is `< k`.
    pub fn fits_k(&self, k: usize) -> bool {
        self.pinned
            .iter()
            .all(|p| p.is_none_or(|b| (b as usize) < k))
    }

    /// Parses the hMETIS `.fix` text format: one integer per line in
    /// module order, the block index or `-1` for a free module. Blank
    /// lines and `%`-comment lines are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Parse`] on non-integer lines or block
    /// indices below `-1`.
    pub fn parse(text: &str) -> Result<Self, NetlistError> {
        let mut pinned = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('%') {
                continue;
            }
            let v: i64 = line.parse().map_err(|_| NetlistError::Parse {
                line: lineno + 1,
                message: format!("expected a block index or -1, got {line:?}"),
            })?;
            if v < -1 {
                return Err(NetlistError::Parse {
                    line: lineno + 1,
                    message: format!("block index must be >= -1, got {v}"),
                });
            }
            pinned.push(if v < 0 { None } else { Some(v as u32) });
        }
        Ok(FixedModules { pinned })
    }
}

/// Incremental k-way cut bookkeeping for algorithms that move one module
/// at a time (k-way FM/greedy refinement, balance repair).
///
/// Maintains, for every net, the number of its pins in each block and the
/// net's *span* (how many blocks it touches); a net crosses iff its span
/// is `>= 2`. Moving a module updates the crossing count in `O(degree)`.
/// Storage is `O(nets · k)`, the k-block generalization of
/// [`CutTracker`](crate::partition::CutTracker)'s per-net left-pin count.
///
/// # Example
///
/// ```
/// use np_netlist::{hypergraph_from_nets, KwayCutTracker, KwayPartition, ModuleId};
///
/// let hg = hypergraph_from_nets(6, &[vec![0, 1], vec![2, 3], vec![4, 5], vec![1, 2], vec![3, 4]]);
/// let p = KwayPartition::from_labels(vec![0, 0, 1, 1, 2, 2]);
/// let mut t = KwayCutTracker::new(&hg, &p);
/// assert_eq!(t.cut_nets(), 2);
/// assert_eq!(t.gain(ModuleId(2), 0), 0); // uncuts {1,2}, cuts {2,3}
/// t.move_module(ModuleId(2), 0);
/// assert_eq!(t.cut_nets(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct KwayCutTracker<'a> {
    hg: &'a Hypergraph,
    k: usize,
    block_of: Vec<u32>,
    /// Row-major `net × block` pin counts.
    pins_in: Vec<u32>,
    /// Number of blocks each net currently touches.
    span: Vec<u32>,
    cut_nets: usize,
    block_counts: Vec<usize>,
    areas: Option<Vec<f64>>,
    block_areas: Vec<f64>,
    total_area: f64,
}

impl<'a> KwayCutTracker<'a> {
    /// Creates a tracker initialized from an existing partition in
    /// `O(pins)`.
    ///
    /// # Panics
    ///
    /// Panics if sizes disagree or the partition has zero blocks.
    pub fn new(hg: &'a Hypergraph, p: &KwayPartition) -> Self {
        assert_eq!(hg.num_modules(), p.len(), "partition size mismatch");
        let k = p.num_blocks();
        assert!(k >= 1, "tracker needs at least one block");
        let mut pins_in = vec![0u32; hg.num_nets() * k];
        let mut span = vec![0u32; hg.num_nets()];
        let mut cut_nets = 0usize;
        for net in hg.nets() {
            let row = net.index() * k;
            for &m in hg.pins(net) {
                let b = p.block_of(m);
                if pins_in[row + b] == 0 {
                    span[net.index()] += 1;
                }
                pins_in[row + b] += 1;
            }
            if span[net.index()] >= 2 {
                cut_nets += 1;
            }
        }
        KwayCutTracker {
            hg,
            k,
            block_of: p.labels().to_vec(),
            pins_in,
            span,
            cut_nets,
            block_counts: p.block_sizes(),
            areas: None,
            block_areas: vec![0.0; k],
            total_area: 0.0,
        }
    }

    /// Attaches module areas; thereafter
    /// [`block_areas`](Self::block_areas) tracks per-block area totals
    /// incrementally.
    ///
    /// # Panics
    ///
    /// Panics if `areas.len()` differs from the module count.
    pub fn set_areas(&mut self, areas: &ModuleAreas) {
        assert_eq!(
            areas.len(),
            self.hg.num_modules(),
            "area vector size mismatch"
        );
        let v = areas.as_slice().to_vec();
        self.total_area = v.iter().sum();
        let mut block_areas = vec![0.0f64; self.k];
        for (i, &b) in self.block_of.iter().enumerate() {
            block_areas[b as usize] += v[i];
        }
        self.block_areas = block_areas;
        self.areas = Some(v);
    }

    /// Number of blocks.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current number of crossing nets.
    #[inline]
    pub fn cut_nets(&self) -> usize {
        self.cut_nets
    }

    /// Current block of module `m`.
    #[inline]
    pub fn block_of(&self, m: ModuleId) -> usize {
        self.block_of[m.index()] as usize
    }

    /// Number of pins of `net` currently in block `b`.
    #[inline]
    pub fn pins_in(&self, net: NetId, b: usize) -> u32 {
        self.pins_in[net.index() * self.k + b]
    }

    /// Number of blocks `net` currently touches.
    #[inline]
    pub fn span(&self, net: NetId) -> u32 {
        self.span[net.index()]
    }

    /// Returns `true` if `net` currently spans more than one block.
    #[inline]
    pub fn is_cut(&self, net: NetId) -> bool {
        self.span[net.index()] >= 2
    }

    /// Current module count of each block.
    pub fn block_counts(&self) -> &[usize] {
        &self.block_counts
    }

    /// Current area of each block (all zeros until
    /// [`set_areas`](Self::set_areas) is called).
    pub fn block_areas(&self) -> &[f64] {
        &self.block_areas
    }

    /// Total area across all modules (0.0 until
    /// [`set_areas`](Self::set_areas) is called).
    pub fn total_area(&self) -> f64 {
        self.total_area
    }

    /// Area of module `m`, or 1.0 when no areas are attached (unit
    /// weights).
    #[inline]
    pub fn area_of(&self, m: ModuleId) -> f64 {
        match &self.areas {
            Some(v) => v[m.index()],
            None => 1.0,
        }
    }

    /// Moves module `m` to block `to`, updating crossing bookkeeping in
    /// `O(degree(m))`. Moving a module to its current block is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `to >= k()`.
    pub fn move_module(&mut self, m: ModuleId, to: usize) {
        assert!(to < self.k, "target block out of range");
        let from = self.block_of[m.index()] as usize;
        if from == to {
            return;
        }
        self.block_of[m.index()] = to as u32;
        self.block_counts[from] -= 1;
        self.block_counts[to] += 1;
        if let Some(areas) = &self.areas {
            let a = areas[m.index()];
            self.block_areas[from] -= a;
            self.block_areas[to] += a;
        }
        for &net in self.hg.nets_of(m) {
            let row = net.index() * self.k;
            let was_cut = self.span[net.index()] >= 2;
            self.pins_in[row + from] -= 1;
            if self.pins_in[row + from] == 0 {
                self.span[net.index()] -= 1;
            }
            if self.pins_in[row + to] == 0 {
                self.span[net.index()] += 1;
            }
            self.pins_in[row + to] += 1;
            let now_cut = self.span[net.index()] >= 2;
            match (was_cut, now_cut) {
                (false, true) => self.cut_nets += 1,
                (true, false) => self.cut_nets -= 1,
                _ => {}
            }
        }
    }

    /// The crossing-count change that *would* result from moving `m` to
    /// block `to` (positive gain means the cut decreases by that amount).
    /// Returns 0 when `to` is `m`'s current block.
    ///
    /// # Panics
    ///
    /// Panics if `to >= k()`.
    pub fn gain(&self, m: ModuleId, to: usize) -> i64 {
        assert!(to < self.k, "target block out of range");
        let from = self.block_of[m.index()] as usize;
        if from == to {
            return 0;
        }
        let mut g = 0i64;
        for &net in self.hg.nets_of(m) {
            let row = net.index() * self.k;
            let span = self.span[net.index()];
            let from_pins = self.pins_in[row + from];
            let to_pins = self.pins_in[row + to];
            let new_span = span - u32::from(from_pins == 1) + u32::from(to_pins == 0);
            g += i64::from(span >= 2) - i64::from(new_span >= 2);
        }
        g
    }

    /// Current cut statistics; per-block external counts are recomputed
    /// from the pin-count matrix in `O(nets · k)`.
    pub fn stats(&self) -> KwayCutStats {
        let mut external = vec![0usize; self.k];
        for net in self.hg.nets() {
            if self.span[net.index()] < 2 {
                continue;
            }
            let row = net.index() * self.k;
            for (b, ext) in external.iter_mut().enumerate() {
                if self.pins_in[row + b] > 0 {
                    *ext += 1;
                }
            }
        }
        KwayCutStats {
            cut_nets: self.cut_nets,
            block_sizes: self.block_counts.clone(),
            external,
        }
    }

    /// Snapshot of the current assignment as a [`KwayPartition`] (with
    /// this tracker's block count, so empty blocks survive).
    pub fn to_partition(&self) -> KwayPartition {
        KwayPartition::with_num_blocks(self.block_of.clone(), self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph_from_nets;

    fn three_pairs() -> Hypergraph {
        hypergraph_from_nets(
            6,
            &[vec![0, 1], vec![2, 3], vec![4, 5], vec![1, 2], vec![3, 4]],
        )
    }

    #[test]
    fn empty_labels_yield_zero_blocks() {
        // regression: the empty case is explicit — zero modules, zero
        // blocks — and every aggregate method stays total on it
        let p = KwayPartition::from_labels(vec![]);
        assert!(p.is_empty());
        assert_eq!(p.num_blocks(), 0);
        assert_eq!(p.block_sizes(), Vec::<usize>::new());
        assert_eq!(p.labels(), &[] as &[u32]);
        let stats = KwayCutStats {
            cut_nets: 0,
            block_sizes: vec![],
            external: vec![],
        };
        assert_eq!(stats.ratio(), f64::INFINITY);
        assert_eq!(stats.max_block(), 0);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn sparse_labels_rejected() {
        KwayPartition::from_labels(vec![0, 2]);
    }

    #[test]
    fn with_num_blocks_allows_empty_blocks() {
        let p = KwayPartition::with_num_blocks(vec![0, 0, 2], 4);
        assert_eq!(p.num_blocks(), 4);
        assert_eq!(p.block_sizes(), vec![2, 0, 1, 0]);
        assert_eq!(p.members(2), vec![ModuleId(2)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn with_num_blocks_rejects_overflow_label() {
        KwayPartition::with_num_blocks(vec![0, 3], 3);
    }

    #[test]
    fn from_bipartition_puts_left_in_block_0() {
        let p = Bipartition::from_left_set(4, [ModuleId(1), ModuleId(2)]);
        let k = KwayPartition::from_bipartition(&p);
        assert_eq!(k.num_blocks(), 2);
        assert_eq!(k.labels(), &[1, 0, 0, 1]);
    }

    #[test]
    fn stats_match_hand_computation() {
        let hg = three_pairs();
        let p = KwayPartition::from_labels(vec![0, 0, 1, 1, 2, 2]);
        let s = p.cut_stats(&hg);
        assert_eq!(s.cut_nets, 2);
        assert_eq!(s.block_sizes, vec![2, 2, 2]);
        assert_eq!(s.external, vec![1, 2, 1]);
        assert!((s.ratio() - (0.5 + 1.0 + 0.5)).abs() < 1e-12);
        assert_eq!(s.max_block(), 2);
    }

    #[test]
    fn two_block_ratio_is_scaled_paper_ratio() {
        let hg = three_pairs();
        let bi = Bipartition::from_left_set(6, [ModuleId(0), ModuleId(1), ModuleId(2)]);
        let k = KwayPartition::from_bipartition(&bi);
        let kr = k.cut_stats(&hg).ratio();
        let r2 = bi.cut_stats(&hg).ratio();
        assert!((kr - r2 * 6.0).abs() < 1e-12);
    }

    #[test]
    fn block_areas_accumulate() {
        let p = KwayPartition::from_labels(vec![0, 1, 1, 0]);
        let areas = ModuleAreas::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(p.block_areas(&areas), vec![5.0, 5.0]);
    }

    #[test]
    fn balance_bound_formula() {
        assert!((balance_bound(100.0, 4, 0.1) - 27.5).abs() < 1e-12);
        assert!((balance_bound(10.0, 1, 0.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn balance_bound_rejects_zero_k() {
        balance_bound(1.0, 0, 0.1);
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
        let p = KwayPartition::with_num_blocks(vec![0, 0, 1, 1, 2, 2], 3);
        let mut t = KwayCutTracker::new(&hg, &p);
        let moves = [(0, 2), (3, 0), (0, 1), (5, 0), (1, 1), (3, 2), (4, 0)];
        for (m, b) in moves {
            t.move_module(ModuleId(m), b);
            let snapshot = t.to_partition();
            assert_eq!(t.cut_nets(), snapshot.crossing_nets(&hg));
            assert_eq!(t.stats(), snapshot.cut_stats(&hg));
            assert_eq!(t.block_counts(), snapshot.block_sizes());
        }
    }

    #[test]
    fn gain_predicts_cut_change() {
        let hg = three_pairs();
        let p = KwayPartition::from_labels(vec![0, 0, 1, 1, 2, 2]);
        let mut t = KwayCutTracker::new(&hg, &p);
        for m in hg.modules() {
            for to in 0..t.k() {
                let g = t.gain(m, to);
                let from = t.block_of(m);
                let before = t.cut_nets() as i64;
                t.move_module(m, to);
                assert_eq!(before - t.cut_nets() as i64, g, "gain mismatch {m} -> {to}");
                t.move_module(m, from);
            }
        }
    }

    #[test]
    fn tracker_areas_track_moves() {
        let hg = three_pairs();
        let p = KwayPartition::from_labels(vec![0, 0, 1, 1, 2, 2]);
        let mut t = KwayCutTracker::new(&hg, &p);
        t.set_areas(&ModuleAreas::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        assert_eq!(t.block_areas(), &[3.0, 7.0, 11.0]);
        assert_eq!(t.total_area(), 21.0);
        t.move_module(ModuleId(3), 0);
        assert_eq!(t.block_areas(), &[7.0, 3.0, 11.0]);
        assert_eq!(t.area_of(ModuleId(5)), 6.0);
    }

    #[test]
    fn tracker_matches_bipartition_tracker_at_k2() {
        let hg = three_pairs();
        let bi = Bipartition::from_left_set(6, [ModuleId(0), ModuleId(3), ModuleId(4)]);
        let bt = crate::partition::CutTracker::from_partition(&hg, &bi);
        let kt = KwayCutTracker::new(&hg, &KwayPartition::from_bipartition(&bi));
        assert_eq!(bt.cut_nets(), kt.cut_nets());
    }

    #[test]
    fn move_to_same_block_is_noop() {
        let hg = three_pairs();
        let p = KwayPartition::from_labels(vec![0, 0, 1, 1, 2, 2]);
        let mut t = KwayCutTracker::new(&hg, &p);
        let before = t.stats();
        t.move_module(ModuleId(2), 1);
        assert_eq!(t.stats(), before);
        assert_eq!(t.gain(ModuleId(2), 1), 0);
    }

    #[test]
    fn fixed_modules_parse_and_query() {
        let f = FixedModules::parse("% header comment\n0\n-1\n\n2\n-1\n").unwrap();
        assert_eq!(f.len(), 4);
        assert_eq!(f.pinned_count(), 2);
        assert!(f.is_pinned(ModuleId(0)));
        assert!(!f.is_pinned(ModuleId(1)));
        assert_eq!(f.block_of(ModuleId(2)), Some(2));
        assert_eq!(
            f.pins().collect::<Vec<_>>(),
            vec![(ModuleId(0), 0), (ModuleId(2), 2)]
        );
        assert!(f.fits_k(3));
        assert!(!f.fits_k(2));
    }

    #[test]
    fn fixed_modules_parse_rejects_garbage() {
        assert!(matches!(
            FixedModules::parse("0\nx\n"),
            Err(NetlistError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            FixedModules::parse("-2\n"),
            Err(NetlistError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn fixed_modules_builder() {
        let mut f = FixedModules::free(3);
        assert!(!f.is_empty());
        assert_eq!(f.pinned_count(), 0);
        f.pin(ModuleId(1), 4);
        assert_eq!(f.block_of(ModuleId(1)), Some(4));
        assert!(f.fits_k(5));
    }
}
