//! The incremental Phase II completion sweep: module tags and
//! both-orientation cut statistics maintained under `O(Δ)` updates as the
//! split slides (paper Figure 6, `DESIGN.md` §11).
//!
//! [`SweepState`] drives one full IG-Match sweep: every
//! [`advance`](SweepState::advance) moves one net across the split,
//! refreshes the [`NetClassifier`] around the nets the move changed,
//! and folds the resulting [`NetClassChange`]s into maintained per-module
//! cover counters, per-net pin-tag counts and running cut totals — so the
//! per-split evaluation is `O(1)` plus work proportional to what actually
//! changed, instead of the from-scratch `O(|V|+|E|+pins)` of
//! [`CompletionOracle`]. In debug builds every advance cross-checks the
//! maintained state against the oracle.

use super::bipartite::{MoveDelta, NetClass, NetClassChange, NetClassifier, SplitMatcher};
use super::SplitClassification;
use np_netlist::{Bipartition, CutStats, Hypergraph, NetId, Side};

/// Where Phase II places one module: pinned by a winner net, or free
/// (`V_N`) and assigned by orientation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModuleTag {
    /// Not covered by any winner net — a `V_N` module.
    Free,
    /// Pinned to the left side by a winner-`L` net.
    WinL,
    /// Pinned to the right side by a winner-`R` net.
    WinR,
}

/// Both Phase II orientations of one split, before the better one is
/// chosen: option A assigns the free modules to the left (winner-`L`)
/// side, option B to the right.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrientedEval {
    /// Cut statistics with the free modules on the left.
    pub stats_a: CutStats,
    /// Cut statistics with the free modules on the right.
    pub stats_b: CutStats,
    /// Loser nets charged by option A (`|Odd|` plus `|B' ∩ R|`).
    pub losers_a: usize,
    /// Loser nets charged by option B (`|Odd|` plus `|B' ∩ L|`).
    pub losers_b: usize,
}

impl OrientedEval {
    /// The better orientation, by ratio cut (ties prefer option A, free
    /// modules left — the order the paper's Figure 6 tries them in).
    pub fn candidate(&self) -> SplitCandidate {
        if self.stats_a.ratio() <= self.stats_b.ratio() {
            SplitCandidate {
                stats: self.stats_a,
                put_free_left: true,
                losers: self.losers_a,
            }
        } else {
            SplitCandidate {
                stats: self.stats_b,
                put_free_left: false,
                losers: self.losers_b,
            }
        }
    }
}

/// Result of evaluating both Phase II options at one split: the chosen
/// orientation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SplitCandidate {
    /// Cut statistics of the better orientation.
    pub stats: CutStats,
    /// `true` if the better option assigns the free modules to the left
    /// (winner-`L`) side.
    pub put_free_left: bool,
    /// Loser nets charged by the better option
    /// (`|Odd(L)| + |Odd(R)| +` the orientation's `B'` side).
    pub losers: usize,
}

/// From-scratch Phase II evaluation (paper Figure 6) — the reference the
/// incremental sweep is checked against.
///
/// Tags every module as `V_L` (in some winner-`L` net), `V_R` (winner-`R`
/// net) or free (`V_N`), then scores both orientations of `V_N` in a
/// single `O(pins)` pass. This is the seed implementation, kept verbatim
/// as the debug-build oracle and for the equivalence suites; production
/// sweeps run [`SweepState`] instead.
pub struct CompletionOracle {
    tag: Vec<ModuleTag>,
    tag_epoch: Vec<u32>,
    epoch: u32,
}

impl CompletionOracle {
    /// An oracle sized for `hg`.
    pub fn new(hg: &Hypergraph) -> Self {
        CompletionOracle {
            tag: vec![ModuleTag::Free; hg.num_modules()],
            tag_epoch: vec![0; hg.num_modules()],
            epoch: 0,
        }
    }

    fn tag_of(&self, m: usize) -> ModuleTag {
        if self.tag_epoch[m] == self.epoch {
            self.tag[m]
        } else {
            ModuleTag::Free
        }
    }

    fn set_tag(&mut self, m: usize, t: ModuleTag) {
        self.tag[m] = t;
        self.tag_epoch[m] = self.epoch;
    }

    /// Tags winner modules and scores both free-module orientations from
    /// scratch.
    pub fn evaluate(&mut self, hg: &Hypergraph, class: &SplitClassification) -> OrientedEval {
        self.epoch += 1;
        let mut count_l = 0usize;
        let mut count_r = 0usize;
        for &net in &class.winners_l {
            for &m in hg.pins(NetId(net)) {
                if self.tag_of(m.index()) == ModuleTag::Free {
                    self.set_tag(m.index(), ModuleTag::WinL);
                    count_l += 1;
                }
                debug_assert_ne!(
                    self.tag_of(m.index()),
                    ModuleTag::WinR,
                    "V_L ∩ V_R nonempty"
                );
            }
        }
        for &net in &class.winners_r {
            for &m in hg.pins(NetId(net)) {
                if self.tag_of(m.index()) == ModuleTag::Free {
                    self.set_tag(m.index(), ModuleTag::WinR);
                    count_r += 1;
                }
                debug_assert_ne!(
                    self.tag_of(m.index()),
                    ModuleTag::WinL,
                    "V_L ∩ V_R nonempty"
                );
            }
        }
        let n = hg.num_modules();
        // option A: free modules join the L side; option B: the R side
        let mut cut_a = 0usize;
        let mut cut_b = 0usize;
        for net in hg.nets() {
            let mut has_l = false;
            let mut has_r = false;
            let mut has_free = false;
            for &m in hg.pins(net) {
                match self.tag_of(m.index()) {
                    ModuleTag::WinL => has_l = true,
                    ModuleTag::WinR => has_r = true,
                    ModuleTag::Free => has_free = true,
                }
            }
            if has_r && (has_l || has_free) {
                cut_a += 1;
            }
            if has_l && (has_r || has_free) {
                cut_b += 1;
            }
        }
        OrientedEval {
            stats_a: CutStats {
                cut_nets: cut_a,
                left: n - count_r,
                right: count_r,
            },
            stats_b: CutStats {
                cut_nets: cut_b,
                left: count_l,
                right: n - count_l,
            },
            losers_a: class.losers.len() + class.bprime_r.len(),
            losers_b: class.losers.len() + class.bprime_l.len(),
        }
    }

    /// Builds the explicit partition for the chosen orientation of the
    /// *current* tags (call right after [`evaluate`](Self::evaluate)).
    pub fn materialize(&self, hg: &Hypergraph, put_free_left: bool) -> Bipartition {
        let sides = (0..hg.num_modules())
            .map(|m| match self.tag_of(m) {
                ModuleTag::WinL => Side::Left,
                ModuleTag::WinR => Side::Right,
                ModuleTag::Free => {
                    if put_free_left {
                        Side::Left
                    } else {
                        Side::Right
                    }
                }
            })
            .collect();
        Bipartition::from_sides(sides)
    }

    /// The `V_N` membership mask of the *current* tags.
    pub fn free_mask(&self, hg: &Hypergraph) -> Vec<bool> {
        (0..hg.num_modules())
            .map(|m| self.tag_of(m) == ModuleTag::Free)
            .collect()
    }
}

/// Incrementally-maintained Phase II state: per-module winner-cover
/// counters, per-net pin-tag counts, and the running cut/loser totals of
/// both orientations, updated only for what a [`NetClassChange`] batch
/// actually touches.
struct IncrementalCompletion {
    /// Number of winner-`L` / winner-`R` nets covering each module; the
    /// module's [`ModuleTag`] is derived from which counter is nonzero
    /// (never both — `V_L ∩ V_R = ∅` by Theorem 2).
    cover_l: Vec<u32>,
    cover_r: Vec<u32>,
    tag: Vec<ModuleTag>,
    /// Modules currently tagged `WinL` / `WinR`.
    count_l: usize,
    count_r: usize,
    /// Pins of each net tagged `WinL` / `WinR` (free = size − both).
    nl: Vec<u32>,
    nr: Vec<u32>,
    /// Running cut totals of orientation A (free→left) and B
    /// (free→right).
    cut_a: usize,
    cut_b: usize,
    /// Class-count totals feeding the loser charges.
    losers: usize,
    bprime_l: usize,
    bprime_r: usize,
}

impl IncrementalCompletion {
    /// State for the initial all-`L` split, where every net is a
    /// winner-`L` (so every connected module is tagged `WinL` and both
    /// orientations cut nothing).
    fn new(hg: &Hypergraph) -> Self {
        let n = hg.num_modules();
        let mut cover_l = vec![0u32; n];
        let mut tag = vec![ModuleTag::Free; n];
        let mut count_l = 0usize;
        for m in hg.modules() {
            let deg = hg.degree(m) as u32;
            cover_l[m.index()] = deg;
            if deg > 0 {
                tag[m.index()] = ModuleTag::WinL;
                count_l += 1;
            }
        }
        let nl = hg.nets().map(|e| hg.net_size(e) as u32).collect();
        IncrementalCompletion {
            cover_l,
            cover_r: vec![0; n],
            tag,
            count_l,
            count_r: 0,
            nl,
            nr: vec![0; hg.num_nets()],
            cut_a: 0,
            cut_b: 0,
            losers: 0,
            bprime_l: 0,
            bprime_r: 0,
        }
    }

    /// Whether net `e` is cut in each orientation, from its maintained
    /// pin-tag counts.
    fn contrib(&self, hg: &Hypergraph, e: usize) -> (bool, bool) {
        let nl = self.nl[e] as usize;
        let nr = self.nr[e] as usize;
        let nf = hg.net_size(NetId(e as u32)) - nl - nr;
        (
            nr > 0 && (nl > 0 || nf > 0), // option A: free modules left
            nl > 0 && (nr > 0 || nf > 0), // option B: free modules right
        )
    }

    /// Folds one batch of classification changes into the maintained
    /// state. Winner demotions are applied before promotions so the
    /// disjointness of `V_L` and `V_R` holds for every intermediate
    /// cover state (a net may hand a module over within one batch).
    fn apply(&mut self, hg: &Hypergraph, changes: &[NetClassChange]) {
        for ch in changes {
            match ch.old {
                NetClass::Loser => self.losers -= 1,
                NetClass::BPrimeL => self.bprime_l -= 1,
                NetClass::BPrimeR => self.bprime_r -= 1,
                NetClass::WinnerL | NetClass::WinnerR => {}
            }
            match ch.new {
                NetClass::Loser => self.losers += 1,
                NetClass::BPrimeL => self.bprime_l += 1,
                NetClass::BPrimeR => self.bprime_r += 1,
                NetClass::WinnerL | NetClass::WinnerR => {}
            }
        }
        for ch in changes {
            match ch.old {
                NetClass::WinnerL => self.shed_cover(hg, ch.net, Side::Left),
                NetClass::WinnerR => self.shed_cover(hg, ch.net, Side::Right),
                _ => {}
            }
        }
        for ch in changes {
            match ch.new {
                NetClass::WinnerL => self.gain_cover(hg, ch.net, Side::Left),
                NetClass::WinnerR => self.gain_cover(hg, ch.net, Side::Right),
                _ => {}
            }
        }
    }

    fn shed_cover(&mut self, hg: &Hypergraph, net: u32, side: Side) {
        for &pin in hg.pins(NetId(net)) {
            let m = pin.index();
            let c = match side {
                Side::Left => &mut self.cover_l[m],
                Side::Right => &mut self.cover_r[m],
            };
            *c -= 1;
            if *c == 0 {
                self.retag(hg, m);
            }
        }
    }

    fn gain_cover(&mut self, hg: &Hypergraph, net: u32, side: Side) {
        for &pin in hg.pins(NetId(net)) {
            let m = pin.index();
            let c = match side {
                Side::Left => &mut self.cover_l[m],
                Side::Right => &mut self.cover_r[m],
            };
            *c += 1;
            if *c == 1 {
                self.retag(hg, m);
            }
        }
    }

    /// Re-derives module `m`'s tag from its cover counters and, if it
    /// changed, pushes the change through every incident net's pin-tag
    /// counts and the cut totals — `O(deg(m))`.
    fn retag(&mut self, hg: &Hypergraph, m: usize) {
        debug_assert!(
            !(self.cover_l[m] > 0 && self.cover_r[m] > 0),
            "V_L ∩ V_R nonempty at module {m}"
        );
        let new = if self.cover_l[m] > 0 {
            ModuleTag::WinL
        } else if self.cover_r[m] > 0 {
            ModuleTag::WinR
        } else {
            ModuleTag::Free
        };
        let old = self.tag[m];
        if old == new {
            return;
        }
        self.tag[m] = new;
        match old {
            ModuleTag::WinL => self.count_l -= 1,
            ModuleTag::WinR => self.count_r -= 1,
            ModuleTag::Free => {}
        }
        match new {
            ModuleTag::WinL => self.count_l += 1,
            ModuleTag::WinR => self.count_r += 1,
            ModuleTag::Free => {}
        }
        for &net in hg.nets_of(np_netlist::ModuleId(m as u32)) {
            let e = net.index();
            let (was_a, was_b) = self.contrib(hg, e);
            match old {
                ModuleTag::WinL => self.nl[e] -= 1,
                ModuleTag::WinR => self.nr[e] -= 1,
                ModuleTag::Free => {}
            }
            match new {
                ModuleTag::WinL => self.nl[e] += 1,
                ModuleTag::WinR => self.nr[e] += 1,
                ModuleTag::Free => {}
            }
            let (is_a, is_b) = self.contrib(hg, e);
            self.cut_a = self.cut_a + is_a as usize - was_a as usize;
            self.cut_b = self.cut_b + is_b as usize - was_b as usize;
        }
    }

    /// Both orientations of the current split, assembled from the
    /// maintained totals in `O(1)`.
    fn eval(&self, hg: &Hypergraph) -> OrientedEval {
        let n = hg.num_modules();
        OrientedEval {
            stats_a: CutStats {
                cut_nets: self.cut_a,
                left: n - self.count_r,
                right: self.count_r,
            },
            stats_b: CutStats {
                cut_nets: self.cut_b,
                left: self.count_l,
                right: n - self.count_l,
            },
            losers_a: self.losers + self.bprime_r,
            losers_b: self.losers + self.bprime_l,
        }
    }
}

/// One incremental IG-Match sweep over a sliding split: the maintained
/// matching, net classification and Phase II completion state, advanced
/// one net move at a time.
///
/// # Example
///
/// ```
/// use np_core::igmatch::{SplitMatcher, SweepState};
/// use np_core::models::{intersection_laplacian, IgWeighting};
/// use np_netlist::hypergraph_from_nets;
///
/// let hg = hypergraph_from_nets(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
/// let ig = intersection_laplacian(&hg, IgWeighting::default());
/// let mut sweep = SweepState::new(&hg, SplitMatcher::new(&ig));
/// let eval = sweep.advance(&hg, 0); // split {0} | {1, 2}
/// assert_eq!(eval.candidate().stats.cut_nets, 1);
/// assert_eq!(sweep.matching_size(), 1);
/// ```
pub struct SweepState {
    matcher: SplitMatcher,
    classifier: NetClassifier,
    completion: IncrementalCompletion,
    delta: MoveDelta,
    changes: Vec<NetClassChange>,
    #[cfg(debug_assertions)]
    oracle: CompletionOracle,
}

impl SweepState {
    /// A sweep at the initial all-`L` split, over `matcher`: a fresh
    /// all-`L` matcher of `hg`'s intersection graph (a clone of one saves
    /// rebuilding it).
    ///
    /// # Panics
    ///
    /// Panics if the matcher's net count is not `hg.num_nets()`.
    pub fn new(hg: &Hypergraph, matcher: SplitMatcher) -> Self {
        assert_eq!(
            matcher.len(),
            hg.num_nets(),
            "adjacency does not match the hypergraph"
        );
        debug_assert_eq!(matcher.matching_size(), 0, "matcher is not fresh");
        SweepState {
            matcher,
            classifier: NetClassifier::new(hg.num_nets()),
            completion: IncrementalCompletion::new(hg),
            delta: MoveDelta::default(),
            changes: Vec::new(),
            #[cfg(debug_assertions)]
            oracle: CompletionOracle::new(hg),
        }
    }

    /// Moves `net` across the split, refreshes the classification around
    /// the nets the move changed, folds the changes into the completion
    /// state, and returns both orientations of the new split.
    ///
    /// In debug builds the maintained evaluation is asserted equal to the
    /// from-scratch [`CompletionOracle`] on every advance.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range or already on the `R` side.
    pub fn advance(&mut self, hg: &Hypergraph, net: u32) -> OrientedEval {
        self.matcher.move_to_r_into(net, &mut self.delta);
        self.classifier
            .refresh(&self.matcher, &self.delta, &mut self.changes);
        self.completion.apply(hg, &self.changes);
        let eval = self.completion.eval(hg);
        #[cfg(debug_assertions)]
        {
            let class = self.matcher.classify();
            debug_assert_eq!(
                class.net_classes(hg.num_nets()),
                self.classifier.classes(),
                "incremental classification diverged from the oracle"
            );
            let reference = self.oracle.evaluate(hg, &class);
            debug_assert_eq!(
                reference, eval,
                "incremental completion diverged from the oracle"
            );
        }
        eval
    }

    /// Current size of the maintained maximum matching — the Theorem-3
    /// completion bound of the current split.
    pub fn matching_size(&self) -> usize {
        self.matcher.matching_size()
    }

    /// Both orientations of the current split (`O(1)`).
    pub fn eval(&self, hg: &Hypergraph) -> OrientedEval {
        self.completion.eval(hg)
    }

    /// Current class of one net.
    pub fn net_class(&self, net: u32) -> NetClass {
        self.classifier.class_of(net)
    }

    /// The Phase II tag of one module at the current split.
    pub fn module_tag(&self, m: usize) -> ModuleTag {
        self.completion.tag[m]
    }

    /// Builds the explicit partition of the current split for the chosen
    /// orientation.
    pub fn materialize(&self, hg: &Hypergraph, put_free_left: bool) -> Bipartition {
        let sides = (0..hg.num_modules())
            .map(|m| match self.completion.tag[m] {
                ModuleTag::WinL => Side::Left,
                ModuleTag::WinR => Side::Right,
                ModuleTag::Free => {
                    if put_free_left {
                        Side::Left
                    } else {
                        Side::Right
                    }
                }
            })
            .collect();
        Bipartition::from_sides(sides)
    }

    /// The `V_N` membership mask of the current split.
    pub fn free_mask(&self, hg: &Hypergraph) -> Vec<bool> {
        (0..hg.num_modules())
            .map(|m| self.completion.tag[m] == ModuleTag::Free)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{intersection_laplacian, IgWeighting};
    use np_netlist::hypergraph_from_nets;
    use np_sparse::Laplacian;

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

    /// Drives the from-scratch reference sweep one split at a time.
    fn oracle_eval(hg: &Hypergraph, ig: &Laplacian, prefix: &[u32]) -> OrientedEval {
        let mut matcher = SplitMatcher::new(ig);
        for &v in prefix {
            matcher.move_to_r(v);
        }
        let class = matcher.classify();
        CompletionOracle::new(hg).evaluate(hg, &class)
    }

    #[test]
    fn incremental_matches_oracle_at_every_split() {
        let hg = two_triangles();
        let ig = intersection_laplacian(&hg, IgWeighting::default());
        for order in [
            vec![0u32, 1, 2, 6, 3, 4, 5],
            vec![0u32, 3, 1, 4, 2, 5, 6],
            vec![6u32, 5, 4, 3, 2, 1, 0],
        ] {
            let mut sweep = SweepState::new(&hg, SplitMatcher::new(&ig));
            for k in 0..order.len() - 1 {
                let eval = sweep.advance(&hg, order[k]);
                assert_eq!(
                    eval,
                    oracle_eval(&hg, &ig, &order[..=k]),
                    "order {order:?} split {k}"
                );
            }
        }
    }

    #[test]
    fn initial_state_matches_all_left_oracle() {
        let hg = two_triangles();
        let ig = intersection_laplacian(&hg, IgWeighting::default());
        let sweep = SweepState::new(&hg, SplitMatcher::new(&ig));
        assert_eq!(sweep.eval(&hg), oracle_eval(&hg, &ig, &[]));
        assert_eq!(sweep.matching_size(), 0);
    }

    #[test]
    fn materialize_matches_oracle_partition() {
        let hg = two_triangles();
        let ig = intersection_laplacian(&hg, IgWeighting::default());
        let order = [0u32, 1, 2, 6, 3, 4];
        let mut sweep = SweepState::new(&hg, SplitMatcher::new(&ig));
        let mut matcher = SplitMatcher::new(&ig);
        let mut oracle = CompletionOracle::new(&hg);
        for &v in &order {
            let eval = sweep.advance(&hg, v);
            matcher.move_to_r(v);
            let reference = oracle.evaluate(&hg, &matcher.classify());
            assert_eq!(eval, reference);
            for put_free_left in [true, false] {
                assert_eq!(
                    sweep.materialize(&hg, put_free_left),
                    oracle.materialize(&hg, put_free_left)
                );
            }
            assert_eq!(sweep.free_mask(&hg), oracle.free_mask(&hg));
        }
    }

    #[test]
    fn isolated_net_is_an_o1_refresh() {
        // net 2 shares no module with anything else
        let hg = hypergraph_from_nets(6, &[vec![0, 1], vec![1, 2], vec![4, 5]]);
        let ig = intersection_laplacian(&hg, IgWeighting::default());
        let (offsets, _) = ig.pattern();
        assert_eq!(offsets[2], offsets[3]);
        let mut sweep = SweepState::new(&hg, SplitMatcher::new(&ig));
        let eval = sweep.advance(&hg, 2);
        assert_eq!(eval, oracle_eval(&hg, &ig, &[2]));
        assert_eq!(sweep.net_class(2), NetClass::WinnerR);
        assert_eq!(sweep.matching_size(), 0);
    }

    #[test]
    fn module_tags_track_winners() {
        let hg = two_triangles();
        let ig = intersection_laplacian(&hg, IgWeighting::default());
        let mut sweep = SweepState::new(&hg, SplitMatcher::new(&ig));
        for &v in &[0u32, 1, 2, 6] {
            sweep.advance(&hg, v);
        }
        // left triangle nets are all on R now; its modules pin right
        assert_eq!(sweep.module_tag(0), ModuleTag::WinR);
        assert_eq!(sweep.module_tag(4), ModuleTag::WinL);
    }
}
