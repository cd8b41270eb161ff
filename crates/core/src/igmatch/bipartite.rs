//! Incremental maximum matching in the bipartite conflict graph of a
//! sliding net-ordering split (paper §3, Figures 3 and 5).
//!
//! As the split point slides along the sorted eigenvector, nets move one
//! at a time from `L` to `R`. The bipartite graph `B(L, R, E_B)` — whose
//! edges are the intersection-graph edges crossing the split — changes
//! only locally per move, so a maximum matching can be *maintained* rather
//! than recomputed: unmatch the moving net, try one augmenting path from
//! its exposed ex-partner, then one from the moved net itself. Each repair
//! is a single `O(|V| + |E|)` alternating BFS, giving the paper's
//! `O(|V|·(|V|+|E|))` bound over all splits (Theorem 6).
//!
//! The winner/loser classification is maintained incrementally as well:
//! every move reports a [`MoveDelta`], and [`NetClassifier::refresh`]
//! re-runs the alternating BFS only inside the `B`-components touched by
//! that delta (see `DESIGN.md` §11 for the soundness argument). The
//! from-scratch [`SplitMatcher::classify_into`] is kept unchanged as the
//! oracle the incremental path is cross-checked against in debug builds.

use np_netlist::Side;

const NONE: u32 = u32::MAX;

/// One-bit-per-net side mask of the sliding split (bit set = `R` side).
///
/// The alternating BFS tests a vertex's side on every edge it scans;
/// packing sides 64-per-word keeps the whole mask in a few cache lines
/// (band-L's 8000 nets fit in 1 KiB) where a byte-per-net `Vec<Side>`
/// would stream 8× the data through L1.
#[derive(Clone, Debug)]
struct SideBits {
    words: Vec<u64>,
}

impl SideBits {
    fn all_left(n: usize) -> Self {
        SideBits {
            words: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    fn is_right(&self, v: u32) -> bool {
        (self.words[(v >> 6) as usize] >> (v & 63)) & 1 != 0
    }

    #[inline]
    fn set_right(&mut self, v: u32) {
        self.words[(v >> 6) as usize] |= 1u64 << (v & 63);
    }

    #[inline]
    fn side_of(&self, v: u32) -> Side {
        if self.is_right(v) {
            Side::Right
        } else {
            Side::Left
        }
    }
}

/// Epoch-stamped BFS scratch, structure-of-arrays: one visit stamp, one
/// predecessor and one queue slot per net, allocated once per matcher and
/// reused by every traversal — clearing between traversals is a single
/// epoch bump, never an `O(n)` reset.
#[derive(Clone, Debug)]
struct BfsArena {
    seen: Vec<u32>,
    prev: Vec<u32>,
    queue: Vec<u32>,
    epoch: u32,
}

impl BfsArena {
    fn new(n: usize) -> Self {
        BfsArena {
            seen: vec![0; n],
            prev: vec![NONE; n],
            queue: Vec::new(),
            epoch: 0,
        }
    }
}

/// Status labels from the alternating-path classification
/// (paper Figure 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Not reached from any unmatched vertex (member of `B'`).
    Unreached,
    /// `Even(L)`: an `L` vertex at even distance from an unmatched `L`
    /// vertex — a winner.
    EvenL,
    /// `Odd(L)`: an `R` vertex at odd distance from an unmatched `L`
    /// vertex — a loser.
    OddL,
    /// `Even(R)`: an `R` vertex at even distance from an unmatched `R`
    /// vertex — a winner.
    EvenR,
    /// `Odd(R)`: an `L` vertex at odd distance from an unmatched `R`
    /// vertex — a loser.
    OddR,
}

/// Result of classifying the vertices of `B` given a maximum matching:
/// the winner sets, the forced losers (the *critical set* of Hasan–Liu),
/// and the residual subgraph `B'` whose orientation Phase II decides.
///
/// All vertex lists hold net indices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SplitClassification {
    /// `Even(L)` — winner nets on the `L` side.
    pub winners_l: Vec<u32>,
    /// `Even(R)` — winner nets on the `R` side.
    pub winners_r: Vec<u32>,
    /// `Odd(L) ∪ Odd(R)` — nets every minimum vertex cover must contain.
    pub losers: Vec<u32>,
    /// `L ∩ B'` — matched, unreached `L` vertices.
    pub bprime_l: Vec<u32>,
    /// `R ∩ B'` — matched, unreached `R` vertices.
    pub bprime_r: Vec<u32>,
}

impl SplitClassification {
    fn clear(&mut self) {
        self.winners_l.clear();
        self.winners_r.clear();
        self.losers.clear();
        self.bprime_l.clear();
        self.bprime_r.clear();
    }

    /// Flattens the classification lists into one [`NetClass`] per net —
    /// the representation the incremental [`NetClassifier`] maintains, so
    /// the two can be compared element-wise in oracle cross-checks.
    ///
    /// # Panics
    ///
    /// Panics if a listed net index is `>= num_nets`.
    pub fn net_classes(&self, num_nets: usize) -> Vec<NetClass> {
        let mut out = vec![NetClass::WinnerL; num_nets];
        for &v in &self.winners_r {
            out[v as usize] = NetClass::WinnerR;
        }
        for &v in &self.losers {
            out[v as usize] = NetClass::Loser;
        }
        for &v in &self.bprime_l {
            out[v as usize] = NetClass::BPrimeL;
        }
        for &v in &self.bprime_r {
            out[v as usize] = NetClass::BPrimeR;
        }
        out
    }
}

/// The classification of one net at the current split, from the
/// alternating-path analysis of paper Figure 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetClass {
    /// `Even(L)` winner — pins its modules to the left side.
    WinnerL,
    /// `Even(R)` winner — pins its modules to the right side.
    WinnerR,
    /// `Odd(L) ∪ Odd(R)` — a forced loser, charged by every completion.
    Loser,
    /// Matched, unreached `L` vertex of the residual `B'`.
    BPrimeL,
    /// Matched, unreached `R` vertex of the residual `B'`.
    BPrimeR,
}

/// One net whose [`NetClass`] changed during a
/// [`NetClassifier::refresh`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetClassChange {
    /// The reclassified net.
    pub net: u32,
    /// Its class before the move.
    pub old: NetClass,
    /// Its class after the move.
    pub new: NetClass,
}

/// What one [`SplitMatcher::move_to_r`] changed: the moved net plus the
/// vertices whose matching partner changed (the detach and any augmenting
/// paths). [`NetClassifier::refresh`] keys its dirty region off this.
#[derive(Clone, Debug, Default)]
pub struct MoveDelta {
    /// The net that moved from `L` to `R`.
    pub moved: u32,
    /// The moved net's ex-partner, if it was matched before the move.
    pub detached: Option<u32>,
    /// Every vertex whose `mate` changed: the detached pair plus all
    /// vertices on the augmenting paths flipped by the repair.
    pub mates_changed: Vec<u32>,
    /// `false` iff the moved net has no intersection-graph neighbors at
    /// all, in which case `B`'s edge set and the matching are untouched
    /// and only the moved net itself reclassifies.
    pub structural: bool,
}

impl MoveDelta {
    fn reset(&mut self, moved: u32, structural: bool) {
        self.moved = moved;
        self.detached = None;
        self.mates_changed.clear();
        self.structural = structural;
    }
}

/// Maximum-matching maintenance over the crossing edges of an ordered
/// split of the intersection graph.
///
/// All nets start on the `L` side; [`move_to_r`](Self::move_to_r) slides
/// one net across and repairs the matching incrementally.
///
/// # Example
///
/// ```
/// use np_core::igmatch::SplitMatcher;
///
/// // intersection graph: 0-1, 1-2 (a path of three nets)
/// let neighbors = vec![vec![1], vec![0, 2], vec![1]];
/// let mut m = SplitMatcher::new(&neighbors);
/// assert_eq!(m.matching_size(), 0); // R empty, B empty
/// m.move_to_r(1);
/// assert_eq!(m.matching_size(), 1); // net 1 conflicts with 0 and 2
/// let c = m.classify();
/// assert_eq!(c.winners_l.len() + c.winners_r.len(), 2);
/// assert_eq!(c.losers.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SplitMatcher {
    /// Flattened CSR adjacency of the intersection graph: the neighbors
    /// of net `v` are `adj[adj_off[v]..adj_off[v + 1]]`. One contiguous
    /// array instead of a `Vec<Vec<u32>>`, so edge scans never chase a
    /// per-row heap pointer.
    adj_off: Vec<u32>,
    adj: Vec<u32>,
    n: usize,
    side: SideBits,
    mate: Vec<u32>,
    matching: usize,
    arena: BfsArena,
}

impl SplitMatcher {
    /// Creates a matcher with every net on the `L` side.
    ///
    /// `neighbors[v]` must list the intersection-graph neighbors of net
    /// `v` (symmetric, no self-loops) — see
    /// [`intersection_neighbors`](crate::models::intersection_neighbors).
    /// The adjacency is flattened into an owned CSR layout, so the
    /// matcher does not borrow `neighbors`.
    ///
    /// # Panics
    ///
    /// Panics if the net count or total edge-endpoint count reaches
    /// `u32::MAX`.
    pub fn new(neighbors: &[Vec<u32>]) -> Self {
        let n = neighbors.len();
        assert!(n < u32::MAX as usize, "net count overflows u32 indices");
        let total: usize = neighbors.iter().map(Vec::len).sum();
        assert!(
            total < u32::MAX as usize,
            "edge count overflows u32 offsets"
        );
        let mut adj_off = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(total);
        adj_off.push(0u32);
        for nb in neighbors {
            adj.extend_from_slice(nb);
            adj_off.push(adj.len() as u32);
        }
        SplitMatcher {
            adj_off,
            adj,
            n,
            side: SideBits::all_left(n),
            mate: vec![NONE; n],
            matching: 0,
            arena: BfsArena::new(n),
        }
    }

    /// Number of nets.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the matcher tracks zero nets.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The intersection-graph neighbors of net `v` (flattened CSR row).
    #[inline]
    fn nbrs(&self, v: u32) -> &[u32] {
        &self.adj[self.adj_off[v as usize] as usize..self.adj_off[v as usize + 1] as usize]
    }

    /// Current size of the maintained maximum matching — by König's
    /// theorem (paper Theorems 2–3) also the size of a minimum vertex
    /// cover of `B`, i.e. the best achievable loser count for this split.
    pub fn matching_size(&self) -> usize {
        self.matching
    }

    /// The side net `v` is currently on.
    pub fn side_of(&self, v: u32) -> Side {
        self.side.side_of(v)
    }

    /// Moves net `v` from `L` to `R`, repairing the matching, and returns
    /// the [`MoveDelta`] describing what changed. Use
    /// [`move_to_r_into`](Self::move_to_r_into) in hot loops to reuse the
    /// delta's buffers.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or already on the `R` side.
    pub fn move_to_r(&mut self, v: u32) -> MoveDelta {
        let mut delta = MoveDelta::default();
        self.move_to_r_into(v, &mut delta);
        delta
    }

    /// [`move_to_r`](Self::move_to_r) writing the delta into a reusable
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or already on the `R` side.
    pub fn move_to_r_into(&mut self, v: u32, delta: &mut MoveDelta) {
        assert_eq!(
            self.side.side_of(v),
            Side::Left,
            "net {v} is already on the R side"
        );
        delta.reset(v, self.adj_off[v as usize] != self.adj_off[v as usize + 1]);
        // detach v from its partner (an R vertex), if any
        let exposed = self.mate[v as usize];
        if exposed != NONE {
            self.mate[v as usize] = NONE;
            self.mate[exposed as usize] = NONE;
            self.matching -= 1;
            delta.detached = Some(exposed);
            delta.mates_changed.push(v);
            delta.mates_changed.push(exposed);
        }
        self.side.set_right(v);
        // the exposed ex-partner may re-match through another L vertex
        if exposed != NONE {
            let flipped_from = delta.mates_changed.len();
            if self.augment_from_r(exposed, &mut delta.mates_changed) {
                self.matching += 1;
            } else {
                delta.mates_changed.truncate(flipped_from);
            }
        }
        // the moved net's edges to L are new in B; one augmentation
        // attempt restores maximality
        let flipped_from = delta.mates_changed.len();
        if self.augment_from_r(v, &mut delta.mates_changed) {
            self.matching += 1;
        } else {
            delta.mates_changed.truncate(flipped_from);
        }
    }

    /// Alternating BFS from the unmatched `R` vertex `start`; augments and
    /// returns `true` if an augmenting path to an unmatched `L` vertex
    /// exists. Vertices whose mate is flipped are appended to `flipped`
    /// (the caller truncates them away on a failed attempt).
    fn augment_from_r(&mut self, start: u32, flipped: &mut Vec<u32>) -> bool {
        debug_assert!(self.side.is_right(start));
        debug_assert_eq!(self.mate[start as usize], NONE);
        let Self {
            adj_off,
            adj,
            side,
            mate,
            arena,
            ..
        } = self;
        arena.epoch += 1;
        let epoch = arena.epoch;
        arena.queue.clear();
        arena.queue.push(start);
        let mut head = 0;
        while head < arena.queue.len() {
            let y = arena.queue[head];
            head += 1;
            for &x in &adj[adj_off[y as usize] as usize..adj_off[y as usize + 1] as usize] {
                if side.is_right(x) || arena.seen[x as usize] == epoch {
                    continue;
                }
                arena.seen[x as usize] = epoch;
                arena.prev[x as usize] = y;
                let next = mate[x as usize];
                if next == NONE {
                    // augment along the stored path
                    let mut x = x;
                    loop {
                        let y = arena.prev[x as usize];
                        let continue_from = mate[y as usize];
                        mate[x as usize] = y;
                        mate[y as usize] = x;
                        flipped.push(x);
                        flipped.push(y);
                        if continue_from == NONE {
                            return true;
                        }
                        x = continue_from;
                    }
                }
                arena.queue.push(next);
            }
        }
        false
    }

    /// Classifies all vertices into winners (`Even` sets), forced losers
    /// (`Odd` sets) and the residual `B'` (paper §3, Figure 3), writing
    /// into `out` (cleared first). `O(|V| + |E|)`.
    ///
    /// The classification is independent of which maximum matching is
    /// maintained (Hasan–Liu \[17\], paper footnote 4).
    pub fn classify_into(&mut self, out: &mut SplitClassification) {
        out.clear();
        let n = self.len();
        let mut status = vec![Status::Unreached; n];
        // Take the queue out of the arena so the BFS below can borrow
        // `self` immutably for adjacency/side/mate reads.
        let mut queue = std::mem::take(&mut self.arena.queue);

        // BFS from unmatched L vertices: Even(L) winners, Odd(L) losers
        queue.clear();
        for v in 0..n as u32 {
            if !self.side.is_right(v) && self.mate[v as usize] == NONE {
                status[v as usize] = Status::EvenL;
                queue.push(v);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            for &y in self.nbrs(x) {
                if !self.side.is_right(y) {
                    continue;
                }
                if status[y as usize] != Status::Unreached {
                    continue;
                }
                status[y as usize] = Status::OddL;
                let x2 = self.mate[y as usize];
                debug_assert_ne!(
                    x2, NONE,
                    "unmatched R vertex reachable from unmatched L vertex: \
                     matching was not maximum"
                );
                if status[x2 as usize] == Status::Unreached {
                    status[x2 as usize] = Status::EvenL;
                    queue.push(x2);
                }
            }
        }

        // BFS from unmatched R vertices: Even(R) winners, Odd(R) losers
        queue.clear();
        for v in 0..n as u32 {
            if self.side.is_right(v) && self.mate[v as usize] == NONE {
                debug_assert_eq!(status[v as usize], Status::Unreached);
                status[v as usize] = Status::EvenR;
                queue.push(v);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let y = queue[head];
            head += 1;
            for &x in self.nbrs(y) {
                if self.side.is_right(x) {
                    continue;
                }
                if status[x as usize] != Status::Unreached {
                    debug_assert_ne!(
                        status[x as usize],
                        Status::EvenL,
                        "L vertex reachable from both unmatched sides: \
                         augmenting path missed"
                    );
                    continue;
                }
                status[x as usize] = Status::OddR;
                let y2 = self.mate[x as usize];
                debug_assert_ne!(y2, NONE);
                if status[y2 as usize] == Status::Unreached {
                    status[y2 as usize] = Status::EvenR;
                    queue.push(y2);
                }
            }
        }
        self.arena.queue = queue;

        for v in 0..n as u32 {
            match status[v as usize] {
                Status::EvenL => out.winners_l.push(v),
                Status::EvenR => out.winners_r.push(v),
                Status::OddL | Status::OddR => out.losers.push(v),
                Status::Unreached => {
                    if self.side.is_right(v) {
                        out.bprime_r.push(v);
                    } else {
                        out.bprime_l.push(v);
                    }
                }
            }
        }
    }

    /// Convenience wrapper allocating a fresh [`SplitClassification`].
    pub fn classify(&mut self) -> SplitClassification {
        let mut out = SplitClassification::default();
        self.classify_into(&mut out);
        out
    }

    /// Checks that the maintained matching is a valid matching over the
    /// current crossing edges (test/debug helper).
    pub fn matching_is_valid(&self) -> bool {
        let mut count = 0usize;
        for v in 0..self.len() as u32 {
            let m = self.mate[v as usize];
            if m == NONE {
                continue;
            }
            count += 1;
            if self.mate[m as usize] != v {
                return false;
            }
            if self.side.is_right(v) == self.side.is_right(m) {
                return false;
            }
            if !self.nbrs(v).contains(&m) {
                return false;
            }
        }
        count == 2 * self.matching
    }
}

/// Incrementally-maintained winner/loser classification of every net,
/// updated in `O(Δ)` per split instead of re-running the full
/// alternating BFS (paper Figure 3) from scratch.
///
/// The key structural fact (`DESIGN.md` §11): a vertex's class depends
/// only on its connected component of `B` (alternating paths are in
/// particular `B`-paths, and every BFS seed — an unmatched vertex — that
/// can reach a component lies inside it). One `move_to_r(v)` changes only
/// edges incident to `v` and mates inside the components of `v` and its
/// ex-partner, so re-running the classification inside the current
/// components of `{v} ∪ N(v)` — and nowhere else — reproduces the
/// from-scratch result exactly. When the moved net is isolated
/// ([`MoveDelta::structural`] is `false`), the refresh is an `O(1)`
/// relabel of the moved net alone.
///
/// # Example
///
/// ```
/// use np_core::igmatch::{NetClass, NetClassifier, SplitMatcher};
///
/// let neighbors = vec![vec![1], vec![0, 2], vec![1]];
/// let mut m = SplitMatcher::new(&neighbors);
/// let mut c = NetClassifier::new(m.len());
/// let mut changes = Vec::new();
/// let delta = m.move_to_r(1);
/// c.refresh(&m, &delta, &mut changes);
/// assert_eq!(c.class_of(1), NetClass::Loser);
/// assert_eq!(c.classes(), m.classify().net_classes(3).as_slice());
/// ```
#[derive(Clone, Debug)]
pub struct NetClassifier {
    /// Current class of every net — the maintained state.
    class: Vec<NetClass>,
    /// Flood-fill visit stamps delimiting the affected region.
    visit: Vec<u32>,
    /// Alternating-BFS reach stamps within the region.
    mark: Vec<u32>,
    /// Tentative class of vertices marked this epoch.
    newclass: Vec<NetClass>,
    epoch: u32,
    region: Vec<u32>,
    queue: Vec<u32>,
}

impl NetClassifier {
    /// Classifier for `n` nets in the initial all-`L` state, where every
    /// net is an unmatched `Even(L)` winner.
    pub fn new(n: usize) -> Self {
        NetClassifier {
            class: vec![NetClass::WinnerL; n],
            visit: vec![0; n],
            mark: vec![0; n],
            newclass: vec![NetClass::WinnerL; n],
            epoch: 0,
            region: Vec::new(),
            queue: Vec::new(),
        }
    }

    /// Current class of net `v`.
    pub fn class_of(&self, v: u32) -> NetClass {
        self.class[v as usize]
    }

    /// Current class of every net.
    pub fn classes(&self) -> &[NetClass] {
        &self.class
    }

    /// Updates the classification after `matcher` performed the move
    /// described by `delta`, appending every reclassified net to
    /// `changes` (cleared first).
    ///
    /// A no-op (beyond relabeling the moved net) when the matching
    /// structure is untouched; otherwise the alternating BFS re-runs only
    /// inside the `B`-components containing the moved net or one of its
    /// intersection-graph neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `matcher` tracks a different net count than this
    /// classifier was built for.
    pub fn refresh(
        &mut self,
        matcher: &SplitMatcher,
        delta: &MoveDelta,
        changes: &mut Vec<NetClassChange>,
    ) {
        assert_eq!(matcher.len(), self.class.len(), "net count mismatch");
        changes.clear();
        let v = delta.moved;
        if !delta.structural {
            // isolated net: unmatched on either side, trivially Even
            debug_assert!(delta.mates_changed.is_empty());
            debug_assert_eq!(self.class[v as usize], NetClass::WinnerL);
            self.record(v, NetClass::WinnerR, changes);
            return;
        }
        self.epoch += 1;
        let epoch = self.epoch;

        // 1. Affected region: the full components (over crossing edges)
        //    of the moved net and all its neighbors. Every edge change is
        //    incident to `v`, every mate change lies on an augmenting
        //    path from `v` or its ex-partner (a neighbor of `v`), and a
        //    component split off by the move retains a neighbor of `v` —
        //    so everything that can reclassify is in here.
        self.region.clear();
        self.queue.clear();
        self.seed_region(v, epoch);
        for &u in matcher.nbrs(v) {
            self.seed_region(u, epoch);
        }
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let u_right = matcher.side.is_right(u);
            for &w in matcher.nbrs(u) {
                if matcher.side.is_right(w) != u_right && self.visit[w as usize] != epoch {
                    self.seed_region(w, epoch);
                }
            }
        }
        debug_assert!(delta
            .mates_changed
            .iter()
            .all(|&u| self.visit[u as usize] == epoch));

        // 2. Alternating BFS from the region's unmatched `L` vertices:
        //    Even(L) winners, Odd(L) losers (paper Figure 3).
        self.queue.clear();
        for i in 0..self.region.len() {
            let u = self.region[i];
            if !matcher.side.is_right(u) && matcher.mate[u as usize] == NONE {
                self.mark[u as usize] = epoch;
                self.newclass[u as usize] = NetClass::WinnerL;
                self.queue.push(u);
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let x = self.queue[head];
            head += 1;
            for &y in matcher.nbrs(x) {
                if !matcher.side.is_right(y) || self.mark[y as usize] == epoch {
                    continue;
                }
                self.mark[y as usize] = epoch;
                self.newclass[y as usize] = NetClass::Loser; // Odd(L)
                let x2 = matcher.mate[y as usize];
                debug_assert_ne!(
                    x2, NONE,
                    "unmatched R vertex reachable from unmatched L vertex: \
                     matching was not maximum"
                );
                if self.mark[x2 as usize] != epoch {
                    self.mark[x2 as usize] = epoch;
                    self.newclass[x2 as usize] = NetClass::WinnerL;
                    self.queue.push(x2);
                }
            }
        }

        // 3. Alternating BFS from the region's unmatched `R` vertices:
        //    Even(R) winners, Odd(R) losers.
        self.queue.clear();
        for i in 0..self.region.len() {
            let u = self.region[i];
            if matcher.side.is_right(u) && matcher.mate[u as usize] == NONE {
                debug_assert_ne!(self.mark[u as usize], epoch);
                self.mark[u as usize] = epoch;
                self.newclass[u as usize] = NetClass::WinnerR;
                self.queue.push(u);
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let y = self.queue[head];
            head += 1;
            for &x in matcher.nbrs(y) {
                if matcher.side.is_right(x) {
                    continue;
                }
                if self.mark[x as usize] == epoch {
                    debug_assert_ne!(
                        self.newclass[x as usize],
                        NetClass::WinnerL,
                        "L vertex reachable from both unmatched sides: \
                         augmenting path missed"
                    );
                    continue;
                }
                self.mark[x as usize] = epoch;
                self.newclass[x as usize] = NetClass::Loser; // Odd(R)
                let y2 = matcher.mate[x as usize];
                debug_assert_ne!(y2, NONE);
                if self.mark[y2 as usize] != epoch {
                    self.mark[y2 as usize] = epoch;
                    self.newclass[y2 as usize] = NetClass::WinnerR;
                    self.queue.push(y2);
                }
            }
        }

        // 4. Finalize: unreached region vertices are matched members of
        //    B'; diff everything against the stored classes.
        for i in 0..self.region.len() {
            let u = self.region[i];
            let new = if self.mark[u as usize] == epoch {
                self.newclass[u as usize]
            } else {
                debug_assert_ne!(matcher.mate[u as usize], NONE);
                if matcher.side.is_right(u) {
                    NetClass::BPrimeR
                } else {
                    NetClass::BPrimeL
                }
            };
            self.record(u, new, changes);
        }
    }

    fn seed_region(&mut self, u: u32, epoch: u32) {
        if self.visit[u as usize] != epoch {
            self.visit[u as usize] = epoch;
            self.region.push(u);
            self.queue.push(u);
        }
    }

    fn record(&mut self, net: u32, new: NetClass, changes: &mut Vec<NetClassChange>) {
        let old = self.class[net as usize];
        if old != new {
            self.class[net as usize] = new;
            changes.push(NetClassChange { net, old, new });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force maximum matching size over the crossing edges, for
    /// validating the incremental maintenance.
    fn brute_force_mm(neighbors: &[Vec<u32>], in_r: &[bool]) -> usize {
        fn try_kuhn(
            x: u32,
            neighbors: &[Vec<u32>],
            in_r: &[bool],
            seen: &mut [bool],
            mate: &mut [u32],
        ) -> bool {
            for &y in &neighbors[x as usize] {
                if !in_r[y as usize] || seen[y as usize] {
                    continue;
                }
                seen[y as usize] = true;
                if mate[y as usize] == NONE
                    || try_kuhn(mate[y as usize], neighbors, in_r, seen, mate)
                {
                    mate[y as usize] = x;
                    return true;
                }
            }
            false
        }
        let n = neighbors.len();
        let mut mate = vec![NONE; n];
        let mut size = 0;
        for x in 0..n as u32 {
            if in_r[x as usize] {
                continue;
            }
            let mut seen = vec![false; n];
            if try_kuhn(x, neighbors, in_r, &mut seen, &mut mate) {
                size += 1;
            }
        }
        size
    }

    fn path_graph(n: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push(i as u32 - 1);
                }
                if i + 1 < n {
                    v.push(i as u32 + 1);
                }
                v
            })
            .collect()
    }

    #[test]
    fn empty_r_side_no_matching() {
        let nb = path_graph(4);
        let mut m = SplitMatcher::new(&nb);
        assert_eq!(m.matching_size(), 0);
        let c = m.classify();
        assert_eq!(c.winners_l.len(), 4);
        assert!(c.losers.is_empty());
    }

    #[test]
    fn single_move_matches_crossing_edge() {
        let nb = path_graph(3);
        let mut m = SplitMatcher::new(&nb);
        m.move_to_r(1);
        assert_eq!(m.matching_size(), 1);
        assert!(m.matching_is_valid());
        // net 1 (R) is matched to 0 or 2; the other L net is a free winner
        let c = m.classify();
        assert_eq!(c.losers.len(), 1);
        assert_eq!(c.winners_l.len() + c.winners_r.len(), 2);
    }

    #[test]
    fn incremental_matches_brute_force_on_path() {
        let nb = path_graph(9);
        let mut m = SplitMatcher::new(&nb);
        let mut in_r = vec![false; 9];
        for v in [4u32, 1, 7, 0, 8, 3] {
            m.move_to_r(v);
            in_r[v as usize] = true;
            assert!(m.matching_is_valid());
            assert_eq!(
                m.matching_size(),
                brute_force_mm(&nb, &in_r),
                "after moving {v}"
            );
        }
    }

    #[test]
    fn incremental_matches_brute_force_on_dense_graph() {
        // complete graph K7 as intersection graph
        let n = 7;
        let nb: Vec<Vec<u32>> = (0..n)
            .map(|i| (0..n as u32).filter(|&j| j != i as u32).collect())
            .collect();
        let mut m = SplitMatcher::new(&nb);
        let mut in_r = vec![false; n];
        for v in 0..n as u32 - 1 {
            m.move_to_r(v);
            in_r[v as usize] = true;
            assert!(m.matching_is_valid());
            assert_eq!(m.matching_size(), brute_force_mm(&nb, &in_r));
        }
    }

    #[test]
    fn classification_winners_are_independent() {
        // star: center 0 adjacent to 1..5
        let mut nb = vec![vec![1, 2, 3, 4, 5]];
        for _ in 0..5 {
            nb.push(vec![0]);
        }
        let mut m = SplitMatcher::new(&nb);
        m.move_to_r(0);
        assert_eq!(m.matching_size(), 1);
        let c = m.classify();
        // center is the unique loser; all leaves are winners
        assert_eq!(c.losers, vec![0]);
        assert_eq!(c.winners_l.len(), 5);
        assert!(c.winners_r.is_empty());
    }

    #[test]
    fn bprime_appears_when_no_free_vertices_reach_pairs() {
        // two disjoint crossing edges, all four vertices matched, no free
        // vertices anywhere: everything matched lands in B'
        let nb = vec![vec![1], vec![0], vec![3], vec![2]];
        let mut m = SplitMatcher::new(&nb);
        m.move_to_r(1);
        m.move_to_r(3);
        assert_eq!(m.matching_size(), 2);
        let c = m.classify();
        assert!(c.winners_l.is_empty());
        assert!(c.winners_r.is_empty());
        assert!(c.losers.is_empty());
        assert_eq!(c.bprime_l, vec![0, 2]);
        assert_eq!(c.bprime_r, vec![1, 3]);
    }

    #[test]
    fn losers_bounded_by_matching() {
        let nb = path_graph(12);
        let mut m = SplitMatcher::new(&nb);
        for v in [5u32, 2, 9, 0, 7, 11, 4] {
            m.move_to_r(v);
            let c = m.classify();
            assert!(
                c.losers.len() + c.bprime_l.len().min(c.bprime_r.len()) <= m.matching_size(),
                "after {v}: losers {} bprime {}/{} mm {}",
                c.losers.len(),
                c.bprime_l.len(),
                c.bprime_r.len(),
                m.matching_size()
            );
        }
    }

    #[test]
    fn classification_partitions_all_vertices() {
        let nb = path_graph(10);
        let mut m = SplitMatcher::new(&nb);
        for v in [3u32, 6, 1, 8] {
            m.move_to_r(v);
            let c = m.classify();
            let total = c.winners_l.len()
                + c.winners_r.len()
                + c.losers.len()
                + c.bprime_l.len()
                + c.bprime_r.len();
            assert_eq!(total, 10);
        }
    }

    #[test]
    #[should_panic(expected = "already on the R side")]
    fn double_move_panics() {
        let nb = path_graph(3);
        let mut m = SplitMatcher::new(&nb);
        m.move_to_r(1);
        m.move_to_r(1);
    }

    #[test]
    fn full_sweep_ends_with_empty_l() {
        let nb = path_graph(6);
        let mut m = SplitMatcher::new(&nb);
        for v in 0..6u32 {
            m.move_to_r(v);
        }
        assert_eq!(m.matching_size(), 0); // everything on R, B empty
        let c = m.classify();
        assert_eq!(c.winners_r.len(), 6);
    }
}
