//! Incremental maximum matching in the bipartite conflict graph of a
//! sliding net-ordering split (paper §3, Figures 3 and 5).
//!
//! As the split point slides along the sorted eigenvector, nets move one
//! at a time from `L` to `R`. The bipartite graph `B(L, R, E_B)` — whose
//! edges are the intersection-graph edges crossing the split — changes
//! only locally per move, so a maximum matching can be *maintained* rather
//! than recomputed: unmatch the moving net, try one augmenting path from
//! its exposed ex-partner, then one from the moved net itself. Each repair
//! is a single alternating BFS over `E_B`, `O(|V| + |E_B|)`, giving the
//! paper's `O(|V|·(|V|+|E|))` bound over all splits (Theorem 6).
//!
//! Every adjacency row is kept split by side, `R` neighbours first, so
//! each scan walks exactly a net's `B` edges (its neighbours across the
//! split) and never tests and skips a same-side entry. A move re-sorts
//! only its neighbours' rows, one swap each (`DESIGN.md` §11).
//!
//! The winner/loser classification is maintained incrementally as well:
//! every move reports a [`MoveDelta`], and [`NetClassifier::refresh`]
//! updates the two alternating-reachability sets every class is read
//! from — backward searches re-verify the few nets the delta can cut off,
//! forward growth adds what it made reachable — falling back to a flood
//! of the touched `B`-components past a fixed work cap (see `DESIGN.md`
//! §11 for the soundness argument). The from-scratch
//! [`SplitMatcher::classify_into`] is kept unchanged as the oracle the
//! incremental path is cross-checked against in debug builds.

use np_netlist::Side;
use np_sparse::Laplacian;

const NONE: u32 = u32::MAX;

/// One-bit-per-net side mask of the sliding split (bit set = `R` side).
///
/// Scans never test a neighbour's side (the side-split rows already
/// hold only crossing edges); the mask answers the point tests — which
/// slice of a row to walk, roots, classes — in a few cache lines
/// (band-L's 8000 nets fit in 1 KiB).
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
/// paths). [`NetClassifier::refresh`] re-verifies only around these.
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
/// use np_core::models::{intersection_laplacian, IgWeighting};
/// use np_netlist::hypergraph_from_nets;
///
/// // nets {0,1}, {1,2}, {2,3}: the intersection graph is the path 0-1-2
/// let hg = hypergraph_from_nets(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
/// let mut m = SplitMatcher::new(&intersection_laplacian(&hg, IgWeighting::default()));
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
    /// of net `v` are `adj[adj_off[v]..adj_off[v + 1]]`, its `R`-side
    /// neighbors first: `adj[adj_off[v]..r_end[v]]` are on `R`,
    /// `adj[r_end[v]..adj_off[v + 1]]` on `L`. A net's `B` edges are the
    /// one slice across from its own side ([`cross`](Self::cross)).
    adj_off: Vec<u32>,
    adj: Vec<u32>,
    /// End of each row's `R` part.
    r_end: Vec<u32>,
    /// The reverse of every entry: if `adj[i]` is `w` in `v`'s row, then
    /// `adj[mirror[i]]` is `v` in `w`'s row, and `mirror[mirror[i]] == i`.
    /// It lets a move find its entry in each neighbour's row in `O(1)`.
    mirror: Vec<u32>,
    n: usize,
    side: SideBits,
    mate: Vec<u32>,
    matching: usize,
    arena: BfsArena,
}

impl SplitMatcher {
    /// Creates a matcher with every net on the `L` side over the sparsity
    /// pattern of an intersection-graph Laplacian: under any weighting
    /// (see [`intersection_laplacian`](crate::models::intersection_laplacian)),
    /// a split's conflict edges are exactly the intersection-graph edges
    /// that cross it. The pattern is read once from the operator's layout
    /// ([`Laplacian::pattern`]) into an owned CSR layout, so the matcher
    /// does not borrow `ig`.
    ///
    /// # Panics
    ///
    /// Panics if the net count or total edge-endpoint count reaches
    /// `u32::MAX`, or if the pattern is not symmetric or has a self-loop.
    pub fn new(ig: &Laplacian) -> Self {
        let (adj_off, adj) = ig.pattern();
        let n = adj_off.len() - 1;
        assert!(n < u32::MAX as usize, "net count overflows u32 indices");
        let total = adj.len();
        assert!(
            total < u32::MAX as usize,
            "edge count overflows u32 offsets"
        );
        // Pair every entry with its reverse. With sorted rows, the
        // entries of row `w` above `w` are met in order as `u` ascends.
        let mut mirror = vec![NONE; total];
        let mut next: Vec<u32> = (0..n)
            .map(|w| {
                let (lo, hi) = (adj_off[w] as usize, adj_off[w + 1] as usize);
                (lo + adj[lo..hi].partition_point(|&x| (x as usize) <= w)) as u32
            })
            .collect();
        for u in 0..n {
            for i in adj_off[u] as usize..adj_off[u + 1] as usize {
                let w = adj[i] as usize;
                assert_ne!(w, u, "self-loop at net {u}");
                if w > u {
                    continue;
                }
                let j = next[w] as usize;
                assert!(
                    j < adj_off[w + 1] as usize && adj[j] as usize == u,
                    "adjacency is not symmetric at nets {u} and {w}"
                );
                mirror[i] = j as u32;
                mirror[j] = i as u32;
                next[w] += 1;
            }
        }
        assert!(
            (0..n).all(|w| next[w] == adj_off[w + 1]),
            "adjacency is not symmetric"
        );
        SplitMatcher {
            r_end: adj_off[..n].to_vec(),
            adj_off,
            adj,
            mirror,
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

    /// The neighbors of net `v` on the `R` side if `right`, else on `L`.
    #[inline]
    fn nbrs_on(&self, v: u32, right: bool) -> &[u32] {
        let mid = self.r_end[v as usize] as usize;
        if right {
            &self.adj[self.adj_off[v as usize] as usize..mid]
        } else {
            &self.adj[mid..self.adj_off[v as usize + 1] as usize]
        }
    }

    /// Net `v`'s edges in `B`: its neighbors across the split.
    #[inline]
    fn cross(&self, v: u32) -> &[u32] {
        self.nbrs_on(v, !self.side.is_right(v))
    }

    /// The arcs out of net `u` in the alternating-reachability graph whose
    /// roots are the unmatched nets on the `right` side: a root-side net
    /// points at all its `B` neighbours, any other net at its mate.
    #[inline]
    fn arcs_out(&self, u: u32, right: bool) -> &[u32] {
        if self.side.is_right(u) == right {
            self.cross(u)
        } else {
            self.mate_arc(u)
        }
    }

    /// The arcs into net `u` of the same graph as [`arcs_out`](Self::arcs_out).
    #[inline]
    fn arcs_in(&self, u: u32, right: bool) -> &[u32] {
        if self.side.is_right(u) == right {
            self.mate_arc(u)
        } else {
            self.cross(u)
        }
    }

    /// Net `u`'s mate as a zero- or one-element slice.
    #[inline]
    fn mate_arc(&self, u: u32) -> &[u32] {
        match self.mate[u as usize] {
            NONE => &[],
            _ => std::slice::from_ref(&self.mate[u as usize]),
        }
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
        // v's entry in every neighbour's row moves into that row's R part
        let Self {
            adj_off,
            adj,
            r_end,
            mirror,
            ..
        } = self;
        for i in adj_off[v as usize] as usize..adj_off[v as usize + 1] as usize {
            let w = adj[i] as usize;
            let j = mirror[i] as usize;
            let p = r_end[w] as usize;
            debug_assert!(p <= j, "net {v} was already in the R part of row {w}");
            if j != p {
                // entry p (some L-side x) trades places with entry j (v)
                let q = mirror[p] as usize;
                adj.swap(j, p);
                mirror[p] = i as u32;
                mirror[i] = p as u32;
                mirror[j] = q as u32;
                mirror[q] = j as u32;
            }
            r_end[w] += 1;
        }
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
            r_end,
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
            // y is on R: its B edges are the L part of its row
            for &x in &adj[r_end[y as usize] as usize..adj_off[y as usize + 1] as usize] {
                debug_assert!(!side.is_right(x));
                if arena.seen[x as usize] == epoch {
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
    /// into `out` (cleared first). `O(|V| + |E_B|)`.
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
            for &y in self.nbrs_on(x, true) {
                debug_assert!(self.side.is_right(y));
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
            for &x in self.nbrs_on(y, false) {
                debug_assert!(!self.side.is_right(x));
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
            if !self.cross(v).contains(&m) {
                return false;
            }
        }
        count == 2 * self.matching
    }
}

/// Membership bits of the two alternating-reachability sets every class
/// is read from: `IN_DL` — reachable from an unmatched `L` net (`Even(L)`
/// on `L`, `Odd(L)` on `R`); `IN_DR` — reachable from an unmatched `R` net
/// (`Even(R)` on `R`, `Odd(R)` on `L`). Under a maximum matching the two
/// sets are disjoint.
const IN_DL: u8 = 1;
const IN_DR: u8 = 2;

/// Per-pass marks of [`NetClassifier`]'s local update: proven still
/// reachable, proven unreachable, on the current backward search.
const VERIFIED: u8 = 1;
const DEAD: u8 = 2;
const SEEN: u8 = 4;
/// Marks a net of the fallback flood's region.
const REGION: u8 = 8;

/// `B` adjacency entries one refresh may scan before the local update
/// gives up and the fallback flood re-derives the touched components
/// instead.
const WORK_CAP: usize = 1 << 16;

/// The class a net's reachability and side imply (paper Figure 3).
fn class_from(reach: u8, right: bool) -> NetClass {
    debug_assert_ne!(
        reach,
        IN_DL | IN_DR,
        "net reachable from both unmatched sides: matching was not maximum"
    );
    match (reach, right) {
        (IN_DL, false) => NetClass::WinnerL,
        (IN_DR, true) => NetClass::WinnerR,
        (IN_DL, true) | (IN_DR, false) => NetClass::Loser,
        (_, false) => NetClass::BPrimeL,
        (_, true) => NetClass::BPrimeR,
    }
}

/// How one backward search ended.
enum Search {
    /// The search met a root or a net verified earlier in this pass.
    Reached,
    /// The search ran out of predecessors: its whole ancestor set is
    /// unreachable.
    Unreachable,
    /// The refresh passed [`WORK_CAP`].
    OverCap,
}

/// Incrementally-maintained winner/loser classification of every net,
/// updated per split in time that follows what the move changed instead
/// of re-running the full alternating BFS (paper Figure 3).
///
/// Every class is read from two reachability sets (`DESIGN.md` §11):
/// `D_L`, the nets alternating paths reach from the unmatched `L` nets,
/// and `D_R`, likewise from the unmatched `R` nets. Each is reachability
/// in a directed graph — `L` nets point at all their `R` neighbours and
/// `R` nets at their mates for `D_L`, mirrored for `D_R` — and one
/// `move_to_r(v)` changes only arcs at `v` and at the nets in
/// [`MoveDelta::mates_changed`]. [`refresh`](Self::refresh) therefore
///
/// 1. re-verifies only the nets that can lose reach — `{v} ∪
///    mates_changed`, plus `v`'s `R` neighbours in `D_L` when `v` was a
///    `WinnerL` — each by a backward search that stops at the first
///    unmatched net or at a net verified earlier in the refresh;
/// 2. marks the ancestor set of every failed search unreachable and
///    re-verifies the out-neighbours of its nets that were reached
///    before;
/// 3. grows each set forward from new roots and from the changed nets
///    still in it, into nets that were unreached.
///
/// By Gallai–Edmonds the sets do not depend on which maximum matching the
/// matcher holds, so the result equals the from-scratch
/// [`SplitMatcher::classify`] bit for bit. Past a fixed work cap a refresh
/// falls back to re-flooding the `B`-components of the moved net and its
/// neighbours. When the moved net is isolated ([`MoveDelta::structural`]
/// is `false`), the refresh is an `O(1)` relabel of the moved net alone.
///
/// # Example
///
/// ```
/// use np_core::igmatch::{NetClass, NetClassifier, SplitMatcher};
/// use np_core::models::{intersection_laplacian, IgWeighting};
/// use np_netlist::hypergraph_from_nets;
///
/// // nets {0,1}, {1,2}, {2,3}: the intersection graph is the path 0-1-2
/// let hg = hypergraph_from_nets(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
/// let mut m = SplitMatcher::new(&intersection_laplacian(&hg, IgWeighting::default()));
/// let mut c = NetClassifier::new(m.len());
/// let mut changes = Vec::new();
/// let delta = m.move_to_r(1);
/// c.refresh(&m, &delta, &mut changes);
/// assert_eq!(c.class_of(1), NetClass::Loser);
/// assert_eq!(c.classes(), m.classify().net_classes(3).as_slice());
/// ```
#[derive(Clone, Debug)]
pub struct NetClassifier {
    /// Current class of every net.
    class: Vec<NetClass>,
    /// `IN_DL`/`IN_DR` membership of every net — the maintained state the
    /// classes are read from.
    reach: Vec<u8>,
    /// Per-pass marks (`VERIFIED`, `DEAD`, `SEEN`, `REGION`); all zero
    /// between passes.
    flag: Vec<u8>,
    /// Nets marked `VERIFIED` or `DEAD` this pass, for clearing.
    flagged: Vec<u32>,
    /// Nets whose reach bits changed this refresh (may repeat).
    touched: Vec<u32>,
    worklist: Vec<u32>,
    queue: Vec<u32>,
    /// Adjacency entries scanned by this refresh's local update.
    work: usize,
    /// Refreshes that fell back to the flood.
    #[cfg(test)]
    floods: usize,
}

impl NetClassifier {
    /// Classifier for `n` nets in the initial all-`L` state, where every
    /// net is an unmatched `Even(L)` winner.
    pub fn new(n: usize) -> Self {
        NetClassifier {
            class: vec![NetClass::WinnerL; n],
            reach: vec![IN_DL; n],
            flag: vec![0; n],
            flagged: Vec::new(),
            touched: Vec::new(),
            worklist: Vec::new(),
            queue: Vec::new(),
            work: 0,
            #[cfg(test)]
            floods: 0,
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
    /// structure is untouched; otherwise both reachability sets are
    /// updated locally around the nets the move can change, falling back
    /// to re-flooding the touched `B`-components past a fixed work cap.
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
            self.reach[v as usize] = IN_DR;
            self.record(v, NetClass::WinnerR, changes);
            return;
        }
        self.touched.clear();
        self.touched.push(v);
        self.work = 0;
        if self.update_reach(matcher, delta, false) && self.update_reach(matcher, delta, true) {
            for i in 0..self.touched.len() {
                let u = self.touched[i];
                let new = class_from(self.reach[u as usize], matcher.side.is_right(u));
                self.record(u, new, changes);
            }
        } else {
            self.flood(matcher, delta, changes);
        }
    }

    /// Updates one reachability set for the move in `delta`: `D_R` (roots
    /// on the `R` side) if `right`, else `D_L`. Returns `false`, with the
    /// set partly updated, once the refresh passes [`WORK_CAP`].
    fn update_reach(&mut self, m: &SplitMatcher, delta: &MoveDelta, right: bool) -> bool {
        let bit = if right { IN_DR } else { IN_DL };
        let v = delta.moved;
        // Nets that can lose reach: heads of removed arcs and ex-roots.
        // Both lie in `{v} ∪ mates_changed`, except `v`'s old arcs to its
        // `R` neighbours in `D_L`, which carried reach only if `v` was in
        // `D_L`.
        self.worklist.clear();
        self.worklist.push(v);
        self.worklist.extend_from_slice(&delta.mates_changed);
        if !right && self.reach[v as usize] & IN_DL != 0 {
            self.worklist.extend_from_slice(m.nbrs_on(v, true));
        }
        let ok = self.verify(m, right, bit) && self.grow(m, delta, right, bit);
        for &u in &self.flagged {
            self.flag[u as usize] = 0;
        }
        self.flagged.clear();
        ok
    }

    /// Re-verifies every worklist net still in the set; a failed search
    /// drops its ancestor set and queues the out-neighbours it fed.
    fn verify(&mut self, m: &SplitMatcher, right: bool, bit: u8) -> bool {
        while let Some(c) = self.worklist.pop() {
            if self.reach[c as usize] & bit == 0 || self.flag[c as usize] & (VERIFIED | DEAD) != 0 {
                continue;
            }
            let outcome = self.search_back(m, c, right);
            for &u in &self.queue {
                self.flag[u as usize] &= !SEEN;
            }
            match outcome {
                Search::OverCap => return false,
                Search::Reached => {
                    self.flag[c as usize] |= VERIFIED;
                    self.flagged.push(c);
                }
                Search::Unreachable => {
                    for i in 0..self.queue.len() {
                        let u = self.queue[i];
                        self.flag[u as usize] |= DEAD;
                        self.flagged.push(u);
                        if self.reach[u as usize] & bit == 0 {
                            continue;
                        }
                        self.reach[u as usize] &= !bit;
                        self.touched.push(u);
                        let out = m.arcs_out(u, right);
                        self.work += out.len();
                        for &z in out {
                            debug_assert_ne!(m.side.is_right(z), m.side.is_right(u));
                            if self.reach[z as usize] & bit != 0 {
                                self.worklist.push(z);
                            }
                        }
                    }
                }
            }
            if self.work > WORK_CAP {
                return false;
            }
        }
        true
    }

    /// Breadth-first search from `c` against the arcs of the set whose
    /// roots lie on the `right` side, through nets not yet proven
    /// unreachable. Visited nets are left in `queue`, marked `SEEN`.
    fn search_back(&mut self, m: &SplitMatcher, c: u32, right: bool) -> Search {
        let is_root = |u: u32| m.side.is_right(u) == right && m.mate[u as usize] == NONE;
        self.queue.clear();
        self.queue.push(c);
        self.flag[c as usize] |= SEEN;
        if is_root(c) {
            return Search::Reached;
        }
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let preds = m.arcs_in(u, right);
            self.work += preds.len();
            for &p in preds {
                debug_assert_ne!(m.side.is_right(p), m.side.is_right(u));
                if self.flag[p as usize] & (SEEN | DEAD) != 0 {
                    continue;
                }
                if is_root(p) || self.flag[p as usize] & VERIFIED != 0 {
                    return Search::Reached;
                }
                self.flag[p as usize] |= SEEN;
                self.queue.push(p);
            }
            if self.work > WORK_CAP {
                return Search::OverCap;
            }
        }
        Search::Unreachable
    }

    /// Grows the set forward into unreached nets from every way the move
    /// can have added reach: new roots and changed nets still in the set.
    /// (`v`'s new in-arcs from its `L` neighbours need no seed of their
    /// own: either `v` was in `D_L` and seeds itself, or its new mate, a
    /// changed net already in `D_L` before the move, points at it —
    /// `DESIGN.md` §11.)
    fn grow(&mut self, m: &SplitMatcher, delta: &MoveDelta, right: bool, bit: u8) -> bool {
        let v = delta.moved;
        self.queue.clear();
        for &t in std::iter::once(&v).chain(&delta.mates_changed) {
            let is_root = m.side.is_right(t) == right && m.mate[t as usize] == NONE;
            if is_root && self.reach[t as usize] & bit == 0 {
                self.reach[t as usize] |= bit;
                self.touched.push(t);
            }
            if self.reach[t as usize] & bit != 0 {
                self.queue.push(t);
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let succs = m.arcs_out(u, right);
            self.work += succs.len();
            for &z in succs {
                debug_assert_ne!(m.side.is_right(z), m.side.is_right(u));
                if self.reach[z as usize] & bit != 0 {
                    continue;
                }
                debug_assert_eq!(self.flag[z as usize] & DEAD, 0, "grew into a dead net");
                self.reach[z as usize] |= bit;
                self.touched.push(z);
                self.queue.push(z);
            }
            if self.work > WORK_CAP {
                return false;
            }
        }
        true
    }

    /// The fallback: re-runs both alternating BFS passes inside the
    /// `B`-components (over crossing edges) of the moved net and all its
    /// neighbours. Every edge change is incident to `v`, every mate change
    /// lies on an augmenting path from `v` or its ex-partner (a neighbour
    /// of `v`), and a component split off by the move keeps a neighbour of
    /// `v` — so every net whose class can change is in this region.
    fn flood(&mut self, m: &SplitMatcher, delta: &MoveDelta, changes: &mut Vec<NetClassChange>) {
        #[cfg(test)]
        {
            self.floods += 1;
        }
        let v = delta.moved;
        self.queue.clear();
        for &u in std::iter::once(&v).chain(m.nbrs(v)) {
            if self.flag[u as usize] & REGION == 0 {
                self.flag[u as usize] |= REGION;
                self.queue.push(u);
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for &w in m.cross(u) {
                if self.flag[w as usize] & REGION == 0 {
                    self.flag[w as usize] |= REGION;
                    self.queue.push(w);
                }
            }
        }
        debug_assert!(delta
            .mates_changed
            .iter()
            .chain(&self.touched)
            .all(|&u| self.flag[u as usize] & REGION != 0));
        // alternating BFS never leaves the region, so its reach bits can
        // serve as the visit marks
        for &u in &self.queue {
            self.reach[u as usize] = 0;
        }
        for (right, bit) in [(false, IN_DL), (true, IN_DR)] {
            self.worklist.clear();
            for &u in &self.queue {
                if m.side.is_right(u) == right && m.mate[u as usize] == NONE {
                    self.reach[u as usize] = bit;
                    self.worklist.push(u);
                }
            }
            let mut head = 0;
            while head < self.worklist.len() {
                let x = self.worklist[head];
                head += 1;
                for &y in m.nbrs_on(x, !right) {
                    if self.reach[y as usize] != 0 {
                        continue;
                    }
                    self.reach[y as usize] = bit;
                    let x2 = m.mate[y as usize];
                    debug_assert_ne!(
                        x2, NONE,
                        "unmatched vertex reachable from the other side: \
                         matching was not maximum"
                    );
                    if self.reach[x2 as usize] == 0 {
                        self.reach[x2 as usize] = bit;
                        self.worklist.push(x2);
                    }
                }
            }
        }
        for i in 0..self.queue.len() {
            let u = self.queue[i];
            self.flag[u as usize] = 0;
            let new = class_from(self.reach[u as usize], m.side.is_right(u));
            self.record(u, new, changes);
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
    use np_sparse::{CsrMatrix, TripletBuilder};
    use np_testkit::{check_cases, Gen};

    /// The matcher over the graph whose adjacency lists are `nb`
    /// (symmetric, rows in any order).
    fn matcher(nb: &[Vec<u32>]) -> SplitMatcher {
        let mut b = TripletBuilder::new(nb.len());
        for (v, row) in nb.iter().enumerate() {
            for &w in row {
                b.push(v, w as usize, 1.0);
            }
        }
        SplitMatcher::new(&Laplacian::from_adjacency(b.into_csr()))
    }

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
        let mut m = matcher(&nb);
        assert_eq!(m.matching_size(), 0);
        let c = m.classify();
        assert_eq!(c.winners_l.len(), 4);
        assert!(c.losers.is_empty());
    }

    #[test]
    fn single_move_matches_crossing_edge() {
        let nb = path_graph(3);
        let mut m = matcher(&nb);
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
        let mut m = matcher(&nb);
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
        let mut m = matcher(&nb);
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
        let mut m = matcher(&nb);
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
        let mut m = matcher(&nb);
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
        let mut m = matcher(&nb);
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
        let mut m = matcher(&nb);
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
        let mut m = matcher(&nb);
        m.move_to_r(1);
        m.move_to_r(1);
    }

    /// Sweeps `order` through a matcher and a classifier, asserting the
    /// maintained classes equal the from-scratch ones at every split;
    /// returns how many refreshes fell back to the flood.
    fn sweep_against_classify(nb: &[Vec<u32>], order: &[u32]) -> usize {
        let mut m = matcher(nb);
        let mut c = NetClassifier::new(nb.len());
        let mut changes = Vec::new();
        for &v in order {
            let delta = m.move_to_r(v);
            c.refresh(&m, &delta, &mut changes);
            assert_eq!(
                c.classes(),
                m.classify().net_classes(nb.len()).as_slice(),
                "classes diverged after moving {v}"
            );
        }
        c.floods
    }

    #[test]
    fn local_refresh_matches_classify_on_paths_and_stars() {
        // a path swept in order, odd nets first, and from both ends in;
        // a star swept hub first and hub last
        let path = path_graph(40);
        let odd_first: Vec<u32> = (1..40).step_by(2).chain((0..40).step_by(2)).collect();
        let ends_in: Vec<u32> = (0..20).flat_map(|i| [i, 39 - i]).collect();
        for order in [(0..40).collect::<Vec<u32>>(), odd_first, ends_in] {
            assert_eq!(sweep_against_classify(&path, &order), 0);
        }
        let mut star = vec![(1..12).collect::<Vec<u32>>()];
        star.extend((1..12).map(|_| vec![0]));
        assert_eq!(
            sweep_against_classify(&star, &(0..12).collect::<Vec<_>>()),
            0
        );
        assert_eq!(
            sweep_against_classify(&star, &(0..12).rev().collect::<Vec<_>>()),
            0
        );
    }

    #[test]
    fn searches_past_the_work_cap_fall_back_to_the_flood() {
        // Nets 0..k each conflict with every net of k..2k, and nothing
        // else. Sweeping k..2k across matches one more of 0..k per move;
        // the move that matches the last of them kills all of D_L at
        // once, and the failed backward search from the moved net scans
        // k·k adjacency entries, past the cap. Each later move of a net
        // of 0..k leaves its ex-mate an unmatched root whose D_R spans
        // everything left: forward growth passes the cap too.
        let k = (WORK_CAP as f64).sqrt() as u32 + 1;
        let nb: Vec<Vec<u32>> = (0..2 * k)
            .map(|i| {
                if i < k {
                    (k..2 * k).collect()
                } else {
                    (0..k).collect()
                }
            })
            .collect();
        let order: Vec<u32> = (k..2 * k).chain(0..k - 1).collect();
        assert!(sweep_against_classify(&nb, &order) > 0);
    }

    #[test]
    fn full_sweep_ends_with_empty_l() {
        let nb = path_graph(6);
        let mut m = matcher(&nb);
        for v in 0..6u32 {
            m.move_to_r(v);
        }
        assert_eq!(m.matching_size(), 0); // everything on R, B empty
        let c = m.classify();
        assert_eq!(c.winners_r.len(), 6);
    }

    /// A random symmetric graph: a core of sparse random edges, one hub
    /// net adjacent to most of the core, a star whose leaves touch only
    /// its centre, and isolated nets. Rows are listed in random order.
    fn random_graph(g: &mut Gen) -> Vec<Vec<u32>> {
        let core = g.usize_in(2, 30);
        let leaves = g.usize_in(0, 6);
        let isolated = g.usize_in(0, 3);
        let n = core + 1 + leaves + isolated;
        let mut nb = vec![Vec::new(); n];
        let mut link = |a: usize, b: usize| {
            nb[a].push(b as u32);
            nb[b].push(a as u32);
        };
        for a in 0..core {
            for b in a + 1..core {
                let p = if a == 0 { 0.7 } else { 0.1 };
                if g.with_probability(p) {
                    link(a, b);
                }
            }
        }
        for leaf in core + 1..core + 1 + leaves {
            link(core, leaf);
        }
        for row in &mut nb {
            g.rng().shuffle(row);
        }
        nb
    }

    /// Asserts the side-split row invariants against the plain lists:
    /// each row's prefix holds exactly its `R`-side neighbours and its
    /// suffix its `L`-side ones, and `mirror` pairs every entry with its
    /// reverse.
    fn assert_rows_split(m: &SplitMatcher, nb: &[Vec<u32>]) {
        for (v, row) in nb.iter().enumerate() {
            let (lo, mid, hi) = (
                m.adj_off[v] as usize,
                m.r_end[v] as usize,
                m.adj_off[v + 1] as usize,
            );
            for (part, right) in [(lo..mid, true), (mid..hi, false)] {
                let mut got = m.adj[part].to_vec();
                got.sort_unstable();
                let mut want: Vec<u32> = row
                    .iter()
                    .copied()
                    .filter(|&w| m.side.is_right(w) == right)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "row {v}, R part {right}");
            }
            for i in lo..hi {
                let j = m.mirror[i] as usize;
                let w = m.adj[i] as usize;
                assert!((m.adj_off[w] as usize..m.adj_off[w + 1] as usize).contains(&j));
                assert_eq!(m.adj[j] as usize, v, "mirror of entry {i} of row {v}");
                assert_eq!(m.mirror[j] as usize, i);
            }
        }
    }

    #[test]
    fn side_split_rows_track_every_move() {
        check_cases(128, 0xB1_5EC7, |g| {
            let nb = random_graph(g);
            let mut order: Vec<u32> = (0..nb.len() as u32).collect();
            g.rng().shuffle(&mut order);
            let mut m = matcher(&nb);
            let mut in_r = vec![false; nb.len()];
            assert_rows_split(&m, &nb);
            for &v in &order {
                m.move_to_r(v);
                in_r[v as usize] = true;
                assert_rows_split(&m, &nb);
                assert!(m.matching_is_valid());
                assert_eq!(m.matching_size(), brute_force_mm(&nb, &in_r));
            }
        });
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn asymmetric_adjacency_is_rejected() {
        // entry (0, 1) without (1, 0), its weight below the Laplacian's
        // symmetry tolerance: only the pattern is asymmetric
        let a = CsrMatrix::from_parts(2, vec![0, 1, 1], vec![1], vec![1e-12]);
        SplitMatcher::new(&Laplacian::from_adjacency(a));
    }

    /// Two move orders that reach the same `R` set hold different
    /// matchings but give the same classes, completions and sweep
    /// outcome: the property the side-split rows' new scan order rests
    /// on (Hasan–Liu, paper footnote 4).
    #[test]
    fn classes_do_not_depend_on_the_held_matching() {
        use crate::igmatch::{ig_match_with_ordering, SweepState};
        use crate::models::{intersection_laplacian, IgWeighting};
        use np_netlist::NetId;
        use np_testkit::small_hypergraph;

        let (mut mates_differ, mut outcomes_compared) = (0, 0);
        check_cases(256, 0x4A7C_0001, |g| {
            let hg = small_hypergraph(g);
            let ig = intersection_laplacian(&hg, IgWeighting::default());
            let m = hg.num_nets();
            let mut a: Vec<u32> = (0..m as u32).collect();
            g.rng().shuffle(&mut a);
            // b permutes a's first k nets, so both orders hold the same R
            // set from the split that has moved k nets on
            let k = g.usize_in(1, m - 1);
            let mut b = a.clone();
            g.rng().shuffle(&mut b[..k]);

            let (mut ma, mut mb) = (SplitMatcher::new(&ig), SplitMatcher::new(&ig));
            let (mut ca, mut cb) = (NetClassifier::new(m), NetClassifier::new(m));
            let (mut sa, mut sb) = (
                SweepState::new(&hg, ma.clone()),
                SweepState::new(&hg, mb.clone()),
            );
            let mut changes = Vec::new();
            for step in 0..m - 1 {
                let (va, vb) = (a[step], b[step]);
                let delta = ma.move_to_r(va);
                ca.refresh(&ma, &delta, &mut changes);
                let delta = mb.move_to_r(vb);
                cb.refresh(&mb, &delta, &mut changes);
                let (ea, eb) = (sa.advance(&hg, va), sb.advance(&hg, vb));
                if step + 1 < k {
                    continue;
                }
                assert_eq!(ma.classify(), mb.classify(), "split {step}");
                assert_eq!(ca.classes(), cb.classes(), "split {step}");
                assert_eq!(ea, eb, "split {step}");
                assert_eq!(ma.matching_size(), mb.matching_size());
                assert_eq!(sa.matching_size(), sb.matching_size());
                if ma.mate != mb.mate {
                    mates_differ += 1;
                }
            }

            // Every split from k − 1 on is the same in both orders, so two
            // winners there must be the same winner.
            let ids = |o: &[u32]| o.iter().map(|&v| NetId(v)).collect::<Vec<_>>();
            let (oa, ob) = (
                ig_match_with_ordering(&hg, &ids(&a), false),
                ig_match_with_ordering(&hg, &ids(&b), false),
            );
            if let (Ok(oa), Ok(ob)) = (oa, ob) {
                let (ra, rb) = (oa.result.split_rank, ob.result.split_rank);
                if ra >= Some(k - 1) && rb >= Some(k - 1) {
                    outcomes_compared += 1;
                    assert_eq!(ra, rb);
                    assert_eq!(oa.result.partition, ob.result.partition);
                    assert_eq!(oa.result.ratio().to_bits(), ob.result.ratio().to_bits());
                    assert_eq!(oa.matching_size, ob.matching_size);
                    assert_eq!(oa.loser_count, ob.loser_count);
                }
            }
        });
        assert!(mates_differ > 0, "no case held two different matchings");
        assert!(outcomes_compared > 0, "no case compared two sweep outcomes");
    }
}
