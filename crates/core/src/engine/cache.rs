//! A build-once cache for the spectral operators of one hypergraph.

use crate::igmatch::{IgMatchOptions, IgMatchOutcome};
use crate::models::clique::bound_preserving_laplacian;
use crate::models::{clique_laplacian, intersection_laplacian, IgWeighting};
use crate::ordering::SolveCharge;
use np_netlist::{Hypergraph, Side};
use np_sparse::Laplacian;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// How many solved IG-Match runs an [`OperatorCache`] keeps: twice
/// np-serve's default portfolio width (4), so every attempt of a
/// repeated request of up to 8 restarts finds its own seed's answer.
pub const IG_MATCH_MEMO_ENTRIES: usize = 8;

/// Lazily-built, shareable Laplacians of one hypergraph's net models.
///
/// Every spectral stage needs a Laplacian of the netlist — the clique
/// model for EIG1, the intersection graph for IG-Vote/IG-Match — and
/// these operators depend only on the hypergraph, not on seeds, budgets
/// or orderings. A multi-start portfolio therefore rebuilds the exact
/// same matrices once per attempt unless something shares them; this
/// cache is that something. `np-runner` puts one `Arc<OperatorCache>`
/// into every attempt's [`RunContext`](crate::engine::RunContext), so the
/// first attempt to need an operator builds it and every later attempt
/// gets the same `Arc` back for free.
///
/// Each slot is a [`OnceLock`], so concurrent first requests are safe:
/// losers of the initialization race simply receive the winner's
/// operator. Results are unaffected by sharing because the builders are
/// deterministic functions of the hypergraph.
///
/// The cache also remembers the last [`IG_MATCH_MEMO_ENTRIES`] solved
/// IG-Match runs, keyed by their full [`IgMatchOptions`] (the Lanczos
/// seed included), with the matvec-equivalents each solve charged; see
/// [`ig_match_ctx`](crate::ig_match_ctx). The oldest entry is evicted
/// first.
///
/// A cache describes **one** hypergraph. It does not store the
/// hypergraph itself — callers pass it in — but the accessors
/// debug-assert that the cached operator's dimension matches the
/// hypergraph they are handed, which catches cross-netlist reuse.
///
/// # Example
///
/// ```
/// use np_core::engine::OperatorCache;
/// use np_netlist::hypergraph_from_nets;
///
/// let hg = hypergraph_from_nets(3, &[vec![0, 1], vec![1, 2]]);
/// let cache = OperatorCache::new();
/// let a = cache.clique_laplacian(&hg);
/// let b = cache.clique_laplacian(&hg); // cache hit: same operator
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// ```
#[derive(Debug, Default)]
pub struct OperatorCache {
    clique: OnceLock<Arc<Laplacian>>,
    bound_preserving: OnceLock<Arc<Laplacian>>,
    intersection: [OnceLock<Arc<Laplacian>>; IgWeighting::ALL.len()],
    ig_match: Mutex<VecDeque<SolvedIgMatch>>,
    ig_match_hits: AtomicU64,
}

/// One solved IG-Match run: its options, its answer and what its
/// eigensolve charged.
#[derive(Debug)]
struct SolvedIgMatch {
    opts: IgMatchOptions,
    outcome: IgMatchOutcome,
    charge: SolveCharge,
}

fn weighting_slot(weighting: IgWeighting) -> usize {
    IgWeighting::ALL
        .iter()
        .position(|&w| w == weighting)
        .expect("IgWeighting::ALL covers every variant")
}

impl OperatorCache {
    /// An empty cache; operators are built on first request.
    pub fn new() -> Self {
        OperatorCache::default()
    }

    /// The clique-model Laplacian of `hg`, built on first call and shared
    /// thereafter.
    pub fn clique_laplacian(&self, hg: &Hypergraph) -> Arc<Laplacian> {
        let q = self
            .clique
            .get_or_init(|| Arc::new(clique_laplacian(hg)))
            .clone();
        debug_assert_eq!(
            np_sparse::LinearOperator::dim(&*q),
            hg.num_modules(),
            "OperatorCache reused across different hypergraphs"
        );
        q
    }

    /// The bound-preserving clique Laplacian of `hg` (see
    /// [`bound_preserving_laplacian`]),
    /// built on first call and shared thereafter.
    pub fn bound_preserving_laplacian(&self, hg: &Hypergraph) -> Arc<Laplacian> {
        let q = self
            .bound_preserving
            .get_or_init(|| Arc::new(bound_preserving_laplacian(hg)))
            .clone();
        debug_assert_eq!(
            np_sparse::LinearOperator::dim(&*q),
            hg.num_modules(),
            "OperatorCache reused across different hypergraphs"
        );
        q
    }

    /// The intersection-graph Laplacian of `hg` under `weighting` (one
    /// slot per [`IgWeighting`] variant), built on first call and shared
    /// thereafter.
    pub fn intersection_laplacian(
        &self,
        hg: &Hypergraph,
        weighting: IgWeighting,
    ) -> Arc<Laplacian> {
        let q = self.intersection[weighting_slot(weighting)]
            .get_or_init(|| Arc::new(intersection_laplacian(hg, weighting)))
            .clone();
        debug_assert_eq!(
            np_sparse::LinearOperator::dim(&*q),
            hg.num_nets(),
            "OperatorCache reused across different hypergraphs"
        );
        q
    }

    /// The intersection-graph neighbours of `hg` — the conflict-graph
    /// structure every IG-Match sweep walks — as an intersection-graph
    /// Laplacian whose [`pattern`](Laplacian::pattern) they are, what
    /// [`SplitMatcher::new`](crate::igmatch::SplitMatcher::new) reads.
    /// Every weighting has the same pattern (see
    /// [`intersection_adjacency`](crate::models::intersection_adjacency)),
    /// so this is whichever IG operator the cache already holds, and
    /// only a cache that holds none builds one: the default
    /// [`IgWeighting`]'s.
    pub fn intersection_neighbors(&self, hg: &Hypergraph) -> Arc<Laplacian> {
        match self.intersection.iter().find_map(|slot| slot.get()) {
            Some(q) => {
                debug_assert_eq!(
                    np_sparse::LinearOperator::dim(&**q),
                    hg.num_nets(),
                    "OperatorCache reused across different hypergraphs"
                );
                q.clone()
            }
            None => self.intersection_laplacian(hg, IgWeighting::default()),
        }
    }

    /// The remembered IG-Match run of `hg` under exactly `opts`, if any:
    /// a clone of its answer and its eigensolve's charge. Counts a hit.
    pub(crate) fn solved_ig_match(
        &self,
        hg: &Hypergraph,
        opts: &IgMatchOptions,
    ) -> Option<(IgMatchOutcome, SolveCharge)> {
        let memo = self.ig_match.lock().expect("IG-Match memo lock");
        let solved = memo.iter().find(|s| s.opts == *opts)?;
        debug_assert_eq!(
            solved.outcome.result.partition.len(),
            hg.num_modules(),
            "OperatorCache reused across different hypergraphs"
        );
        self.ig_match_hits.fetch_add(1, Ordering::Relaxed);
        Some((solved.outcome.clone(), solved.charge))
    }

    /// Remembers a solved IG-Match run, evicting the oldest entry when
    /// full. A run already remembered (a concurrent miss on the same
    /// options) is kept once.
    pub(crate) fn remember_ig_match(
        &self,
        opts: &IgMatchOptions,
        outcome: &IgMatchOutcome,
        charge: SolveCharge,
    ) {
        let mut memo = self.ig_match.lock().expect("IG-Match memo lock");
        if memo.iter().any(|s| s.opts == *opts) {
            return;
        }
        if memo.len() == IG_MATCH_MEMO_ENTRIES {
            memo.pop_front();
        }
        memo.push_back(SolvedIgMatch {
            opts: *opts,
            outcome: outcome.clone(),
            charge,
        });
    }

    /// IG-Match runs answered from the memo so far, whether or not the
    /// replayed charge then tripped the caller's meter.
    pub fn ig_match_hits(&self) -> u64 {
        self.ig_match_hits.load(Ordering::Relaxed)
    }

    /// Bytes the IG-Match memo holds now.
    pub fn ig_match_memo_bytes(&self) -> usize {
        let memo = self.ig_match.lock().expect("IG-Match memo lock");
        memo.iter()
            .map(|s| solved_bytes(s.outcome.result.partition.len()))
            .sum()
    }

    /// The most bytes the IG-Match memo of a cache for `hg` can hold:
    /// [`IG_MATCH_MEMO_ENTRIES`] answers of one side label per module.
    pub fn ig_match_memo_bound(hg: &Hypergraph) -> usize {
        IG_MATCH_MEMO_ENTRIES * solved_bytes(hg.num_modules())
    }
}

/// Resident bytes of one memo entry whose answer labels `modules`
/// modules.
fn solved_bytes(modules: usize) -> usize {
    std::mem::size_of::<SolvedIgMatch>() + modules * std::mem::size_of::<Side>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_netlist::hypergraph_from_nets;
    use np_sparse::LinearOperator;

    fn hg() -> np_netlist::Hypergraph {
        hypergraph_from_nets(5, &[vec![0, 1, 2], vec![2, 3], vec![3, 4], vec![0, 4]])
    }

    #[test]
    fn cache_returns_same_arc() {
        let hg = hg();
        let cache = OperatorCache::new();
        let a = cache.clique_laplacian(&hg);
        let b = cache.clique_laplacian(&hg);
        assert!(Arc::ptr_eq(&a, &b));
        for w in IgWeighting::ALL {
            let x = cache.intersection_laplacian(&hg, w);
            let y = cache.intersection_laplacian(&hg, w);
            assert!(Arc::ptr_eq(&x, &y), "{w:?}");
        }
    }

    #[test]
    fn cached_operators_match_direct_builds() {
        let hg = hg();
        let cache = OperatorCache::new();
        let q = cache.clique_laplacian(&hg);
        assert_eq!(q.adjacency(), clique_laplacian(&hg).adjacency());
        for w in IgWeighting::ALL {
            let q = cache.intersection_laplacian(&hg, w);
            assert_eq!(q.adjacency(), intersection_laplacian(&hg, w).adjacency());
        }
    }

    #[test]
    fn neighbors_cached_and_match_direct_build() {
        let hg = hg();
        for w in IgWeighting::ALL {
            // after a Laplacian build, the neighbours are that operator:
            // no second build
            let cache = OperatorCache::new();
            let q = cache.intersection_laplacian(&hg, w);
            assert!(Arc::ptr_eq(&q, &cache.intersection_neighbors(&hg)), "{w:?}");
        }
        // a cold cache builds the default weighting's operator once
        let cache = OperatorCache::new();
        let a = cache.intersection_neighbors(&hg);
        assert!(Arc::ptr_eq(&a, &cache.intersection_neighbors(&hg)));
        assert!(Arc::ptr_eq(
            &a,
            &cache.intersection_laplacian(&hg, IgWeighting::default())
        ));
        // every weighting's pattern is the one the cached operator holds
        for w in IgWeighting::ALL {
            let direct = intersection_laplacian(&hg, w);
            assert_eq!(a.pattern(), direct.pattern(), "{w:?}");
        }
    }

    #[test]
    fn weighting_slots_are_distinct() {
        let hg = hg();
        let cache = OperatorCache::new();
        let paper = cache.intersection_laplacian(&hg, IgWeighting::Paper);
        let uniform = cache.intersection_laplacian(&hg, IgWeighting::Uniform);
        assert!(!Arc::ptr_eq(&paper, &uniform));
        assert_eq!(paper.dim(), uniform.dim());
    }

    #[test]
    fn concurrent_first_use_converges_to_one_operator() {
        let hg = hg();
        let cache = OperatorCache::new();
        let got: Vec<Arc<Laplacian>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| cache.clique_laplacian(&hg)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for q in &got[1..] {
            assert!(Arc::ptr_eq(&got[0], q));
        }
    }
}
