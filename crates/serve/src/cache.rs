//! Content-addressed netlist cache with bounded memory.
//!
//! Clients of a long-running partition service re-submit the same
//! netlist over and over (tuning `restarts`, budgets, algorithms). The
//! expensive, request-independent work — parsing the `.hgr` text and
//! building the spectral Laplacians — depends only on the netlist bytes,
//! so the service keys a cache by an FNV-1a content hash of the request's
//! `hgr` field and hands every hit the *same* [`Hypergraph`] and
//! [`OperatorCache`]. A repeat request therefore skips the parse **and**
//! (via [`np_runner::run_portfolio_cached`]) every Laplacian build its
//! first run already paid for.
//!
//! Hash collisions are handled, not assumed away: each entry stores its
//! full source text and a hit must match it byte-for-byte, otherwise the
//! lookup is treated as a miss and the colliding entry is replaced.
//!
//! The operator cache also remembers each solved IG-Match run (see
//! [`OperatorCache`]), so a repeat request with the same seeds skips the
//! eigensolve and the sweep as well.
//!
//! Memory is bounded two ways — entry count and total resident bytes
//! (source text plus an estimate of the parsed structures and the
//! IG-Match memo's worst case) — with
//! least-recently-used eviction. Parsing happens *outside* the cache
//! lock; concurrent misses on the same text race benignly (one insert
//! wins, both callers get a valid value).

use np_core::engine::OperatorCache;
use np_netlist::Hypergraph;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A parsed netlist plus its shared spectral-operator cache.
#[derive(Debug)]
pub struct CachedNetlist {
    /// The parsed hypergraph.
    pub hypergraph: Hypergraph,
    /// Spectral operators built for this hypergraph so far; shared with
    /// every portfolio run against it.
    pub operators: Arc<OperatorCache>,
    /// Approximate resident size used for the byte bound.
    bytes: usize,
    /// The exact source text (collision guard).
    source: String,
    /// IG-Match memo hits already handed to the service metrics.
    hits_reported: AtomicU64,
}

impl CachedNetlist {
    /// Approximate resident bytes of this entry.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// IG-Match memo hits of this netlist's operator cache since the
    /// last call, so concurrent requests on one netlist count each hit
    /// once.
    pub fn take_ig_match_hits(&self) -> u64 {
        let now = self.operators.ig_match_hits();
        now.saturating_sub(self.hits_reported.fetch_max(now, Ordering::Relaxed))
    }
}

/// A [`NetlistCache::get_or_parse`] answer; derefs to the shared entry.
#[derive(Debug)]
pub struct Lookup {
    /// The parsed netlist, shared by every lookup of the same text.
    pub netlist: Arc<CachedNetlist>,
    /// Whether this lookup was answered without a parse.
    pub hit: bool,
}

impl Deref for Lookup {
    type Target = Arc<CachedNetlist>;

    fn deref(&self) -> &Arc<CachedNetlist> {
        &self.netlist
    }
}

#[derive(Debug)]
struct Entry {
    value: Arc<CachedNetlist>,
    /// Logical clock of the last hit (for LRU eviction).
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Entry>,
    clock: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Usage counters, surfaced in the service metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to parse.
    pub misses: u64,
    /// Entries evicted to stay within bounds.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate bytes currently resident.
    pub bytes: usize,
}

/// Result of [`NetlistCache::audit`]: the incrementally-maintained byte
/// total versus a from-scratch recount of the resident entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheAudit {
    /// Entries currently resident.
    pub entries: usize,
    /// The running total the byte bound enforces.
    pub recorded_bytes: usize,
    /// Per-entry sizes recomputed from the stored source and parse.
    pub recomputed_bytes: usize,
}

impl CacheAudit {
    /// Whether the running total matches the recount exactly.
    pub fn consistent(&self) -> bool {
        self.recorded_bytes == self.recomputed_bytes
    }
}

/// The bounded content-addressed cache. One per service.
#[derive(Debug)]
pub struct NetlistCache {
    max_entries: usize,
    max_bytes: usize,
    inner: Mutex<Inner>,
}

impl NetlistCache {
    /// A cache bounded to `max_entries` netlists and roughly `max_bytes`
    /// resident bytes. `max_entries == 0` disables caching (every lookup
    /// parses).
    pub fn new(max_entries: usize, max_bytes: usize) -> Self {
        NetlistCache {
            max_entries,
            max_bytes,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Returns the cached netlist for `hgr`, parsing and inserting on
    /// miss; [`Lookup::hit`] tells this lookup's hit from a parse.
    ///
    /// # Errors
    ///
    /// The parse error, rendered for the wire, when `hgr` is not valid
    /// hMETIS text.
    pub fn get_or_parse(&self, hgr: &str) -> Result<Lookup, String> {
        let key = fnv1a(hgr.as_bytes());
        {
            let mut inner = self.inner.lock().expect("cache lock");
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.map.get_mut(&key) {
                if entry.value.source == hgr {
                    entry.last_used = clock;
                    let netlist = Arc::clone(&entry.value);
                    inner.hits += 1;
                    return Ok(Lookup { netlist, hit: true });
                }
                // 64-bit collision: fall through and replace below
            }
            inner.misses += 1;
        }
        // parse outside the lock: a slow parse of a big netlist must not
        // serialize every other connection's cache lookups behind it
        let hypergraph =
            np_netlist::io::parse_hgr(hgr).map_err(|e| format!("invalid hgr netlist: {e}"))?;
        let bytes = hgr.len() + estimated_bytes(&hypergraph);
        let miss = Lookup {
            netlist: Arc::new(CachedNetlist {
                hypergraph,
                operators: Arc::new(OperatorCache::new()),
                bytes,
                source: hgr.to_string(),
                hits_reported: AtomicU64::new(0),
            }),
            hit: false,
        };
        if self.max_entries == 0 || bytes > self.max_bytes {
            return Ok(miss); // uncacheable; still perfectly usable
        }
        let mut inner = self.inner.lock().expect("cache lock");
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.map.insert(
            key,
            Entry {
                value: Arc::clone(&miss.netlist),
                last_used: clock,
            },
        ) {
            // concurrent miss on the same text (or collision replacement)
            inner.bytes -= old.value.bytes;
        }
        inner.bytes += bytes;
        while inner.map.len() > self.max_entries || inner.bytes > self.max_bytes {
            let Some((&victim, _)) = inner
                .map
                .iter()
                .filter(|(k, _)| **k != key) // never evict what we just inserted
                .min_by_key(|(_, e)| e.last_used)
            else {
                break;
            };
            let old = inner.map.remove(&victim).expect("victim present");
            inner.bytes -= old.value.bytes;
            inner.evictions += 1;
        }
        Ok(miss)
    }

    /// Audits the byte accounting: recomputes every resident entry's
    /// size from its stored source and parse, and compares the sum with
    /// the incrementally-maintained total the LRU bound relies on. The
    /// two must always be equal — re-insert (collision replacement or a
    /// racing concurrent miss) and eviction both adjust the total by the
    /// exact recorded entry size. Used by the soak harness to prove no
    /// bytes leak over long mixed traffic.
    pub fn audit(&self) -> CacheAudit {
        let inner = self.inner.lock().expect("cache lock");
        let recomputed = inner
            .map
            .values()
            .map(|e| e.value.source.len() + estimated_bytes(&e.value.hypergraph))
            .sum();
        CacheAudit {
            entries: inner.map.len(),
            recorded_bytes: inner.bytes,
            recomputed_bytes: recomputed,
        }
    }

    /// Current usage counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            bytes: inner.bytes,
        }
    }
}

/// FNV-1a over the netlist bytes — no cryptographic strength needed
/// (collisions are verified against the stored source), just dispersion.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Rough resident size of the parsed structures: pin counts dominate
/// (one u32 per pin in each direction of the incidence), plus fixed
/// per-net/per-module overhead, plus the most the operator cache's
/// IG-Match memo can hold for this netlist.
fn estimated_bytes(hg: &Hypergraph) -> usize {
    hg.num_pins() * 2 * std::mem::size_of::<u32>()
        + (hg.num_nets() + hg.num_modules()) * 16
        + OperatorCache::ig_match_memo_bound(hg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hgr(nets: &[&[usize]], modules: usize) -> String {
        let mut s = format!("{} {modules}\n", nets.len());
        for net in nets {
            let line: Vec<String> = net.iter().map(|m| (m + 1).to_string()).collect();
            s.push_str(&line.join(" "));
            s.push('\n');
        }
        s
    }

    #[test]
    fn hit_returns_the_same_parse_and_operators() {
        let cache = NetlistCache::new(4, 1 << 20);
        let text = hgr(&[&[0, 1], &[1, 2]], 3);
        let a = cache.get_or_parse(&text).unwrap();
        let b = cache.get_or_parse(&text).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must share the entry");
        assert!(Arc::ptr_eq(&a.operators, &b.operators));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn each_lookup_reports_its_own_hit() {
        let cache = NetlistCache::new(4, 1 << 20);
        let a = hgr(&[&[0, 1]], 2);
        let b = hgr(&[&[0, 1], &[1, 2]], 3);
        assert!(!cache.get_or_parse(&a).unwrap().hit, "first sight parses");
        assert!(cache.get_or_parse(&a).unwrap().hit, "repeat text hits");
        assert!(
            !cache.get_or_parse(&b).unwrap().hit,
            "different text parses"
        );
        let uncached = NetlistCache::new(0, 1 << 20);
        for _ in 0..2 {
            assert!(!uncached.get_or_parse(&a).unwrap().hit, "nothing is kept");
        }
    }

    #[test]
    fn parse_errors_propagate() {
        let cache = NetlistCache::new(4, 1 << 20);
        let err = cache.get_or_parse("not a netlist").unwrap_err();
        assert!(err.contains("invalid hgr"), "{err}");
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn lru_eviction_by_entry_count() {
        let cache = NetlistCache::new(2, 1 << 20);
        let a = hgr(&[&[0, 1]], 2);
        let b = hgr(&[&[0, 1], &[1, 2]], 3);
        let c = hgr(&[&[0, 1], &[1, 2], &[2, 3]], 4);
        cache.get_or_parse(&a).unwrap();
        cache.get_or_parse(&b).unwrap();
        cache.get_or_parse(&a).unwrap(); // refresh a: b is now LRU
        cache.get_or_parse(&c).unwrap(); // evicts b
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        cache.get_or_parse(&a).unwrap();
        assert_eq!(cache.stats().hits, 2, "a must have survived");
        cache.get_or_parse(&b).unwrap();
        assert_eq!(cache.stats().misses, 4, "b must have been evicted");
    }

    #[test]
    fn byte_bound_enforced() {
        let text = hgr(&[&[0, 1], &[1, 2]], 3);
        let cache = NetlistCache::new(100, 1); // absurdly small byte cap
        let v = cache.get_or_parse(&text).unwrap();
        assert!(v.bytes() > 1);
        assert_eq!(cache.stats().entries, 0, "oversized entries bypass");
        // same text again: still served (parsed fresh), still correct
        let again = cache.get_or_parse(&text).unwrap();
        assert_eq!(again.hypergraph.num_modules(), 3);
    }

    #[test]
    fn zero_entries_disables_caching() {
        let cache = NetlistCache::new(0, 1 << 20);
        let text = hgr(&[&[0, 1]], 2);
        cache.get_or_parse(&text).unwrap();
        cache.get_or_parse(&text).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn refresh_does_not_double_count_bytes() {
        let cache = NetlistCache::new(4, 1 << 20);
        let text = hgr(&[&[0, 1], &[1, 2]], 3);
        let first = cache.get_or_parse(&text).unwrap();
        let after_insert = cache.stats().bytes;
        assert_eq!(after_insert, first.bytes());
        for _ in 0..10 {
            cache.get_or_parse(&text).unwrap(); // refresh hits
        }
        assert_eq!(
            cache.stats().bytes,
            after_insert,
            "refreshing an entry must not change the byte total"
        );
        assert!(cache.audit().consistent(), "{:?}", cache.audit());
    }

    /// Model-based property test: replay a deterministic insert /
    /// refresh / evict sequence against a trivially-correct model (a
    /// map of key → byte size with the same LRU rules) and require the
    /// cache's recorded byte total to match the model *and* a
    /// from-scratch recount after every step.
    #[test]
    fn byte_accounting_matches_a_model_over_mixed_sequences() {
        // distinct netlists of growing size: index i has i+1 nets
        let texts: Vec<String> = (0..12)
            .map(|i| {
                let nets: Vec<Vec<usize>> = (0..=i).map(|n| vec![n, n + 1]).collect();
                let refs: Vec<&[usize]> = nets.iter().map(Vec::as_slice).collect();
                hgr(&refs, i + 2)
            })
            .collect();
        let sizes: Vec<usize> = texts
            .iter()
            .map(|t| t.len() + estimated_bytes(&np_netlist::io::parse_hgr(t).unwrap()))
            .collect();
        let max_entries = 4;
        let max_bytes = sizes.iter().take(5).sum::<usize>(); // forces byte evictions
        let cache = NetlistCache::new(max_entries, max_bytes);

        // the model: (key, size, last_used) with the same eviction rule
        let mut model: Vec<(usize, usize, u64)> = Vec::new();
        let mut clock = 0u64;
        // xorshift for a deterministic but well-mixed access pattern
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..400 {
            let i = (rng() % texts.len() as u64) as usize;
            cache.get_or_parse(&texts[i]).unwrap();
            clock += 1;
            // model update: refresh or insert, then evict like the cache
            if let Some(slot) = model.iter_mut().find(|(k, _, _)| *k == i) {
                slot.2 = clock;
            } else if sizes[i] <= max_bytes {
                model.push((i, sizes[i], clock));
                loop {
                    let total: usize = model.iter().map(|(_, s, _)| s).sum();
                    if model.len() <= max_entries && total <= max_bytes {
                        break;
                    }
                    let victim = model
                        .iter()
                        .enumerate()
                        .filter(|(_, (k, _, _))| *k != i)
                        .min_by_key(|(_, (_, _, used))| *used)
                        .map(|(pos, _)| pos)
                        .expect("eviction candidate");
                    model.remove(victim);
                }
            }
            let expected: usize = model.iter().map(|(_, s, _)| s).sum();
            let stats = cache.stats();
            assert_eq!(stats.bytes, expected, "model divergence at clock {clock}");
            assert_eq!(stats.entries, model.len());
            assert!(stats.bytes <= max_bytes, "byte bound violated");
            let audit = cache.audit();
            assert!(audit.consistent(), "recount mismatch: {audit:?}");
        }
        assert!(
            cache.stats().evictions > 0,
            "the sequence must actually exercise eviction"
        );
    }

    /// A memo filled to its cap holds exactly the worst case the entry's
    /// bytes reserve for it, and the byte audit still recounts exactly.
    #[test]
    fn a_full_ig_match_memo_stays_within_the_entry_bytes() {
        use np_core::engine::{RunContext, IG_MATCH_MEMO_ENTRIES};
        use np_core::{ig_match_ctx, IgMatchOptions};
        let nets: Vec<Vec<usize>> = (0..40).map(|i| vec![i, i + 1, (i * 7) % 41]).collect();
        let refs: Vec<&[usize]> = nets.iter().map(Vec::as_slice).collect();
        let text = hgr(&refs, 41);
        let cache = NetlistCache::new(4, 1 << 20);
        let entry = cache.get_or_parse(&text).unwrap();
        for seed in 0..2 * IG_MATCH_MEMO_ENTRIES as u64 {
            let mut opts = IgMatchOptions::default();
            opts.lanczos.seed = seed;
            let ctx = RunContext::unlimited().with_operator_cache(Arc::clone(&entry.operators));
            ig_match_ctx(&entry.hypergraph, &opts, &ctx).unwrap();
        }
        let held = entry.operators.ig_match_memo_bytes();
        assert_eq!(
            held,
            OperatorCache::ig_match_memo_bound(&entry.hypergraph),
            "the memo holds its cap of answers"
        );
        assert_eq!(cache.stats().bytes, entry.bytes());
        assert!(cache.audit().consistent(), "{:?}", cache.audit());
    }

    #[test]
    fn concurrent_misses_converge() {
        let cache = Arc::new(NetlistCache::new(8, 1 << 20));
        let text = hgr(&[&[0, 1], &[1, 2], &[0, 2]], 3);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let text = text.clone();
                scope.spawn(move || cache.get_or_parse(&text).unwrap());
            }
        });
        assert_eq!(cache.stats().entries, 1);
    }
}
