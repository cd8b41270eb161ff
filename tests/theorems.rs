//! Property-based verification of the paper's theorems on random
//! hypergraphs.
//!
//! * Theorems 2–3 (König duality): `|MIS| + |MVC| = |L| + |R|` and
//!   `|MVC| = |MM|` in the induced bipartite conflict graph;
//! * Theorems 4–5: IG-Match's loser set covers every conflict edge and
//!   has size `≤ |MM|`; the completed partition cuts `≤ |MM|` nets;
//! * Theorem 1 (Hagen–Kahng bound): the optimal ratio cut of the
//!   clique-model graph is `≥ λ₂/n`;
//! * metric consistency: incremental cut tracking matches from-scratch
//!   evaluation under arbitrary move sequences.

use ig_match_repro::core::igmatch::ig_match_with_ordering;
use ig_match_repro::core::igmatch::SplitMatcher;
use ig_match_repro::core::models::{
    clique_laplacian, intersection_adjacency, intersection_laplacian, IgWeighting,
};
use ig_match_repro::core::PartitionError;
use ig_match_repro::eigen::{fiedler, LanczosOptions};
use ig_match_repro::netlist::partition::CutTracker;
use ig_match_repro::netlist::{Hypergraph, ModuleId, NetId};
use ig_match_repro::{ig_match, Bipartition, IgMatchOptions, Side};
use np_testkit::{check_cases, small_hypergraph};

/// The intersection graph's plain neighbour lists, one per net, read
/// from the rows of its adjacency matrix.
fn neighbour_lists(hg: &Hypergraph) -> Vec<Vec<u32>> {
    let a = intersection_adjacency(hg, IgWeighting::Uniform);
    (0..hg.num_nets()).map(|r| a.row(r).0.to_vec()).collect()
}

/// Kuhn's algorithm: reference maximum matching over crossing edges.
fn brute_force_mm(neighbors: &[Vec<u32>], in_r: &[bool]) -> usize {
    fn try_augment(
        x: usize,
        neighbors: &[Vec<u32>],
        in_r: &[bool],
        seen: &mut [bool],
        mate: &mut [usize],
    ) -> bool {
        for &y in &neighbors[x] {
            let y = y as usize;
            if !in_r[y] || seen[y] {
                continue;
            }
            seen[y] = true;
            if mate[y] == usize::MAX || try_augment(mate[y], neighbors, in_r, seen, mate) {
                mate[y] = x;
                return true;
            }
        }
        false
    }
    let n = neighbors.len();
    let mut mate = vec![usize::MAX; n];
    let mut size = 0;
    for x in 0..n {
        if in_r[x] {
            continue;
        }
        let mut seen = vec![false; n];
        if try_augment(x, neighbors, in_r, &mut seen, &mut mate) {
            size += 1;
        }
    }
    size
}

#[test]
fn incremental_matching_is_maximum() {
    check_cases(64, 0x7E01, |g| {
        let hg = small_hypergraph(g);
        let neighbors = neighbour_lists(&hg);
        let m = hg.num_nets();
        // pseudo-random move order derived from the case seed
        let mut order: Vec<u32> = (0..m as u32).collect();
        g.rng().shuffle(&mut order);
        let mut matcher = SplitMatcher::new(&intersection_laplacian(&hg, IgWeighting::default()));
        let mut in_r = vec![false; m];
        for &v in &order[..m - 1] {
            matcher.move_to_r(v);
            in_r[v as usize] = true;
            assert!(matcher.matching_is_valid());
            assert_eq!(matcher.matching_size(), brute_force_mm(&neighbors, &in_r));
        }
    });
}

#[test]
fn konig_duality_holds() {
    check_cases(64, 0x7E02, |g| {
        let hg = small_hypergraph(g);
        let neighbors = neighbour_lists(&hg);
        let m = hg.num_nets();
        let mut order: Vec<u32> = (0..m as u32).collect();
        g.rng().shuffle(&mut order);
        let mut matcher = SplitMatcher::new(&intersection_laplacian(&hg, IgWeighting::default()));
        for &v in &order[..m / 2 + 1] {
            matcher.move_to_r(v);
        }
        let mm = matcher.matching_size();
        let side_of: Vec<Side> = (0..m as u32).map(|v| matcher.side_of(v)).collect();
        let c = matcher.classify();
        // MIS = winners + larger B' side; MVC = losers + smaller B' side
        let mis = c.winners_l.len() + c.winners_r.len() + c.bprime_l.len().max(c.bprime_r.len());
        let mvc = c.losers.len() + c.bprime_l.len().min(c.bprime_r.len());
        assert_eq!(mis + mvc, m, "Theorem 2: |MIS| + |MVC| = n");
        // B' sides pair up through the matching, so either orientation
        // gives a cover of size = mm
        assert_eq!(c.bprime_l.len(), c.bprime_r.len());
        assert_eq!(mvc, mm, "Theorem 3: |MVC| = |MM|");

        // cover property (Theorem 4): every crossing edge touches a loser
        // or a B' vertex of the chosen orientation (take B'_R as losers)
        let is_loser: Vec<bool> = {
            let mut f = vec![false; m];
            for &v in c.losers.iter().chain(&c.bprime_r) {
                f[v as usize] = true;
            }
            f
        };
        for v in 0..m as u32 {
            for &u in &neighbors[v as usize] {
                if side_of[v as usize] == Side::Left && side_of[u as usize] == Side::Right {
                    assert!(
                        is_loser[v as usize] || is_loser[u as usize],
                        "crossing edge ({v},{u}) uncovered"
                    );
                }
            }
        }

        // independence (Theorem 2): no crossing edge joins two winners
        let is_winner: Vec<bool> = {
            let mut f = vec![false; m];
            for &v in c.winners_l.iter().chain(&c.winners_r).chain(&c.bprime_l) {
                f[v as usize] = true;
            }
            f
        };
        for v in 0..m as u32 {
            for &u in &neighbors[v as usize] {
                let crossing = side_of[v as usize] != side_of[u as usize];
                assert!(
                    !(crossing && is_winner[v as usize] && is_winner[u as usize]),
                    "independent set violated on edge ({v},{u})"
                );
            }
        }
    });
}

#[test]
fn igmatch_cut_bounded_by_matching() {
    check_cases(64, 0x7E03, |g| {
        let hg = small_hypergraph(g);
        let m = hg.num_nets();
        let mut order: Vec<u32> = (0..m as u32).collect();
        g.rng().shuffle(&mut order);
        let order: Vec<NetId> = order.into_iter().map(NetId).collect();
        match ig_match_with_ordering(&hg, &order, false) {
            Ok(out) => {
                assert!(out.result.stats.cut_nets <= out.loser_count);
                assert!(out.loser_count <= out.matching_size);
                assert_eq!(out.result.stats, out.result.partition.cut_stats(&hg));
            }
            Err(PartitionError::Degenerate) => {} // legal on tiny instances
            Err(e) => panic!("unexpected error {e}"),
        }
    });
}

#[test]
fn cut_tracker_matches_scratch() {
    check_cases(64, 0x7E04, |g| {
        let hg = small_hypergraph(g);
        let moves = g.vec_with(1, 39, |g| (g.usize_in(0, 15) as u32, g.flip()));
        let mut tracker = CutTracker::all_on(&hg, Side::Right);
        for (m, to_left) in moves {
            let m = ModuleId(m % hg.num_modules() as u32);
            let side = if to_left { Side::Left } else { Side::Right };
            tracker.move_module(m, side);
            let scratch = tracker.to_partition().cut_stats(&hg);
            assert_eq!(tracker.stats(), scratch);
        }
    });
}

#[test]
fn hagen_kahng_lower_bound() {
    check_cases(64, 0x7E05, |g| {
        // Theorem 1: optimal ratio cut of the clique-model *graph* is
        // >= lambda_2 / n. Brute-force the optimum over all bipartitions.
        let hg = small_hypergraph(g);
        let n = hg.num_modules();
        if n > 12 {
            return;
        }
        let q = clique_laplacian(&hg);
        let pair = fiedler(&q, &LanczosOptions::default()).unwrap();
        if pair.value <= 1e-9 {
            return; // skip disconnected instances
        }
        let adj = q.adjacency();
        let mut best = f64::INFINITY;
        for mask in 1..(1u32 << n) - 1 {
            let left: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
            let mut cut = 0.0;
            for i in 0..n {
                let (cols, vals) = adj.row(i);
                for (&j, &w) in cols.iter().zip(vals) {
                    if (j as usize) > i && left[i] != left[j as usize] {
                        cut += w;
                    }
                }
            }
            let l = left.iter().filter(|&&x| x).count();
            best = best.min(cut / (l as f64 * (n - l) as f64));
        }
        assert!(
            best >= pair.value / n as f64 - 1e-7,
            "optimal ratio cut {best} < lambda2/n = {}",
            pair.value / n as f64
        );
    });
}

#[test]
fn fiedler_orthogonal_to_ones_and_nonnegative() {
    check_cases(64, 0x7E06, |g| {
        let hg = small_hypergraph(g);
        let q = clique_laplacian(&hg);
        let pair = fiedler(&q, &LanczosOptions::default()).unwrap();
        let s: f64 = pair.vector.iter().sum();
        assert!(s.abs() < 1e-6, "sum {s}");
        assert!(pair.value >= -1e-9, "lambda2 {}", pair.value);
    });
}

#[test]
fn igmatch_spectral_valid_on_random_instances() {
    check_cases(64, 0x7E07, |g| {
        let hg = small_hypergraph(g);
        match ig_match(&hg, &IgMatchOptions::default()) {
            Ok(out) => {
                let s = &out.result.stats;
                assert!(s.left > 0 && s.right > 0);
                assert!(s.cut_nets <= out.matching_size);
            }
            Err(PartitionError::Degenerate) | Err(PartitionError::TooSmall { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    });
}

#[test]
fn hgr_roundtrip() {
    check_cases(64, 0x7E08, |g| {
        let hg = small_hypergraph(g);
        let text = ig_match_repro::netlist::io::to_hgr_string(&hg);
        let back = ig_match_repro::netlist::io::parse_hgr(&text).unwrap();
        assert_eq!(hg, back);
    });
}

#[test]
fn random_partition_stats_sane() {
    check_cases(64, 0x7E09, |g| {
        let hg = small_hypergraph(g);
        let mask = g.u64_below(65536) as u32;
        let n = hg.num_modules();
        let left = (0..n as u32)
            .filter(|i| mask & (1 << (i % 16)) != 0)
            .map(ModuleId);
        let p = Bipartition::from_left_set(n, left);
        let s = p.cut_stats(&hg);
        assert_eq!(s.left + s.right, n);
        assert!(s.cut_nets <= hg.num_nets());
    });
}
