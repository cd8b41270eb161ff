//! Equivalence suite for the incremental IG-Match sweep (DESIGN.md §11).
//!
//! The sweep engine maintains the matching, the net classification and
//! the Phase II completion under O(Δ) updates; these properties pin it
//! to an independent from-scratch reference at **every** split —
//! classes, both-orientation `CutStats`, `put_free_left`, loser counts,
//! matching size, partitions and free masks — across random
//! hypergraphs, random orderings, the degenerate-hypergraph
//! distribution, the banded benchmark family and two of the
//! paper-suite circuits in their spectral net order.
//!
//! The reference ([`reference_split`]) shares no code with
//! `SplitMatcher`: it re-derives a maximum matching and the two
//! alternating BFS from plain neighbour lists (the intersection graph's
//! adjacency rows) and a side mask, so a fault in the matcher's
//! side-split rows cannot corrupt both sides of a comparison.
//! `CompletionOracle` then scores its classes.
//!
//! The same checks run as `debug_assert`s inside `SweepState::advance`;
//! this suite keeps them alive in release builds (CI runs it with
//! `cargo test --release --test sweep`).

use ig_match_repro::core::igmatch::{
    ig_match_with_ordering, CompletionOracle, OrientedEval, SplitClassification, SplitMatcher,
    SweepState,
};
use ig_match_repro::core::models::{intersection_adjacency, intersection_laplacian, IgWeighting};
use ig_match_repro::core::ordering::spectral_net_ordering;
use ig_match_repro::eigen::LanczosOptions;
use ig_match_repro::netlist::generate::{generate, mcnc_specs};
use ig_match_repro::netlist::{Hypergraph, NetId};
use np_testkit::{banded_hypergraph, check_cases, degenerate_hypergraph, small_hypergraph, Gen};

/// The intersection graph's plain neighbour lists, one per net, read
/// from the rows of its adjacency matrix.
fn neighbour_lists(hg: &Hypergraph) -> Vec<Vec<u32>> {
    let a = intersection_adjacency(hg, IgWeighting::Uniform);
    (0..hg.num_nets()).map(|r| a.row(r).0.to_vec()).collect()
}

/// The classes and maximum-matching size of one split, computed from
/// scratch from the neighbour lists and `in_r` (the `R`-side mask).
///
/// The matching comes from augmenting-path passes: each pass searches
/// from every unmatched `L` net over the crossing edges, sharing one
/// visited set, and the passes repeat until one augments nothing, which
/// proves the matching maximum (Berge). The classes come from the two
/// alternating BFS of paper Figure 3.
fn reference_split(neighbors: &[Vec<u32>], in_r: &[bool]) -> (SplitClassification, usize) {
    let n = neighbors.len();
    let mut mate: Vec<Option<usize>> = vec![None; n];
    let mut size = 0;
    loop {
        let mut visited = vec![false; n];
        let mut parent = vec![0usize; n];
        let mut augmented = false;
        for root in (0..n).filter(|&x| !in_r[x]) {
            if mate[root].is_some() {
                continue;
            }
            let mut queue = vec![root];
            let mut head = 0;
            'search: while head < queue.len() {
                let x = queue[head];
                head += 1;
                for &y in &neighbors[x] {
                    let y = y as usize;
                    if !in_r[y] || visited[y] {
                        continue;
                    }
                    visited[y] = true;
                    parent[y] = x;
                    match mate[y] {
                        Some(next) => queue.push(next),
                        None => {
                            // flip the path root .. x - y
                            let mut y = y;
                            loop {
                                let x = parent[y];
                                let prev = mate[x];
                                mate[x] = Some(y);
                                mate[y] = Some(x);
                                match prev {
                                    Some(p) => y = p,
                                    None => break,
                                }
                            }
                            size += 1;
                            augmented = true;
                            break 'search;
                        }
                    }
                }
            }
        }
        if !augmented {
            break;
        }
    }

    // reached[v]: Some(true) from an unmatched R net, Some(false) from an
    // unmatched L net, None unreached (B')
    let mut reached: Vec<Option<bool>> = vec![None; n];
    for root_side in [false, true] {
        let mut queue: Vec<usize> = (0..n)
            .filter(|&v| in_r[v] == root_side && mate[v].is_none())
            .collect();
        for &v in &queue {
            reached[v] = Some(root_side);
        }
        let mut head = 0;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            for &y in &neighbors[x] {
                let y = y as usize;
                if in_r[y] == root_side || reached[y].is_some() {
                    continue;
                }
                reached[y] = Some(root_side);
                let x2 = mate[y].expect("an unmatched net on each side of a crossing edge");
                assert_ne!(reached[x2], Some(!root_side), "matching is not maximum");
                if reached[x2].is_none() {
                    reached[x2] = Some(root_side);
                    queue.push(x2);
                }
            }
        }
    }
    let mut class = SplitClassification::default();
    for v in 0..n {
        let list = match (reached[v], in_r[v]) {
            (Some(false), false) => &mut class.winners_l,
            (Some(true), true) => &mut class.winners_r,
            (Some(_), _) => &mut class.losers,
            (None, false) => &mut class.bprime_l,
            (None, true) => &mut class.bprime_r,
        };
        list.push(v as u32);
    }
    (class, size)
}

/// Runs the incremental sweep over `order` and asserts it agrees with the
/// from-scratch reference at every split.
fn assert_sweep_matches_oracle(hg: &Hypergraph, order: &[u32]) {
    let neighbors = neighbour_lists(hg);
    let ig = intersection_laplacian(hg, IgWeighting::default());
    let mut sweep = SweepState::new(hg, SplitMatcher::new(&ig));
    let mut in_r = vec![false; hg.num_nets()];
    let mut oracle = CompletionOracle::new(hg);
    for (k, &net) in order[..order.len() - 1].iter().enumerate() {
        let eval = sweep.advance(hg, net);
        in_r[net as usize] = true;
        let (class, matching_size) = reference_split(&neighbors, &in_r);
        let reference: OrientedEval = oracle.evaluate(hg, &class);

        assert_eq!(eval, reference, "orientation eval diverged at split {k}");
        let inc = eval.candidate();
        let ref_c = reference.candidate();
        assert_eq!(inc.stats, ref_c.stats, "CutStats diverged at split {k}");
        assert_eq!(
            inc.put_free_left, ref_c.put_free_left,
            "orientation choice diverged at split {k}"
        );
        assert_eq!(
            inc.losers, ref_c.losers,
            "loser count diverged at split {k}"
        );
        assert_eq!(
            sweep.matching_size(),
            matching_size,
            "matching size diverged at split {k}"
        );
        let classes = class.net_classes(hg.num_nets());
        for (v, &expect) in classes.iter().enumerate() {
            assert_eq!(
                sweep.net_class(v as u32),
                expect,
                "class of net {v} diverged at split {k}"
            );
        }
        for put_free_left in [true, false] {
            assert_eq!(
                sweep.materialize(hg, put_free_left),
                oracle.materialize(hg, put_free_left),
                "materialized partition diverged at split {k}"
            );
        }
        assert_eq!(
            sweep.free_mask(hg),
            oracle.free_mask(hg),
            "free mask diverged at split {k}"
        );
    }
}

/// A pseudo-random permutation of the nets of `hg`.
fn shuffled_order(g: &mut Gen, hg: &Hypergraph) -> Vec<u32> {
    let mut order: Vec<u32> = (0..hg.num_nets() as u32).collect();
    g.rng().shuffle(&mut order);
    order
}

#[test]
fn incremental_sweep_matches_oracle_on_random_instances() {
    check_cases(96, 0x5EE9_0001, |g| {
        let hg = small_hypergraph(g);
        let order = shuffled_order(g, &hg);
        assert_sweep_matches_oracle(&hg, &order);
    });
}

#[test]
fn incremental_sweep_matches_oracle_on_degenerate_instances() {
    check_cases(96, 0x5EE9_0002, |g| {
        let hg = degenerate_hypergraph(g);
        let order = shuffled_order(g, &hg);
        assert_sweep_matches_oracle(&hg, &order);
    });
}

#[test]
fn incremental_sweep_matches_oracle_on_banded_instances() {
    for (seed, modules, nets, band) in [(3u64, 60, 48, 6), (11, 120, 90, 10), (29, 200, 160, 16)] {
        let hg = banded_hypergraph(seed, modules, nets, band);
        // natural (banded) order — the benchmark's sweep order
        let natural: Vec<u32> = (0..hg.num_nets() as u32).collect();
        assert_sweep_matches_oracle(&hg, &natural);
        // and an adversarial shuffle that destroys locality
        let mut g = Gen::new(seed ^ 0x0BAD_C0DE);
        let order = shuffled_order(&mut g, &hg);
        assert_sweep_matches_oracle(&hg, &order);
    }
}

/// Suite scale: the two smallest paper circuits (about 900 nets each) in
/// the spectral net order the IG-Match route sweeps them in, plus one
/// shuffled order — long sweeps whose moves reach far into `B`.
#[test]
fn incremental_sweep_matches_oracle_on_suite_circuits() {
    for spec in mcnc_specs() {
        if spec.name != "bm1" && spec.name != "Prim1" {
            continue;
        }
        let hg = generate(&spec.config);
        let spectral: Vec<u32> =
            spectral_net_ordering(&hg, IgWeighting::default(), &LanczosOptions::default())
                .expect("suite circuits have a spectral ordering")
                .iter()
                .map(|n| n.0)
                .collect();
        assert_sweep_matches_oracle(&hg, &spectral);
        if spec.name == "bm1" {
            let mut g = Gen::new(0x5EE9_0004);
            let order = shuffled_order(&mut g, &hg);
            assert_sweep_matches_oracle(&hg, &order);
        }
    }
}

/// The full algorithm over an explicit ordering must agree with a
/// from-scratch best-split search driven entirely by the reference
/// pipeline — same ratio, split rank, matching size, loser count and
/// partition bits.
#[test]
fn full_sweep_agrees_with_from_scratch_best_search() {
    check_cases(64, 0x5EE9_0003, |g| {
        let hg = small_hypergraph(g);
        let order = shuffled_order(g, &hg);
        let order_ids: Vec<NetId> = order.iter().map(|&v| NetId(v)).collect();

        let neighbors = neighbour_lists(&hg);
        let mut in_r = vec![false; hg.num_nets()];
        let mut oracle = CompletionOracle::new(&hg);
        let mut best: Option<(f64, usize, _, usize, usize)> = None;
        for (k, &net) in order[..order.len() - 1].iter().enumerate() {
            in_r[net as usize] = true;
            let (class, matching_size) = reference_split(&neighbors, &in_r);
            let cand = oracle.evaluate(&hg, &class).candidate();
            let ratio = cand.stats.ratio();
            if ratio.is_finite() && best.as_ref().is_none_or(|b| ratio < b.0) {
                best = Some((
                    ratio,
                    k,
                    oracle.materialize(&hg, cand.put_free_left),
                    matching_size,
                    cand.losers,
                ));
            }
        }

        let out = ig_match_with_ordering(&hg, &order_ids, false);
        match (best, out) {
            (None, Err(_)) => {}
            (Some((ratio, rank, partition, mm, losers)), Ok(out)) => {
                assert_eq!(out.result.split_rank, Some(rank));
                assert_eq!(out.result.partition, partition);
                assert_eq!(out.result.ratio().to_bits(), ratio.to_bits());
                assert_eq!(out.matching_size, mm);
                assert_eq!(out.loser_count, losers);
            }
            (best, out) => panic!(
                "feasibility disagrees: reference {best:?} vs {:?}",
                out.err()
            ),
        }
    });
}
