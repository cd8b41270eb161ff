//! One level of hypergraph contraction for the V-cycle.
//!
//! The rule is heavy-edge matching on the clique model, extended to the
//! constrained setting the V-cycle needs: connectivity weights are
//! accumulated directly from the nets (`1/(|e|−1)` per shared net, the
//! standard clique-model weight) without materializing the adjacency
//! matrix, nets above 64 pins are excluded from the weights (they carry
//! almost no locality signal and would make matching quadratic), merges
//! that would exceed an area cap are refused, and two modules pinned to
//! *different* blocks are never merged so `FixedModules` survive
//! contraction intact. A module left without an unmatched partner is
//! absorbed into the neighbor cluster it is most connected to, which
//! keeps the per-level shrink factor near 2 where pair matching alone
//! strands the leaves of matched hubs.
//!
//! Contraction keeps duplicate nets: the workspace's hypergraph model is
//! unweighted, so collapsing parallel coarse nets into one would make the
//! coarse cut undercount the flat cut. By retaining them (and dropping
//! only nets that become internal to a single cluster — which no
//! cluster-respecting partition can cut) the unweighted cut of a coarse
//! partition is *exactly* the cut of its flat projection at every level.
//! That identity is the backbone of the uncoarsening invariants in
//! `vcycle` and of the property suite.

use np_netlist::{areas::ModuleAreas, FixedModules, Hypergraph, HypergraphBuilder, ModuleId};

/// Sentinel in [`Level::net_map`] for nets dropped by the contraction.
pub const DROPPED_NET: u32 = u32::MAX;

const UNMATCHED: u32 = u32::MAX;

/// Nets with more pins than this contribute no matching weight (they are
/// still contracted). Keeps the weight accumulation linear in the pin
/// count even in the presence of power/ground-style mega-nets.
const MAX_MATCHING_NET_SIZE: usize = 64;

/// One contraction step: the coarse hypergraph plus everything needed to
/// project partitions down (`map`) and to keep refining on the coarse
/// side (accumulated `areas`, carried `fixed` pins).
#[derive(Clone, Debug)]
pub struct Level {
    /// The contracted hypergraph (one vertex per cluster).
    pub coarse: Hypergraph,
    /// `map[fine_module]` = coarse module index.
    pub map: Vec<u32>,
    /// `net_map[fine_net]` = coarse net index, or [`DROPPED_NET`] for
    /// nets internal to a single cluster.
    pub net_map: Vec<u32>,
    /// Accumulated coarse module areas (sum of the member areas).
    pub areas: ModuleAreas,
    /// Fixed-block pins projected onto the clusters. Contraction never
    /// merges conflicting pins, so each cluster inherits at most one
    /// block.
    pub fixed: FixedModules,
    /// Number of fine nets dropped as cluster-internal.
    pub dropped_nets: usize,
    /// Number of merges performed (`fine modules − clusters`; the level
    /// shrinks by this much). A matched pair accounts for one merge; a
    /// cluster that absorbed modules accounts for several.
    pub merges: usize,
}

/// Contracts `hg` by one level of connectivity-weighted matching plus
/// cluster absorption. Merges producing a cluster heavier than
/// `max_cluster_area` are refused (`f64::INFINITY` disables the cap;
/// singleton modules heavier than the cap simply stay unmerged). Bound
/// the cap, or absorption collapses star-shaped netlists into one
/// mega-cluster. Deterministic: modules are visited in index order,
/// ties break toward the smaller neighbor/cluster index, and cluster ids
/// are assigned in founding order.
///
/// # Panics
///
/// Panics if `hg` is empty or if `areas`/`fixed` lengths disagree with
/// the module count — the V-cycle driver constructs them consistently.
pub fn coarsen_level(
    hg: &Hypergraph,
    areas: &ModuleAreas,
    fixed: &FixedModules,
    max_cluster_area: f64,
) -> Level {
    let n = hg.num_modules();
    assert!(n > 0, "cannot coarsen an empty hypergraph");
    assert_eq!(areas.len(), n, "areas length must match module count");
    assert_eq!(fixed.len(), n, "fixed length must match module count");

    // Eager clustering: visit modules in index order; each unclustered
    // module either founds a cluster (alone or with its best unmatched
    // neighbor) or joins the neighbor cluster it is most connected to.
    // Cluster ids are founded in index order.
    let mut map = vec![UNMATCHED; n];
    let mut cluster_area: Vec<f64> = Vec::new();
    let mut cluster_pin: Vec<Option<usize>> = Vec::new();
    let mut weight = vec![0.0f64; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut cweight = vec![0.0f64; n];
    let mut ctouched: Vec<u32> = Vec::new();
    // running collector for modules with no (weight-eligible) nets: no
    // partition's cut depends on where they go, so they pack together
    // up to the area cap instead of stalling the shrink
    let mut iso_cluster: Option<u32> = None;
    for v in 0..n {
        if map[v] != UNMATCHED {
            continue;
        }
        let mv = ModuleId(v as u32);
        let area_v = areas.area(mv);
        let pin_v = fixed.block_of(mv);
        for &net in hg.nets_of(mv) {
            let pins = hg.pins(net);
            if pins.len() < 2 || pins.len() > MAX_MATCHING_NET_SIZE {
                continue;
            }
            let w = 1.0 / (pins.len() - 1) as f64;
            for &u in pins {
                let ui = u.index();
                if ui == v {
                    continue;
                }
                if weight[ui] == 0.0 {
                    touched.push(u.0);
                }
                weight[ui] += w;
            }
        }
        if touched.is_empty() {
            if let Some(c) = iso_cluster {
                let ci = c as usize;
                let pin_ok = !matches!((pin_v, cluster_pin[ci]), (Some(a), Some(b)) if a != b);
                if pin_ok && cluster_area[ci] + area_v <= max_cluster_area {
                    map[v] = c;
                    cluster_area[ci] += area_v;
                    if cluster_pin[ci].is_none() {
                        cluster_pin[ci] = pin_v;
                    }
                    continue;
                }
            }
            let id = cluster_area.len() as u32;
            map[v] = id;
            cluster_area.push(area_v);
            cluster_pin.push(pin_v);
            iso_cluster = Some(id);
            continue;
        }
        // best unmatched partner; also fold clustered neighbors' weights
        // into per-cluster totals
        let mut best: Option<(u32, f64)> = None;
        for &u in &touched {
            let ui = u as usize;
            let w = weight[ui];
            if map[ui] != UNMATCHED {
                let c = map[ui];
                if cweight[c as usize] == 0.0 {
                    ctouched.push(c);
                }
                cweight[c as usize] += w;
                continue;
            }
            // pinned-to-different-blocks pairs must stay separable
            if let (Some(a), Some(b)) = (pin_v, fixed.block_of(ModuleId(u))) {
                if a != b {
                    continue;
                }
            }
            if area_v + areas.area(ModuleId(u)) > max_cluster_area {
                continue;
            }
            let better = match best {
                None => true,
                Some((bu, bw)) => w > bw || (w == bw && u < bu),
            };
            if better {
                best = Some((u, w));
            }
        }
        // best cluster to join, by total member connectivity; ties break
        // toward the older cluster (smaller id = smaller founder index)
        let mut join: Option<(u32, f64)> = None;
        for &c in &ctouched {
            let ci = c as usize;
            let w = cweight[ci];
            if let (Some(a), Some(b)) = (pin_v, cluster_pin[ci]) {
                if a != b {
                    continue;
                }
            }
            if cluster_area[ci] + area_v > max_cluster_area {
                continue;
            }
            let better = match join {
                None => true,
                Some((bc, bw)) => w > bw || (w == bw && c < bc),
            };
            if better {
                join = Some((c, w));
            }
        }
        for &u in &touched {
            weight[u as usize] = 0.0;
        }
        touched.clear();
        for &c in &ctouched {
            cweight[c as usize] = 0.0;
        }
        ctouched.clear();
        // a fresh pair wins weight ties over absorption: it keeps
        // clusters small
        match (best, join) {
            (Some((u, bw)), j) if j.is_none_or(|(_, jw)| bw >= jw) => {
                let id = cluster_area.len() as u32;
                map[v] = id;
                map[u as usize] = id;
                cluster_area.push(area_v + areas.area(ModuleId(u)));
                cluster_pin.push(pin_v.or(fixed.block_of(ModuleId(u))));
            }
            (_, Some((c, _))) => {
                map[v] = c;
                cluster_area[c as usize] += area_v;
                if cluster_pin[c as usize].is_none() {
                    cluster_pin[c as usize] = pin_v;
                }
            }
            // `(Some, None)` always passes the first arm's guard, so
            // this arm only ever founds true singletons
            (_, None) => {
                let id = cluster_area.len() as u32;
                map[v] = id;
                cluster_area.push(area_v);
                cluster_pin.push(pin_v);
            }
        }
    }
    let num_clusters = cluster_area.len();
    let merges = n - num_clusters;

    // project pins onto the clusters (cluster_pin already enforced
    // compatibility during the merge decisions; this rebuilds the
    // projection from the source of truth and cross-checks it)
    let mut coarse_fixed = FixedModules::free(num_clusters);
    for (m, block) in fixed.pins() {
        let c = ModuleId(map[m.index()]);
        debug_assert!(
            coarse_fixed.block_of(c).is_none_or(|b| b == block),
            "matching merged modules pinned to different blocks"
        );
        coarse_fixed.pin(c, block);
    }

    // contract nets; keep duplicates, drop cluster-internal nets
    let mut builder = HypergraphBuilder::new(num_clusters);
    let mut net_map = vec![DROPPED_NET; hg.num_nets()];
    let mut kept = 0u32;
    let mut dropped_nets = 0usize;
    for net in hg.nets() {
        let pins: Vec<ModuleId> = hg
            .pins(net)
            .iter()
            .map(|m| ModuleId(map[m.index()]))
            .collect();
        let first = pins[0];
        if pins[1..].iter().any(|&p| p != first) {
            builder.add_net(pins).expect("contracted net valid");
            net_map[net.index()] = kept;
            kept += 1;
        } else {
            dropped_nets += 1;
        }
    }

    Level {
        coarse: builder.finish().expect("contracted hypergraph valid"),
        map,
        net_map,
        areas: ModuleAreas::new(cluster_area),
        fixed: coarse_fixed,
        dropped_nets,
        merges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_netlist::hypergraph_from_nets;

    fn free_uniform(hg: &Hypergraph) -> (ModuleAreas, FixedModules) {
        (
            ModuleAreas::uniform(hg.num_modules()),
            FixedModules::free(hg.num_modules()),
        )
    }

    #[test]
    fn chain_halves_and_preserves_area() {
        let hg = hypergraph_from_nets(
            6,
            &[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 5]],
        );
        let (areas, fixed) = free_uniform(&hg);
        let level = coarsen_level(&hg, &areas, &fixed, f64::INFINITY);
        assert_eq!(level.coarse.num_modules(), 3);
        assert_eq!(level.merges, 3);
        assert!((level.areas.total() - areas.total()).abs() < 1e-12);
        assert!(level
            .areas
            .as_slice()
            .iter()
            .all(|&a| (a - 2.0).abs() < 1e-12));
    }

    #[test]
    fn duplicates_survive_and_internal_nets_drop() {
        // 0—1 and 2—3 merge (the cap keeps 2 from joining {0,1}); the
        // parallel {0,1} nets and {2,3} drop as cluster-internal, while
        // BOTH parallel {1,2} nets survive — the coarse cut of any
        // partition separating the two clusters stays 2, exactly the
        // flat cut
        let hg = hypergraph_from_nets(
            4,
            &[vec![0, 1], vec![0, 1], vec![1, 2], vec![1, 2], vec![2, 3]],
        );
        let (areas, fixed) = free_uniform(&hg);
        let level = coarsen_level(&hg, &areas, &fixed, 2.0);
        assert_eq!(level.map, vec![0, 0, 1, 1]);
        assert_eq!(level.dropped_nets, 3);
        assert_eq!(level.net_map[0], DROPPED_NET);
        assert_eq!(level.net_map[1], DROPPED_NET);
        assert_eq!(level.net_map[4], DROPPED_NET);
        assert_eq!(level.coarse.num_nets(), 2, "parallel coarse nets retained");
    }

    #[test]
    fn conflicting_pins_never_merge() {
        // 0 and 1 are each other's only neighbors but pinned apart
        let hg = hypergraph_from_nets(4, &[vec![0, 1], vec![0, 1], vec![2, 3]]);
        let areas = ModuleAreas::uniform(4);
        let mut fixed = FixedModules::free(4);
        fixed.pin(ModuleId(0), 0);
        fixed.pin(ModuleId(1), 1);
        let level = coarsen_level(&hg, &areas, &fixed, f64::INFINITY);
        assert_ne!(level.map[0], level.map[1]);
        assert_eq!(level.fixed.block_of(ModuleId(level.map[0])), Some(0));
        assert_eq!(level.fixed.block_of(ModuleId(level.map[1])), Some(1));
    }

    #[test]
    fn area_cap_blocks_heavy_merges() {
        let hg = hypergraph_from_nets(4, &[vec![0, 1], vec![2, 3]]);
        let areas = ModuleAreas::new(vec![3.0, 3.0, 1.0, 1.0]);
        let fixed = FixedModules::free(4);
        let level = coarsen_level(&hg, &areas, &fixed, 4.0);
        assert_ne!(level.map[0], level.map[1], "3+3 exceeds the cap");
        assert_eq!(level.map[2], level.map[3], "1+1 fits");
    }

    #[test]
    fn absorption_rescues_stranded_leaves() {
        // star: pair matching alone forms {0,1} and strands 2, 3, 4 (their
        // only neighbor is matched); absorption folds them into the hub
        // cluster until the area cap refuses
        let hg = hypergraph_from_nets(5, &[vec![0, 1], vec![0, 2], vec![0, 3], vec![0, 4]]);
        let (areas, fixed) = free_uniform(&hg);
        let absorb = coarsen_level(&hg, &areas, &fixed, f64::INFINITY);
        assert_eq!(absorb.coarse.num_modules(), 1, "uncapped star collapses");
        assert_eq!(absorb.merges, 4);
        let capped = coarsen_level(&hg, &areas, &fixed, 3.0);
        // {0,1} absorbs 2, then the cap refuses 3 and 4 (no other nets
        // connect them)
        assert_eq!(capped.coarse.num_modules(), 3);
        assert_eq!(capped.map[2], capped.map[0]);
        assert_ne!(capped.map[3], capped.map[0]);
    }

    #[test]
    fn isolated_modules_pack_under_absorption() {
        // modules 2..6 touch no net: pair matching can never merge them,
        // absorption packs them up to the area cap
        let hg = hypergraph_from_nets(6, &[vec![0, 1]]);
        let (areas, fixed) = free_uniform(&hg);
        let absorb = coarsen_level(&hg, &areas, &fixed, 3.0);
        // {0,1} pair; {2,3,4} fill one collector; {5} starts the next
        assert_eq!(absorb.coarse.num_modules(), 3);
        assert_eq!(absorb.map[2], absorb.map[3]);
        assert_eq!(absorb.map[2], absorb.map[4]);
        assert_ne!(absorb.map[5], absorb.map[4]);
        assert!((absorb.areas.total() - areas.total()).abs() < 1e-12);
    }

    #[test]
    fn absorption_respects_pins() {
        // 1 and 2 hang off the pinned hub 0; module 2 is pinned to a
        // different block, so it must stay out of the hub's cluster
        let hg = hypergraph_from_nets(3, &[vec![0, 1], vec![0, 2]]);
        let areas = ModuleAreas::uniform(3);
        let mut fixed = FixedModules::free(3);
        fixed.pin(ModuleId(0), 0);
        fixed.pin(ModuleId(2), 1);
        let level = coarsen_level(&hg, &areas, &fixed, f64::INFINITY);
        assert_eq!(level.map[0], level.map[1]);
        assert_ne!(level.map[2], level.map[0]);
        assert_eq!(level.fixed.block_of(ModuleId(level.map[0])), Some(0));
        assert_eq!(level.fixed.block_of(ModuleId(level.map[2])), Some(1));
    }

    #[test]
    fn oversized_nets_carry_no_weight_but_still_contract() {
        // module 0 sits on one big net over 0 and 2.., module 1 on no net,
        // and {65,66} is an ordinary 2-pin net; the cap allows pairs only
        let big_net =
            |pins: usize| -> Vec<u32> { std::iter::once(0).chain(2..pins as u32 + 1).collect() };
        let areas = ModuleAreas::uniform(67);
        let fixed = FixedModules::free(67);

        // one pin over the cutoff: module 0 has no weighted neighbor, so
        // it packs with the net-less module 1 like any isolated module
        let over = big_net(MAX_MATCHING_NET_SIZE + 1);
        assert_eq!(over.len(), 65);
        let hg = hypergraph_from_nets(67, &[over, vec![65, 66]]);
        let level = coarsen_level(&hg, &areas, &fixed, 2.0);
        assert_eq!(level.map[0], level.map[1]);
        assert_eq!(level.map[65], level.map[66]);
        assert_eq!(level.net_map[1], DROPPED_NET, "{{65,66}} collapses");
        assert_eq!(level.coarse.num_nets(), 1, "the big net stays");

        // at the cutoff the net carries weight: 0 pairs with neighbor 2
        let at = big_net(MAX_MATCHING_NET_SIZE);
        let hg = hypergraph_from_nets(67, &[at, vec![65, 66]]);
        let level = coarsen_level(&hg, &areas, &fixed, 2.0);
        assert_eq!(level.map[0], level.map[2]);
        assert_ne!(level.map[0], level.map[1]);
    }
}
