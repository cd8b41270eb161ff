//! The intersection graph (dual) representation of the netlist.
//!
//! Given the netlist hypergraph `H = (V', E')` with `m` nets, the
//! intersection graph `G'` has one vertex per net and an edge `{s_a, s_b}`
//! whenever the two nets share at least one module (paper §2.2, Figure 1).
//! The paper's edge weighting, over the `q` shared modules `v_1..v_q`:
//!
//! ```text
//!     A'_ab = Σ_{k=1..q}  1/(d_k − 1) · (1/|s_a| + 1/|s_b|)
//! ```
//!
//! where `d_k` is the hypergraph degree of shared module `v_k`. Overlaps
//! between large nets, and overlaps through promiscuous (high-degree)
//! modules, are discounted.
//!
//! The paper reports that several weighting variants give "extremely
//! similar, high-quality" results; [`IgWeighting`] exposes the variants so
//! the claim can be tested (ablation experiment E10 in `DESIGN.md`).

use np_netlist::Hypergraph;
use np_sparse::{CsrMatrix, Laplacian, TripletBuilder};

/// Pushes, for every module, its `C(d,2)` net pairs into `b` under the
/// Paper/SizeScaled weighting. Modules of degree `< 2` span no pair (and
/// under [`IgWeighting::Paper`] a `1/(d−1)` factor would be non-finite for
/// them), so they contribute nothing.
fn weighted_pair_triplets(hg: &Hypergraph, weighting: IgWeighting, b: &mut TripletBuilder) {
    for module in hg.modules() {
        let nets = hg.nets_of(module);
        let d = nets.len();
        if d < 2 {
            continue;
        }
        let degree_factor = match weighting {
            IgWeighting::Paper => 1.0 / (d as f64 - 1.0),
            _ => 1.0,
        };
        for i in 0..d {
            let size_i = hg.net_size(nets[i]) as f64;
            for j in i + 1..d {
                let size_j = hg.net_size(nets[j]) as f64;
                let w = degree_factor * (1.0 / size_i + 1.0 / size_j);
                b.push_sym(nets[i].index(), nets[j].index(), w);
            }
        }
    }
}

/// Pushes a unit count for every net pair meeting at a module (the
/// accumulation pass shared by Uniform and SharedCount).
fn count_pair_triplets(hg: &Hypergraph, b: &mut TripletBuilder) {
    for module in hg.modules() {
        let nets = hg.nets_of(module);
        for i in 0..nets.len() {
            for j in i + 1..nets.len() {
                b.push_sym(nets[i].index(), nets[j].index(), 1.0);
            }
        }
    }
}

/// Debug-time check of the intersection graph's structural invariant: a
/// net never intersects itself, so `A'` must have an empty diagonal.
/// `HypergraphBuilder` dedupes each net's pin list, which is what makes
/// every `nets_of` list duplicate-free and this assertion hold; it would
/// catch a regression that reintroduces duplicate pins.
fn debug_assert_no_self_loops(a: &CsrMatrix, num_nets: usize) {
    if cfg!(debug_assertions) {
        for r in 0..num_nets {
            debug_assert!(
                a.get(r, r) == 0.0,
                "intersection graph has a self-loop at net {r}"
            );
        }
    }
}

/// Edge-weighting scheme for the intersection graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum IgWeighting {
    /// The paper's weighting:
    /// `Σ_k 1/(d_k−1) · (1/|s_a| + 1/|s_b|)` over shared modules.
    #[default]
    Paper,
    /// Unit weight for every intersecting pair of nets.
    Uniform,
    /// Weight = number of shared modules.
    SharedCount,
    /// Weight = `Σ_k (1/|s_a| + 1/|s_b|)`: size-discounted but without the
    /// module-degree factor.
    SizeScaled,
}

impl IgWeighting {
    /// All implemented variants, for ablation sweeps.
    pub const ALL: [IgWeighting; 4] = [
        IgWeighting::Paper,
        IgWeighting::Uniform,
        IgWeighting::SharedCount,
        IgWeighting::SizeScaled,
    ];

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            IgWeighting::Paper => "paper",
            IgWeighting::Uniform => "uniform",
            IgWeighting::SharedCount => "shared-count",
            IgWeighting::SizeScaled => "size-scaled",
        }
    }
}

/// Builds the weighted adjacency matrix `A'` of the intersection graph.
///
/// The matrix is `m × m` for `m = hg.num_nets()`. Construction enumerates,
/// for every module of degree `d ≥ 2`, the `C(d,2)` pairs of nets meeting
/// at that module — `O(Σ_v d_v²)` total, which is small because module
/// degrees are bounded by technology fanout limits.
///
/// Note that for [`IgWeighting::Uniform`] the entry for a pair sharing
/// several modules is still `1.0` (the weight is per *pair*, not per
/// shared module).
///
/// # Example
///
/// ```
/// use np_core::models::{intersection_adjacency, IgWeighting};
/// use np_netlist::hypergraph_from_nets;
///
/// // nets n0={0,1}, n1={1,2}: share module 1, which has degree 2
/// let hg = hypergraph_from_nets(3, &[vec![0, 1], vec![1, 2]]);
/// let a = intersection_adjacency(&hg, IgWeighting::Paper);
/// // A'_01 = 1/(2-1) · (1/2 + 1/2) = 1
/// assert!((a.get(0, 1) - 1.0).abs() < 1e-12);
/// ```
pub fn intersection_adjacency(hg: &Hypergraph, weighting: IgWeighting) -> CsrMatrix {
    let m = hg.num_nets();
    let mut b = TripletBuilder::new(m);
    match weighting {
        IgWeighting::Paper | IgWeighting::SizeScaled => {
            weighted_pair_triplets(hg, weighting, &mut b)
        }
        IgWeighting::Uniform | IgWeighting::SharedCount => count_pair_triplets(hg, &mut b),
    }
    let mut a = b.into_csr();
    if weighting == IgWeighting::Uniform {
        // collapse accumulated shared-module counts back to 1.0 per pair
        let mut b2 = TripletBuilder::new(m);
        for r in 0..m {
            let (cols, _) = a.row(r);
            for &c in cols {
                if (c as usize) > r {
                    b2.push_sym(r, c as usize, 1.0);
                }
            }
        }
        a = b2.into_csr();
    }
    debug_assert_no_self_loops(&a, m);
    a
}

/// The Laplacian `Q' = D' − A'` of the intersection graph; its Fiedler
/// vector gives the net ordering for IG-Vote and IG-Match.
pub fn intersection_laplacian(hg: &Hypergraph, weighting: IgWeighting) -> Laplacian {
    Laplacian::from_adjacency(intersection_adjacency(hg, weighting))
}

/// Unweighted adjacency lists of the intersection graph: for each net, the
/// sorted list of other nets sharing at least one module with it.
///
/// This is the structure the IG-Match bipartite machinery works on — the
/// conflict edges of a split are exactly the intersection-graph edges that
/// cross it, independent of any weighting (paper §3).
pub fn intersection_neighbors(hg: &Hypergraph) -> Vec<Vec<u32>> {
    let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); hg.num_nets()];
    for module in hg.modules() {
        let nets = hg.nets_of(module);
        for i in 0..nets.len() {
            for j in i + 1..nets.len() {
                neighbors[nets[i].index()].push(nets[j].0);
                neighbors[nets[j].index()].push(nets[i].0);
            }
        }
    }
    for list in &mut neighbors {
        list.sort_unstable();
        list.dedup();
    }
    neighbors
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_netlist::hypergraph_from_nets;

    /// The 6-net example of paper Figure 1 cannot be reproduced exactly
    /// (the figure is an image), but its defining property can: the
    /// weighting formula, checked entry by entry on a hand example.
    fn hand_example() -> Hypergraph {
        // modules 0..5
        // n0 = {0,1,2}, n1 = {2,3}, n2 = {3,4,5}, n3 = {0,5}
        hypergraph_from_nets(6, &[vec![0, 1, 2], vec![2, 3], vec![3, 4, 5], vec![0, 5]])
    }

    #[test]
    fn paper_weighting_formula() {
        let hg = hand_example();
        let a = intersection_adjacency(&hg, IgWeighting::Paper);
        // n0 ∩ n1 = {2}; d(2) = 2; |n0| = 3, |n1| = 2
        let expect01 = 1.0 / (2.0 - 1.0) * (1.0 / 3.0 + 1.0 / 2.0);
        assert!((a.get(0, 1) - expect01).abs() < 1e-12);
        // n1 ∩ n2 = {3}; d(3) = 2; |n1| = 2, |n2| = 3
        let expect12 = 1.0 * (1.0 / 2.0 + 1.0 / 3.0);
        assert!((a.get(1, 2) - expect12).abs() < 1e-12);
        // n0 ∩ n2 = ∅
        assert_eq!(a.get(0, 2), 0.0);
        // n0 ∩ n3 = {0}; d(0) = 2
        let expect03 = 1.0 * (1.0 / 3.0 + 1.0 / 2.0);
        assert!((a.get(0, 3) - expect03).abs() < 1e-12);
    }

    #[test]
    fn multiple_shared_modules_sum() {
        // n0 = {0,1,2}, n1 = {0,1,3}: share modules 0 and 1, both degree 2
        let hg = hypergraph_from_nets(4, &[vec![0, 1, 2], vec![0, 1, 3]]);
        let a = intersection_adjacency(&hg, IgWeighting::Paper);
        let per_module = 1.0 * (1.0 / 3.0 + 1.0 / 3.0);
        assert!((a.get(0, 1) - 2.0 * per_module).abs() < 1e-12);
    }

    #[test]
    fn high_degree_module_discounted() {
        // module 0 belongs to 3 nets: pairs through it get factor 1/2
        let hg = hypergraph_from_nets(4, &[vec![0, 1], vec![0, 2], vec![0, 3]]);
        let a = intersection_adjacency(&hg, IgWeighting::Paper);
        let expect = (1.0 / 2.0) * (1.0 / 2.0 + 1.0 / 2.0);
        assert!((a.get(0, 1) - expect).abs() < 1e-12);
        assert!((a.get(1, 2) - expect).abs() < 1e-12);
    }

    #[test]
    fn uniform_weighting_is_zero_one() {
        let hg = hypergraph_from_nets(4, &[vec![0, 1, 2], vec![0, 1, 3], vec![3, 2]]);
        let a = intersection_adjacency(&hg, IgWeighting::Uniform);
        assert_eq!(a.get(0, 1), 1.0); // two shared modules, still 1.0
        assert_eq!(a.get(0, 2), 1.0);
        assert_eq!(a.get(1, 2), 1.0);
    }

    #[test]
    fn shared_count_weighting() {
        let hg = hypergraph_from_nets(4, &[vec![0, 1, 2], vec![0, 1, 3]]);
        let a = intersection_adjacency(&hg, IgWeighting::SharedCount);
        assert_eq!(a.get(0, 1), 2.0);
    }

    #[test]
    fn all_weightings_same_sparsity_pattern() {
        let hg = hand_example();
        let pattern: Vec<Vec<u32>> = IgWeighting::ALL
            .iter()
            .map(|&w| {
                let a = intersection_adjacency(&hg, w);
                (0..hg.num_nets())
                    .flat_map(|r| a.row(r).0.to_vec())
                    .collect()
            })
            .collect();
        for p in &pattern[1..] {
            assert_eq!(&pattern[0], p);
        }
    }

    #[test]
    fn neighbors_match_shared_modules() {
        let hg = hand_example();
        let nb = intersection_neighbors(&hg);
        for a in hg.nets() {
            for b_ in hg.nets() {
                if a == b_ {
                    continue;
                }
                let share = !hg.shared_modules(a, b_).is_empty();
                let adjacent = nb[a.index()].binary_search(&b_.0).is_ok();
                assert_eq!(share, adjacent, "nets {a},{b_}");
            }
        }
    }

    #[test]
    fn neighbors_symmetric_and_deduped() {
        let hg = hypergraph_from_nets(4, &[vec![0, 1, 2], vec![0, 1, 3], vec![2, 3]]);
        let nb = intersection_neighbors(&hg);
        for (i, list) in nb.iter().enumerate() {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
            for &j in list {
                assert!(nb[j as usize].contains(&(i as u32)), "asymmetric {i}-{j}");
            }
        }
    }

    #[test]
    fn intersection_sparser_than_clique_on_wide_nets() {
        // one 10-pin net + a few 2-pin nets: clique explodes, IG does not
        let mut nets = vec![(0..10u32).collect::<Vec<_>>()];
        for i in 0..5 {
            nets.push(vec![i, i + 10]);
        }
        let hg = hypergraph_from_nets(15, &nets);
        let clique = super::super::clique::clique_adjacency(&hg);
        let ig = intersection_adjacency(&hg, IgWeighting::Paper);
        assert!(
            ig.nnz() < clique.nnz(),
            "ig {} vs clique {}",
            ig.nnz(),
            clique.nnz()
        );
    }

    #[test]
    fn duplicate_pin_net_no_self_loop() {
        // regression: a raw net listing module 1 twice must not produce a
        // self-pair in the nets[i]/nets[j] loop. HypergraphBuilder dedupes
        // the pin list, so nets_of stays duplicate-free and the diagonal
        // of A' stays empty.
        let hg = hypergraph_from_nets(3, &[vec![0, 1, 1], vec![1, 2]]);
        assert_eq!(hg.net_size(np_netlist::NetId(0)), 2, "pins deduped");
        for w in IgWeighting::ALL {
            let a = intersection_adjacency(&hg, w);
            for r in 0..hg.num_nets() {
                assert_eq!(a.get(r, r), 0.0, "self-loop under {w:?}");
                assert!(a.row(r).1.iter().all(|v| v.is_finite()));
            }
        }
        // the shared module is counted once: d(1) = 2, |n0| = |n1| = 2
        let a = intersection_adjacency(&hg, IgWeighting::Paper);
        assert!((a.get(0, 1) - 1.0).abs() < 1e-12, "1/(2−1)·(1/2+1/2)");
    }

    #[test]
    fn single_pin_net_weights_finite() {
        // a single-pin net is an isolated vertex of G' with finite (zero)
        // degree, not a NaN/∞ source
        let hg = hypergraph_from_nets(3, &[vec![0], vec![0, 1], vec![1, 2]]);
        for w in IgWeighting::ALL {
            let q = intersection_laplacian(&hg, w);
            assert!(q.degrees().iter().all(|d| d.is_finite()), "{w:?}");
        }
    }

    #[test]
    fn laplacian_degrees_are_row_sums() {
        let hg = hand_example();
        let a = intersection_adjacency(&hg, IgWeighting::Paper);
        let q = intersection_laplacian(&hg, IgWeighting::Paper);
        for i in 0..hg.num_nets() {
            let row_sum: f64 = a.row(i).1.iter().sum();
            assert!((q.degrees()[i] - row_sum).abs() < 1e-12);
        }
    }
}
