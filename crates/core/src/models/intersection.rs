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
use np_sparse::{CsrMatrix, Laplacian};

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
/// The matrix is `m × m` for `m = hg.num_nets()`, built one row at a
/// time straight into CSR: for each pin module `v` of net `a` with
/// degree `d_v ≥ 2`, `v`'s term is added into a dense accumulator for
/// every other net of `v`, and the row's touched columns are then
/// emitted in sorted order. That is `O(Σ_v d_v²)` total, which is small
/// because module degrees are bounded by technology fanout limits.
/// Modules of degree `< 2` span no pair (and under
/// [`IgWeighting::Paper`] a `1/(d−1)` factor would be non-finite for
/// them), so they contribute nothing.
///
/// Each entry sums its shared modules' terms in module order, so
/// `A'_ab` and `A'_ba` are the same sum, bit for bit. Every weight is
/// positive, so the sparsity pattern — which nets meet at a module — is
/// the same under every [`IgWeighting`], and it is the neighbour
/// structure the IG-Match sweep walks.
///
/// Note that for [`IgWeighting::Uniform`] the entry for a pair sharing
/// several modules is still `1.0` (the weight is per *pair*, not per
/// shared module).
///
/// # Panics
///
/// Panics if the graph has `u32::MAX` or more nonzeros.
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
    let inv_size: Vec<f64> = hg.nets().map(|e| 1.0 / hg.net_size(e) as f64).collect();
    let mut row_offsets = Vec::with_capacity(m + 1);
    row_offsets.push(0u32);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    // a touched column's sum is positive, so 0.0 marks an untouched one
    let mut acc = vec![0.0f64; m];
    let mut touched: Vec<u32> = Vec::new();
    for a in hg.nets() {
        for &v in hg.pins(a) {
            let nets = hg.nets_of(v);
            let d = nets.len();
            if d < 2 {
                continue;
            }
            let degree_factor = match weighting {
                IgWeighting::Paper => 1.0 / (d as f64 - 1.0),
                _ => 1.0,
            };
            for &b in nets {
                if b == a {
                    continue;
                }
                let sum = &mut acc[b.index()];
                if *sum == 0.0 {
                    touched.push(b.0);
                }
                *sum = match weighting {
                    IgWeighting::Uniform => 1.0,
                    IgWeighting::SharedCount => *sum + 1.0,
                    IgWeighting::Paper | IgWeighting::SizeScaled => {
                        *sum + degree_factor * (inv_size[a.index()] + inv_size[b.index()])
                    }
                };
            }
        }
        touched.sort_unstable();
        for &b in &touched {
            col_idx.push(b);
            values.push(std::mem::take(&mut acc[b as usize]));
        }
        touched.clear();
        row_offsets.push(
            u32::try_from(col_idx.len()).expect("intersection graph nonzeros overflow u32 offsets"),
        );
    }
    CsrMatrix::from_parts(m, row_offsets, col_idx, values)
}

/// The Laplacian `Q' = D' − A'` of the intersection graph; its Fiedler
/// vector gives the net ordering for IG-Vote and IG-Match. Its sparsity
/// pattern ([`Laplacian::pattern`], the same under every weighting) is
/// the conflict structure every IG-Match sweep walks: a split's conflict
/// edges are exactly the intersection-graph edges that cross it (paper
/// §3).
pub fn intersection_laplacian(hg: &Hypergraph, weighting: IgWeighting) -> Laplacian {
    Laplacian::from_adjacency(intersection_adjacency(hg, weighting))
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

    /// Each row of the Laplacian's pattern — what the IG-Match matcher
    /// reads — under every weighting.
    fn pattern_rows(hg: &Hypergraph) -> Vec<Vec<Vec<u32>>> {
        IgWeighting::ALL
            .iter()
            .map(|&w| {
                let (offsets, cols) = intersection_laplacian(hg, w).pattern();
                offsets
                    .windows(2)
                    .map(|r| cols[r[0] as usize..r[1] as usize].to_vec())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn neighbors_match_shared_modules() {
        let hg = hand_example();
        for (nb, w) in pattern_rows(&hg).iter().zip(IgWeighting::ALL) {
            assert_eq!(nb.len(), hg.num_nets(), "{w:?}");
            for a in hg.nets() {
                for b_ in hg.nets() {
                    if a == b_ {
                        continue;
                    }
                    let share = !hg.shared_modules(a, b_).is_empty();
                    let adjacent = nb[a.index()].binary_search(&b_.0).is_ok();
                    assert_eq!(share, adjacent, "{w:?}: nets {a},{b_}");
                }
            }
        }
    }

    #[test]
    fn neighbors_symmetric_and_deduped() {
        let hg = hypergraph_from_nets(4, &[vec![0, 1, 2], vec![0, 1, 3], vec![2, 3]]);
        for (nb, w) in pattern_rows(&hg).iter().zip(IgWeighting::ALL) {
            for (i, list) in nb.iter().enumerate() {
                assert!(
                    list.windows(2).all(|p| p[0] < p[1]),
                    "{w:?}: not sorted/deduped"
                );
                assert!(!list.contains(&(i as u32)), "{w:?}: self-loop at {i}");
                for &j in list {
                    assert!(
                        nb[j as usize].contains(&(i as u32)),
                        "{w:?}: asymmetric {i}-{j}"
                    );
                }
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
