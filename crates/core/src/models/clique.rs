//! The standard weighted clique net model.

use np_netlist::Hypergraph;
use np_sparse::{CsrMatrix, Laplacian, TripletBuilder};

/// Builds the module adjacency of the clique model, weighting each
/// `k`-pin net's pairs by `weight(k)`. Nets with `k < 2` contribute
/// nothing — a single-pin net spans no pair, and a `1/(k−1)`-style weight
/// would be non-finite for it.
fn clique_with_weight(hg: &Hypergraph, weight: fn(usize) -> f64) -> CsrMatrix {
    let mut b = TripletBuilder::new(hg.num_modules());
    for net in hg.nets() {
        let pins = hg.pins(net);
        let k = pins.len();
        if k < 2 {
            continue;
        }
        let w = weight(k);
        for i in 0..k {
            for j in i + 1..k {
                b.push_sym(pins[i].index(), pins[j].index(), w);
            }
        }
    }
    b.into_csr()
}

fn standard_weight(k: usize) -> f64 {
    1.0 / (k as f64 - 1.0)
}

fn bound_preserving_weight(k: usize) -> f64 {
    1.0 / ((k / 2) as f64 * k.div_ceil(2) as f64)
}

/// Builds the module-adjacency matrix of the netlist under the standard
/// weighted clique model: each `k`-pin net (`k ≥ 2`) adds `1/(k−1)` to
/// `A_ij` for every pair of its pins. Single-pin nets contribute nothing.
///
/// With this normalization every net contributes exactly
/// `(k−1)·1/(k−1) = 1` to the weighted degree of each of its pins, so a
/// module's degree in the clique graph equals its net count in the
/// hypergraph — the "fairness" property of the standard model.
///
/// # Example
///
/// ```
/// use np_core::models::clique_adjacency;
/// use np_netlist::hypergraph_from_nets;
///
/// let hg = hypergraph_from_nets(3, &[vec![0, 1, 2]]);
/// let a = clique_adjacency(&hg);
/// assert_eq!(a.nnz(), 6); // 3 pairs, stored symmetrically
/// assert!((a.get(0, 1) - 0.5).abs() < 1e-12); // 1/(3-1)
/// ```
pub fn clique_adjacency(hg: &Hypergraph) -> CsrMatrix {
    clique_with_weight(hg, standard_weight)
}

/// The Laplacian `Q = D − A` of the clique-model graph; its Fiedler vector
/// drives the EIG1 baseline.
pub fn clique_laplacian(hg: &Hypergraph) -> Laplacian {
    Laplacian::from_adjacency(clique_adjacency(hg))
}

/// Builds the module-adjacency matrix under the *bound-preserving* clique
/// weighting: a `k`-pin net adds `1/(⌊k/2⌋·⌈k/2⌉)` to each of its module
/// pairs.
///
/// With this weighting a net split `s : k−s` contributes
/// `s(k−s)/(⌊k/2⌋·⌈k/2⌉) ≤ 1` to the weighted graph cut, so the graph cut
/// *under-estimates* the net cut for every bipartition — which is what
/// makes `λ₂/n` of the resulting Laplacian a valid lower bound on the
/// optimal hypergraph ratio cut (see [`bounds`](crate::bounds)).
///
/// # Example
///
/// ```
/// use np_core::models::clique::bound_preserving_adjacency;
/// use np_netlist::hypergraph_from_nets;
///
/// let hg = hypergraph_from_nets(4, &[vec![0, 1, 2, 3]]);
/// let a = bound_preserving_adjacency(&hg);
/// assert!((a.get(0, 1) - 0.25).abs() < 1e-12); // 1/(2·2)
/// ```
pub fn bound_preserving_adjacency(hg: &Hypergraph) -> CsrMatrix {
    clique_with_weight(hg, bound_preserving_weight)
}

/// The Laplacian of the bound-preserving clique graph (see
/// [`bound_preserving_adjacency`]).
pub fn bound_preserving_laplacian(hg: &Hypergraph) -> Laplacian {
    Laplacian::from_adjacency(bound_preserving_adjacency(hg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_netlist::hypergraph_from_nets;

    #[test]
    fn two_pin_net_weight_one() {
        let hg = hypergraph_from_nets(2, &[vec![0, 1]]);
        let a = clique_adjacency(&hg);
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 0), 1.0);
    }

    #[test]
    fn k_pin_net_generates_k_choose_2_pairs() {
        let hg = hypergraph_from_nets(5, &[vec![0, 1, 2, 3, 4]]);
        let a = clique_adjacency(&hg);
        assert_eq!(a.nnz(), 2 * 10); // C(5,2) pairs symmetric
        assert!((a.get(0, 4) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn overlapping_nets_accumulate() {
        let hg = hypergraph_from_nets(2, &[vec![0, 1], vec![0, 1]]);
        let a = clique_adjacency(&hg);
        assert_eq!(a.get(0, 1), 2.0);
    }

    #[test]
    fn single_pin_net_ignored() {
        let hg = hypergraph_from_nets(2, &[vec![0], vec![0, 1]]);
        let a = clique_adjacency(&hg);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn degrees_equal_module_net_counts() {
        // with the 1/(k-1) normalization each net contributes exactly 1 to
        // the degree of each of its pins
        let hg = hypergraph_from_nets(4, &[vec![0, 1, 2], vec![1, 2, 3], vec![0, 3]]);
        let q = clique_laplacian(&hg);
        for m in hg.modules() {
            let expect = hg.degree(m) as f64;
            assert!(
                (q.degrees()[m.index()] - expect).abs() < 1e-12,
                "module {m}: {} vs {expect}",
                q.degrees()[m.index()]
            );
        }
    }

    #[test]
    fn adjacency_symmetric() {
        let hg = hypergraph_from_nets(6, &[vec![0, 1, 2, 3], vec![2, 3, 4], vec![4, 5]]);
        assert!(clique_adjacency(&hg).is_symmetric(1e-12));
    }

    #[test]
    fn single_pin_net_laplacian_stays_finite() {
        // regression: a k=1 net must not feed 1/(k−1) = ∞ into the model;
        // the weights, degrees and quadratic form all stay finite
        let hg = hypergraph_from_nets(3, &[vec![0], vec![1], vec![0, 1, 2]]);
        for a in [clique_adjacency(&hg), bound_preserving_adjacency(&hg)] {
            for r in 0..3 {
                assert!(a.row(r).1.iter().all(|w| w.is_finite()));
            }
        }
        let q = clique_laplacian(&hg);
        assert!(q.degrees().iter().all(|d| d.is_finite()));
        assert!(q.quadratic_form(&[1.0, -2.0, 0.5]).is_finite());
    }
}
