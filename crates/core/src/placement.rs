//! Hall's r-dimensional quadratic placement (paper Appendix A).
//!
//! Hall showed that the vectors `x` minimizing the squared-wirelength
//! objective `z = ½ Σ_ij A_ij (x_i − x_j)²` subject to `‖x‖ = 1` are the
//! eigenvectors of `Q = D − A`: the trivial all-ones vector is excluded
//! and the next `r` eigenvectors give an `r`-dimensional placement in
//! which strongly connected modules sit close together. The paper uses
//! the 1-D case (the Fiedler vector) for partitioning; this module
//! computes the general embedding, which is the basis of spectral
//! placement engines and a handy visualization of what the partitioners
//! "see".
//!
//! Successive eigenvectors are obtained by repeated deflation: after the
//! Fiedler vector is found, it joins the deflation set and the next
//! smallest eigenpair is computed, and so on.

use crate::models::clique_laplacian;
use crate::PartitionError;
use np_eigen::{smallest_deflated, LanczosOptions};
use np_netlist::Hypergraph;
use np_sparse::{Laplacian, LinearOperator};

/// An `r`-dimensional spectral placement: coordinates per vertex plus the
/// eigenvalues of the used eigenvectors.
#[derive(Clone, Debug, PartialEq)]
pub struct SpectralPlacement {
    /// `coords[v]` holds the `r` coordinates of vertex `v`.
    pub coords: Vec<Vec<f64>>,
    /// The eigenvalues `λ₂ ≤ λ₃ ≤ …` of the dimensions used.
    pub eigenvalues: Vec<f64>,
}

impl SpectralPlacement {
    /// Number of placed vertices.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Returns `true` if nothing was placed.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Total squared wirelength `Σ_dims xᵀQx` of the placement — equals
    /// the sum of the used eigenvalues (Hall's optimality result), which
    /// the tests verify.
    pub fn squared_wirelength(&self, q: &Laplacian) -> f64 {
        (0..self.dims())
            .map(|d| {
                let x: Vec<f64> = self.coords.iter().map(|c| c[d]).collect();
                q.quadratic_form(&x)
            })
            .sum()
    }
}

/// Computes the `dims`-dimensional Hall placement of an arbitrary graph
/// Laplacian.
///
/// # Errors
///
/// * [`PartitionError::TooSmall`] if the graph has fewer than `dims + 1`
///   vertices;
/// * [`PartitionError::Eigen`] if an eigensolve fails.
pub fn hall_placement(
    q: &Laplacian,
    dims: usize,
    opts: &LanczosOptions,
) -> Result<SpectralPlacement, PartitionError> {
    let n = q.dim();
    if n < dims + 1 || dims == 0 {
        return Err(PartitionError::TooSmall {
            modules: n,
            nets: 0,
        });
    }
    let mut deflate: Vec<Vec<f64>> = vec![vec![1.0 / (n as f64).sqrt(); n]];
    let mut eigenvalues = Vec::with_capacity(dims);
    let mut vectors: Vec<Vec<f64>> = Vec::with_capacity(dims);
    for _ in 0..dims {
        let pair = smallest_deflated(q, &deflate, opts)?;
        eigenvalues.push(pair.value);
        deflate.push(pair.vector.clone());
        vectors.push(pair.vector);
    }
    let coords = (0..n)
        .map(|v| vectors.iter().map(|x| x[v]).collect())
        .collect();
    Ok(SpectralPlacement {
        coords,
        eigenvalues,
    })
}

/// Hall placement of the netlist's *modules* under the clique net model —
/// Appendix A exactly as written.
///
/// # Errors
///
/// Same as [`hall_placement`].
///
/// # Example
///
/// ```
/// use np_core::placement::module_placement;
/// use np_netlist::hypergraph_from_nets;
///
/// let hg = hypergraph_from_nets(
///     6,
///     &[vec![0, 1], vec![1, 2], vec![0, 2], vec![3, 4], vec![4, 5], vec![3, 5], vec![2, 3]],
/// );
/// let p = module_placement(&hg, 2, &Default::default())?;
/// // the two triangles separate along the first (Fiedler) coordinate
/// let side = |v: usize| p.coords[v][0] > 0.0;
/// assert_eq!(side(0), side(1));
/// assert_ne!(side(0), side(5));
/// # Ok::<(), np_core::PartitionError>(())
/// ```
pub fn module_placement(
    hg: &Hypergraph,
    dims: usize,
    opts: &LanczosOptions,
) -> Result<SpectralPlacement, PartitionError> {
    hall_placement(&clique_laplacian(hg), dims, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{intersection_laplacian, IgWeighting};
    use np_eigen::dense::{jacobi_eigen, materialize};
    use np_netlist::hypergraph_from_nets;
    use np_sparse::vecops::dot;

    fn two_triangles() -> Hypergraph {
        hypergraph_from_nets(
            6,
            &[
                vec![0, 1],
                vec![1, 2],
                vec![0, 2],
                vec![3, 4],
                vec![4, 5],
                vec![3, 5],
                vec![2, 3],
            ],
        )
    }

    #[test]
    fn coordinates_are_orthonormal_eigenvectors() {
        let hg = two_triangles();
        let p = module_placement(&hg, 3, &Default::default()).unwrap();
        assert_eq!(p.dims(), 3);
        assert_eq!(p.len(), 6);
        for d in 0..3 {
            let x: Vec<f64> = p.coords.iter().map(|c| c[d]).collect();
            assert!((dot(&x, &x) - 1.0).abs() < 1e-8, "dim {d} not unit");
            let s: f64 = x.iter().sum();
            assert!(s.abs() < 1e-6, "dim {d} not ⊥ ones");
            for d2 in 0..d {
                let y: Vec<f64> = p.coords.iter().map(|c| c[d2]).collect();
                assert!(dot(&x, &y).abs() < 1e-6, "dims {d},{d2} not orthogonal");
            }
        }
        // eigenvalues ascending
        assert!(p.eigenvalues.windows(2).all(|w| w[0] <= w[1] + 1e-9));
    }

    #[test]
    fn eigenvalues_match_dense_spectrum() {
        let hg = two_triangles();
        let q = clique_laplacian(&hg);
        let p = hall_placement(&q, 2, &Default::default()).unwrap();
        let dense = jacobi_eigen(&materialize(&q), 6);
        assert!((p.eigenvalues[0] - dense.values[1]).abs() < 1e-7);
        assert!((p.eigenvalues[1] - dense.values[2]).abs() < 1e-7);
    }

    #[test]
    fn wirelength_equals_eigenvalue_sum() {
        // Hall: the minimum of Σ xᵀQx over orthonormal x ⊥ 1 is Σ λ_i
        let hg = two_triangles();
        let q = clique_laplacian(&hg);
        let p = hall_placement(&q, 2, &Default::default()).unwrap();
        let total: f64 = p.eigenvalues.iter().sum();
        assert!((p.squared_wirelength(&q) - total).abs() < 1e-7);
    }

    #[test]
    fn first_dimension_separates_clusters() {
        let hg = two_triangles();
        let p = module_placement(&hg, 1, &Default::default()).unwrap();
        let side = |v: usize| p.coords[v][0] > 0.0;
        assert_eq!(side(0), side(1));
        assert_eq!(side(1), side(2));
        assert_ne!(side(2), side(3));
    }

    #[test]
    fn net_placement_works() {
        // the "nets-as-points" view (paper §2.2, citing Pillage–Rohrer):
        // Hall placement of the nets on the intersection graph
        let hg = two_triangles();
        let ig = intersection_laplacian(&hg, IgWeighting::Paper);
        let p = hall_placement(&ig, 2, &Default::default()).unwrap();
        assert_eq!(p.len(), hg.num_nets());
        assert_eq!(p.dims(), 2);
    }

    #[test]
    fn too_many_dims_rejected() {
        let hg = hypergraph_from_nets(3, &[vec![0, 1], vec![1, 2]]);
        assert!(matches!(
            module_placement(&hg, 3, &Default::default()),
            Err(PartitionError::TooSmall { .. })
        ));
        assert!(matches!(
            module_placement(&hg, 0, &Default::default()),
            Err(PartitionError::TooSmall { .. })
        ));
    }

    #[test]
    fn deterministic() {
        let hg = two_triangles();
        let a = module_placement(&hg, 2, &Default::default()).unwrap();
        let b = module_placement(&hg, 2, &Default::default()).unwrap();
        assert_eq!(a, b);
    }
}
