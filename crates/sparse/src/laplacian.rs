//! The graph Laplacian operator `Q = D − A` in factored form.

use crate::{CsrMatrix, LinearOperator};

/// The Laplacian `Q = D − A` of a weighted undirected graph, stored as the
/// adjacency matrix plus its degree vector.
///
/// `Q` is symmetric positive semidefinite; for a connected graph its
/// nullspace is spanned by the all-ones vector and its second-smallest
/// eigenvalue `λ₂` lower-bounds the optimal ratio cut
/// (`c ≥ λ₂ / n`, Hagen–Kahng Theorem 1 as restated in the paper §1.1).
///
/// # Example
///
/// ```
/// use np_sparse::{Laplacian, LinearOperator, TripletBuilder};
///
/// // path graph 0-1-2 with unit weights
/// let mut b = TripletBuilder::new(3);
/// b.push_sym(0, 1, 1.0);
/// b.push_sym(1, 2, 1.0);
/// let q = Laplacian::from_adjacency(b.into_csr());
///
/// // Q · 1 = 0
/// let mut y = vec![0.0; 3];
/// q.apply(&[1.0, 1.0, 1.0], &mut y);
/// assert!(y.iter().all(|v| v.abs() < 1e-15));
/// ```
#[derive(Clone, Debug)]
pub struct Laplacian {
    adjacency: CsrMatrix,
    degrees: Vec<f64>,
}

impl Laplacian {
    /// Builds the Laplacian of the graph with the given (symmetric)
    /// adjacency matrix. Degrees are the adjacency row sums.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `adjacency` is symmetric.
    pub fn from_adjacency(adjacency: CsrMatrix) -> Self {
        debug_assert!(
            adjacency.is_symmetric(1e-9),
            "Laplacian requires a symmetric adjacency matrix"
        );
        let degrees = adjacency.row_sums();
        Laplacian { adjacency, degrees }
    }

    /// The underlying adjacency matrix `A`.
    pub fn adjacency(&self) -> &CsrMatrix {
        &self.adjacency
    }

    /// The degree vector `d` (diagonal of `D`).
    pub fn degrees(&self) -> &[f64] {
        &self.degrees
    }

    /// Number of structurally nonzero off-diagonal entries of `A`.
    pub fn nnz(&self) -> usize {
        self.adjacency.nnz()
    }

    /// Computes rows `lo..lo + out.len()` of `(D − A)·x` into `out` — the
    /// per-shard kernel of the row-sharded parallel matvec (see
    /// [`crate::parallel`]). Covering `0..dim()` with disjoint ranges
    /// reproduces [`apply`](LinearOperator::apply) bit for bit, because
    /// each row is still accumulated sequentially by exactly one caller.
    ///
    /// The degree term is **fused into the gather loop**: each output
    /// element is finished as `d[r]·x[r] − Σ A[r,c]·x[c]` while the row is
    /// hot, removing the second streaming pass over `out` the unfused form
    /// needed — bit-identical, since the expression per element is
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()` or the row range exceeds the operator.
    pub fn apply_rows(&self, lo: usize, x: &[f64], out: &mut [f64]) {
        let n = self.degrees.len();
        assert_eq!(x.len(), n, "input vector dimension mismatch");
        assert!(lo + out.len() <= n, "row range out of bounds");
        for (k, dst) in out.iter_mut().enumerate() {
            let r = lo + k;
            let (cols, vals) = self.adjacency.row(r);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c as usize];
            }
            *dst = self.degrees[r] * x[r] - acc;
        }
    }

    /// Wraps this Laplacian in a [`ThreadedLaplacian`](crate::ThreadedLaplacian)
    /// that shards every matvec over `threads` OS threads (`0` = all
    /// available cores). The threaded operator's output is bit-identical
    /// to serial [`apply`](LinearOperator::apply) for every thread count.
    pub fn threaded(&self, threads: usize) -> crate::ThreadedLaplacian<'_> {
        crate::ThreadedLaplacian::new(self, threads)
    }

    /// The quadratic form `xᵀQx = ½ Σ_ij A_ij (x_i − x_j)²` (Hall's
    /// placement objective, paper Appendix A). Always `≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        let mut y = vec![0.0; x.len()];
        self.apply(x, &mut y);
        x.iter().zip(&y).map(|(a, b)| a * b).sum()
    }
}

impl LinearOperator for Laplacian {
    fn dim(&self) -> usize {
        self.degrees.len()
    }

    /// Computes `y = (D − A) x` without ever forming `D − A` explicitly,
    /// via the fused [`apply_rows`](Laplacian::apply_rows) kernel.
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(
            y.len(),
            self.degrees.len(),
            "output vector dimension mismatch"
        );
        self.apply_rows(0, x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletBuilder;

    fn path3() -> Laplacian {
        let mut b = TripletBuilder::new(3);
        b.push_sym(0, 1, 1.0);
        b.push_sym(1, 2, 1.0);
        Laplacian::from_adjacency(b.into_csr())
    }

    #[test]
    fn ones_in_nullspace() {
        let q = path3();
        let mut y = vec![0.0; 3];
        q.apply(&[1.0; 3], &mut y);
        assert!(y.iter().all(|v| v.abs() < 1e-15));
    }

    #[test]
    fn matches_explicit_laplacian() {
        // Q(path3) = [[1,-1,0],[-1,2,-1],[0,-1,1]]
        let q = path3();
        let x = [2.0, 0.0, -1.0];
        let mut y = vec![0.0; 3];
        q.apply(&x, &mut y);
        assert_eq!(y, vec![2.0, -1.0, -1.0]); // middle row: -2 + 0 + 1
    }

    #[test]
    fn quadratic_form_nonnegative_and_exact() {
        let q = path3();
        // xᵀQx = (x0-x1)² + (x1-x2)²
        let x = [3.0, 1.0, -2.0];
        let expect = (3.0f64 - 1.0).powi(2) + (1.0f64 + 2.0).powi(2);
        assert!((q.quadratic_form(&x) - expect).abs() < 1e-12);
        assert!(q.quadratic_form(&[0.4, -0.9, 7.0]) >= 0.0);
    }

    #[test]
    fn degrees_are_row_sums() {
        let q = path3();
        assert_eq!(q.degrees(), &[1.0, 2.0, 1.0]);
    }

    #[test]
    fn weighted_graph_degrees() {
        let mut b = TripletBuilder::new(2);
        b.push_sym(0, 1, 2.5);
        let q = Laplacian::from_adjacency(b.into_csr());
        assert_eq!(q.degrees(), &[2.5, 2.5]);
        let mut y = vec![0.0; 2];
        q.apply(&[1.0, -1.0], &mut y);
        assert_eq!(y, vec![5.0, -5.0]);
    }
}
