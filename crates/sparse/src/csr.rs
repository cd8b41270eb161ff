//! Compressed sparse row matrices built from triplets.
//!
//! Storage uses `u32` row offsets and column indices — half the index
//! footprint of `usize` on 64-bit targets, which matters because SpMV on
//! netlist graphs is memory-bound: the kernel streams `(col_idx, values)`
//! and gathers from `x`, so index bytes are bandwidth. Construction rejects
//! dimensions that would overflow the `u32` index space with a typed
//! [`IndexOverflow`] error instead of silently truncating.

use crate::LinearOperator;
use std::fmt;

/// Error: a matrix dimension would require indices `≥ u32::MAX`, which the
/// `u32`-indexed CSR storage cannot represent without truncation.
///
/// (`u32::MAX` itself is excluded too — downstream code uses it as a
/// sentinel.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexOverflow {
    /// The rejected dimension.
    pub dim: usize,
}

impl fmt::Display for IndexOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix dimension {} exceeds the u32 index space (max {})",
            self.dim,
            u32::MAX
        )
    }
}

impl std::error::Error for IndexOverflow {}

/// Accumulator for matrix entries in coordinate (triplet) form.
///
/// Duplicate `(i, j)` entries are *summed* when converting to CSR, which is
/// exactly the semantics needed when assembling graph adjacency matrices
/// from per-net or per-module contributions (clique model, intersection
/// graph weighting).
///
/// # Example
///
/// ```
/// use np_sparse::TripletBuilder;
///
/// let mut b = TripletBuilder::new(3);
/// b.push_sym(0, 1, 0.5);
/// b.push_sym(0, 1, 0.25); // accumulates
/// b.push_sym(1, 2, 1.0);
/// let m = b.into_csr();
/// assert_eq!(m.nnz(), 4); // (0,1),(1,0),(1,2),(2,1)
/// assert_eq!(m.get(0, 1), 0.75);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TripletBuilder {
    n: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl TripletBuilder {
    /// Creates a builder for an `n × n` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the `u32` index space (see
    /// [`try_new`](TripletBuilder::try_new) for the fallible form).
    pub fn new(n: usize) -> Self {
        Self::try_new(n).expect("matrix dimension overflows the u32 index space")
    }

    /// Creates a builder for an `n × n` matrix, rejecting dimensions whose
    /// indices would not fit the `u32` storage.
    ///
    /// # Errors
    ///
    /// [`IndexOverflow`] if `n > u32::MAX as usize` (indices must stay
    /// `< u32::MAX`; the max value is reserved as a sentinel downstream).
    pub fn try_new(n: usize) -> Result<Self, IndexOverflow> {
        if n > u32::MAX as usize {
            return Err(IndexOverflow { dim: n });
        }
        Ok(TripletBuilder {
            n,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of raw triplets accumulated so far (before duplicate
    /// summing).
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Returns `true` if no triplets have been pushed.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "triplet index out of range");
        // `try_new` bounds n, so these can only fire if the invariant is
        // broken — the guard against silent `as u32` truncation.
        debug_assert!(row < u32::MAX as usize, "row index would truncate to u32");
        debug_assert!(
            col < u32::MAX as usize,
            "column index would truncate to u32"
        );
        self.rows.push(row as u32);
        self.cols.push(col as u32);
        self.vals.push(value);
    }

    /// Adds `value` at `(row, col)` *and* `(col, row)`; for diagonal
    /// entries adds the value once.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn push_sym(&mut self, row: usize, col: usize, value: f64) {
        self.push(row, col, value);
        if row != col {
            self.push(col, row, value);
        }
    }

    /// Converts to CSR, summing duplicates and dropping entries whose
    /// accumulated value is exactly zero.
    pub fn into_csr(self) -> CsrMatrix {
        let n = self.n;
        // counting sort by row
        let mut row_counts = vec![0u32; n + 1];
        for &r in &self.rows {
            row_counts[r as usize + 1] += 1;
        }
        for i in 0..n {
            row_counts[i + 1] += row_counts[i];
        }
        let mut cursor = row_counts.clone();
        let mut cols_sorted = vec![0u32; self.cols.len()];
        let mut vals_sorted = vec![0f64; self.vals.len()];
        for k in 0..self.vals.len() {
            let r = self.rows[k] as usize;
            let slot = cursor[r] as usize;
            cols_sorted[slot] = self.cols[k];
            vals_sorted[slot] = self.vals[k];
            cursor[r] += 1;
        }
        // per-row: sort by column, merge duplicates; one buffer serves
        // every row
        let mut row_offsets = vec![0u32; n + 1];
        let mut col_idx = Vec::with_capacity(self.cols.len());
        let mut values = Vec::with_capacity(self.vals.len());
        let mut entries: Vec<(u32, f64)> = Vec::new();
        for r in 0..n {
            let lo = row_counts[r] as usize;
            let hi = row_counts[r + 1] as usize;
            entries.clear();
            entries.extend(
                cols_sorted[lo..hi]
                    .iter()
                    .copied()
                    .zip(vals_sorted[lo..hi].iter().copied()),
            );
            entries.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < entries.len() {
                let c = entries[i].0;
                let mut v = entries[i].1;
                let mut j = i + 1;
                while j < entries.len() && entries[j].0 == c {
                    v += entries[j].1;
                    j += 1;
                }
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
                i = j;
            }
            row_offsets[r + 1] = col_idx.len() as u32;
        }
        CsrMatrix {
            n,
            row_offsets,
            col_idx,
            values,
        }
    }
}

/// A sparse matrix in compressed sparse row format.
///
/// Symmetry is the caller's responsibility (use
/// [`TripletBuilder::push_sym`]); [`CsrMatrix::is_symmetric`] verifies it,
/// and the spectral code debug-asserts it.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_offsets: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Assembles an `n × n` matrix from its CSR arrays: row `r`'s entries
    /// are `col_idx[row_offsets[r]..row_offsets[r + 1]]` and the same
    /// range of `values`. For builders that emit rows in order.
    ///
    /// # Panics
    ///
    /// Panics unless `n` fits the `u32` index space, `row_offsets` has
    /// `n + 1` non-decreasing entries from `0` to `col_idx.len()`,
    /// `values` is as long as `col_idx`, and every row's columns are
    /// strictly increasing and below `n`.
    pub fn from_parts(
        n: usize,
        row_offsets: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert!(n <= u32::MAX as usize, "matrix dimension overflows u32");
        assert_eq!(row_offsets.len(), n + 1, "row_offsets needs n + 1 entries");
        assert_eq!(
            col_idx.len(),
            values.len(),
            "col_idx and values differ in length"
        );
        assert!(
            row_offsets[0] == 0 && row_offsets[n] as usize == col_idx.len(),
            "row_offsets must run from 0 to nnz"
        );
        for r in 0..n {
            let (lo, hi) = (row_offsets[r] as usize, row_offsets[r + 1] as usize);
            assert!(lo <= hi, "row_offsets decrease at row {r}");
            let cols = &col_idx[lo..hi];
            assert!(
                cols.windows(2).all(|w| w[0] < w[1])
                    && cols.last().is_none_or(|&c| (c as usize) < n),
                "row {r} columns are not strictly increasing and in range"
            );
        }
        CsrMatrix {
            n,
            row_offsets,
            col_idx,
            values,
        }
    }

    /// The `n × n` zero matrix.
    pub fn zero(n: usize) -> Self {
        CsrMatrix {
            n,
            row_offsets: vec![0; n + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of stored (structurally nonzero) entries.
    ///
    /// This is the quantity behind the paper's sparsity comparison
    /// ("19935 nonzeros versus 219811 nonzeros" for Test05, §1.2).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The entries of row `r` as parallel `(columns, values)` slices.
    ///
    /// Columns are sorted increasing.
    ///
    /// # Panics
    ///
    /// Panics if `r >= dim()`.
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let lo = self.row_offsets[r] as usize;
        let hi = self.row_offsets[r + 1] as usize;
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// The value at `(row, col)`, or `0.0` if not stored.
    ///
    /// `O(log nnz(row))`.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (cols, vals) = self.row(row);
        match cols.binary_search(&(col as u32)) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Row sums (the weighted degree vector `d` when the matrix is a graph
    /// adjacency matrix).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.n).map(|r| self.row(r).1.iter().sum()).collect()
    }

    /// Returns a copy with every entry of magnitude `< threshold` removed —
    /// input sparsification by thresholding, one of the eigensolver
    /// speedups suggested in the paper's conclusions ("sparsifying the
    /// input through thresholding").
    ///
    /// Dropping entries symmetrically preserves symmetry.
    ///
    /// # Example
    ///
    /// ```
    /// use np_sparse::TripletBuilder;
    /// let mut b = TripletBuilder::new(2);
    /// b.push_sym(0, 1, 0.25);
    /// b.push_sym(0, 0, 2.0);
    /// let m = b.into_csr().drop_below(0.5);
    /// assert_eq!(m.nnz(), 1);
    /// assert_eq!(m.get(0, 1), 0.0);
    /// ```
    pub fn drop_below(&self, threshold: f64) -> CsrMatrix {
        let mut row_offsets = vec![0u32; self.n + 1];
        let mut col_idx = Vec::with_capacity(self.col_idx.len());
        let mut values = Vec::with_capacity(self.values.len());
        for r in 0..self.n {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if v.abs() >= threshold {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_offsets[r + 1] = col_idx.len() as u32;
        }
        CsrMatrix {
            n: self.n,
            row_offsets,
            col_idx,
            values,
        }
    }

    /// Computes rows `lo..lo + out.len()` of the product `A·x` into `out`.
    ///
    /// Each row's dot product is accumulated sequentially, from `0.0`, in
    /// column order, so covering `0..n` with any disjoint set of ranges
    /// produces output bit-identical to a single
    /// [`apply`](crate::LinearOperator::apply). No operator of the
    /// pipeline runs this kernel: a [`Laplacian`](crate::Laplacian)
    /// applies its own windowed layout, serially and per shard of a
    /// [`ThreadedLaplacian`](crate::ThreadedLaplacian). It is the plain
    /// per-row CSR kernel that layout is held to, bit for bit, in tests.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()` or the row range exceeds the matrix.
    pub fn apply_rows(&self, lo: usize, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n, "input vector dimension mismatch");
        assert!(lo + out.len() <= self.n, "row range out of bounds");
        for (k, dst) in out.iter_mut().enumerate() {
            let (cols, vals) = self.row(lo + k);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c as usize];
            }
            *dst = acc;
        }
    }

    /// Returns `true` if the matrix equals its transpose (entry-wise within
    /// `tol`).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for r in 0..self.n {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if (self.get(c as usize, r) - v).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), self.n, "output vector dimension mismatch");
        self.apply_rows(0, x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::zero(3);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.get(1, 2), 0.0);
        let mut y = vec![1.0; 3];
        m.apply(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![0.0; 3]);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = TripletBuilder::new(2);
        b.push(0, 1, 1.0);
        b.push(0, 1, 2.0);
        b.push(0, 1, -0.5);
        let m = b.into_csr();
        assert_eq!(m.get(0, 1), 2.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn exact_zero_entries_dropped() {
        let mut b = TripletBuilder::new(2);
        b.push(0, 1, 1.0);
        b.push(0, 1, -1.0);
        let m = b.into_csr();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn push_sym_mirrors() {
        let mut b = TripletBuilder::new(3);
        b.push_sym(0, 2, 4.0);
        b.push_sym(1, 1, 7.0); // diagonal added once
        let m = b.into_csr();
        assert_eq!(m.get(0, 2), 4.0);
        assert_eq!(m.get(2, 0), 4.0);
        assert_eq!(m.get(1, 1), 7.0);
        assert_eq!(m.nnz(), 3);
        assert!(m.is_symmetric(0.0));
    }

    #[test]
    fn matvec_matches_dense() {
        // [[0,1,2],[1,0,0],[2,0,3]]
        let mut b = TripletBuilder::new(3);
        b.push_sym(0, 1, 1.0);
        b.push_sym(0, 2, 2.0);
        b.push_sym(2, 2, 3.0);
        let m = b.into_csr();
        let x = [1.0, -1.0, 0.5];
        let mut y = vec![0.0; 3];
        m.apply(&x, &mut y);
        assert_eq!(y, vec![0.0, 1.0, 3.5]);
    }

    #[test]
    fn rows_sorted_by_column() {
        let mut b = TripletBuilder::new(4);
        b.push(0, 3, 1.0);
        b.push(0, 1, 1.0);
        b.push(0, 2, 1.0);
        let m = b.into_csr();
        let (cols, _) = m.row(0);
        assert_eq!(cols, &[1, 2, 3]);
    }

    #[test]
    fn row_sums_are_degrees() {
        let mut b = TripletBuilder::new(3);
        b.push_sym(0, 1, 1.0);
        b.push_sym(1, 2, 2.0);
        let m = b.into_csr();
        assert_eq!(m.row_sums(), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn asymmetric_detected() {
        let mut b = TripletBuilder::new(2);
        b.push(0, 1, 1.0);
        let m = b.into_csr();
        assert!(!m.is_symmetric(1e-12));
    }

    #[test]
    fn drop_below_filters_and_preserves_symmetry() {
        let mut b = TripletBuilder::new(3);
        b.push_sym(0, 1, 0.1);
        b.push_sym(1, 2, 0.9);
        b.push_sym(0, 2, -0.5);
        let m = b.into_csr();
        let f = m.drop_below(0.4);
        assert_eq!(f.nnz(), 4); // (1,2) and (0,2), stored symmetrically
        assert_eq!(f.get(0, 1), 0.0);
        assert_eq!(f.get(0, 2), -0.5);
        assert!(f.is_symmetric(0.0));
    }

    #[test]
    fn drop_below_zero_threshold_is_identity() {
        let mut b = TripletBuilder::new(2);
        b.push_sym(0, 1, 0.3);
        let m = b.into_csr();
        assert_eq!(m.drop_below(0.0), m);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_triplet_panics() {
        TripletBuilder::new(2).push(0, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_wrong_dim_panics() {
        let m = CsrMatrix::zero(3);
        let mut y = vec![0.0; 3];
        m.apply(&[1.0, 2.0], &mut y);
    }

    #[test]
    fn from_parts_round_trips() {
        let mut b = TripletBuilder::new(3);
        b.push_sym(0, 1, 1.5);
        b.push_sym(1, 2, -2.0);
        let parts = CsrMatrix::from_parts(
            3,
            vec![0, 1, 3, 4],
            vec![1, 0, 2, 1],
            vec![1.5, 1.5, -2.0, -2.0],
        );
        assert_eq!(parts, b.into_csr());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_parts_rejects_unsorted_rows() {
        let _ = CsrMatrix::from_parts(3, vec![0, 2, 2, 2], vec![2, 1], vec![1.0, 1.0]);
    }

    #[test]
    fn try_new_rejects_u32_overflow() {
        let too_big = u32::MAX as usize + 1;
        let err = TripletBuilder::try_new(too_big).unwrap_err();
        assert_eq!(err, IndexOverflow { dim: too_big });
        assert!(err.to_string().contains("exceeds the u32 index space"));
        assert!(TripletBuilder::try_new(u32::MAX as usize).is_ok());
        assert!(TripletBuilder::try_new(16).is_ok());
    }

    #[test]
    #[should_panic(expected = "overflows the u32 index space")]
    fn new_panics_on_u32_overflow() {
        let _ = TripletBuilder::new(u32::MAX as usize + 1);
    }
}
