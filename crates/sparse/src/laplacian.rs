//! The graph Laplacian operator `Q = D − A` in factored form.

use crate::{CsrMatrix, LinearOperator};
use std::cmp::Reverse;
use std::ops::Range;

/// Rows per window of the matvec layout: rows are reordered by length
/// only inside a window, and threaded shards start and end on window
/// boundaries.
pub(crate) const WINDOW: usize = 64;

/// Rows one group computes side by side.
const LANES: usize = 4;

/// A group slot that holds no row (the last group of a window whose row
/// count is not a multiple of [`LANES`]).
const NO_ROW: u32 = u32::MAX;

/// The Laplacian `Q = D − A` of a weighted undirected graph, stored as the
/// adjacency matrix plus its degree vector.
///
/// `Q` is symmetric positive semidefinite; for a connected graph its
/// nullspace is spanned by the all-ones vector and its second-smallest
/// eigenvalue `λ₂` lower-bounds the optimal ratio cut
/// (`c ≥ λ₂ / n`, Hagen–Kahng Theorem 1 as restated in the paper §1.1).
///
/// # The matvec layout
///
/// A CSR matvec sums each row as one chain of dependent adds, so on the
/// netlist-shaped operators this repo builds (short rows, ~10–20
/// entries) it is bound by add latency, not memory. The adjacency is
/// therefore kept once, in a length-sorted, four-row-interleaved layout
/// (the SELL-4 scheme of Kreutzer et al.'s SELL-C-σ, with σ the window):
///
/// * rows are cut into fixed windows of 64 consecutive rows;
/// * inside a window, rows are sorted by length, longest first (ties by
///   row index), and taken four at a time as one *group*;
/// * a group stores its entries step by step: at step `p`, entry `p` of
///   every row of the group still that long. The four rows' chains run
///   side by side while all four have entries, then three, two and one;
///   nothing is padded.
///
/// Each row is still summed by one accumulator, from `0.0`, in CSR
/// column order, so every output element is bit-identical to the
/// per-row CSR sum `d[r]·x[r] − Σ A[r,c]·x[c]`, for every `x`: the
/// layout only changes which rows' adds overlap in time. Rows move only
/// inside their window, so a window's outputs are one contiguous range,
/// and the [`ThreadedLaplacian`](crate::ThreadedLaplacian) shards on
/// window boundaries. [`adjacency`](Self::adjacency) rebuilds the CSR
/// form, and [`pattern`](Self::pattern) its values-free sparsity pattern.
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
    degrees: Vec<f64>,
    /// Each group's rows, longest first; [`NO_ROW`] marks an empty slot.
    group_rows: Vec<[u32; LANES]>,
    /// The lengths of those rows (`0` for an empty slot), non-increasing.
    group_lens: Vec<[u32; LANES]>,
    /// Where each group's entries start in `cols`/`vals`, plus the end.
    group_start: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

/// Calls `f(lane, position)` for each entry of a group whose rows have
/// the non-increasing lengths `lens`, in storage order.
fn for_each_slot(lens: [usize; LANES], mut f: impl FnMut(usize, usize)) {
    for p in 0..lens[0] {
        for (l, &len) in lens.iter().enumerate() {
            if p >= len {
                break;
            }
            f(l, p);
        }
    }
}

/// Adds `W` interleaved rows' products into `acc[..W]`, each lane in its
/// own chain, one step per `W` stored entries.
#[inline(always)]
fn lanes<const W: usize>(acc: &mut [f64; LANES], cols: &[u32], vals: &[f64], x: &[f64]) {
    let (cols, _) = cols.as_chunks::<W>();
    let (vals, _) = vals.as_chunks::<W>();
    for (c, v) in cols.iter().zip(vals) {
        for l in 0..W {
            acc[l] += v[l] * x[c[l] as usize];
        }
    }
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
        let n = adjacency.dim();
        let groups = n.div_ceil(LANES);
        let mut q = Laplacian {
            degrees: adjacency.row_sums(),
            group_rows: Vec::with_capacity(groups),
            group_lens: Vec::with_capacity(groups),
            group_start: Vec::with_capacity(groups + 1),
            cols: Vec::with_capacity(adjacency.nnz()),
            vals: Vec::with_capacity(adjacency.nnz()),
        };
        q.group_start.push(0);
        let mut order: Vec<u32> = Vec::with_capacity(WINDOW);
        for lo in (0..n).step_by(WINDOW) {
            // CSR dimensions stay below u32::MAX, so rows fit u32
            order.clear();
            order.extend(lo as u32..(lo + WINDOW).min(n) as u32);
            order.sort_by_key(|&r| Reverse(adjacency.row(r as usize).0.len()));
            for group in order.chunks(LANES) {
                let mut rows = [NO_ROW; LANES];
                rows[..group.len()].copy_from_slice(group);
                let entries = rows.map(|r| match r {
                    NO_ROW => (&[][..], &[][..]),
                    _ => adjacency.row(r as usize),
                });
                let lens = entries.map(|(cols, _)| cols.len());
                for_each_slot(lens, |l, p| {
                    q.cols.push(entries[l].0[p]);
                    q.vals.push(entries[l].1[p]);
                });
                q.group_rows.push(rows);
                q.group_lens.push(lens.map(|l| l as u32));
                q.group_start.push(q.cols.len() as u32);
            }
        }
        q
    }

    /// The adjacency matrix `A`, rebuilt in CSR form from the matvec
    /// layout (`O(n + nnz)`).
    pub fn adjacency(&self) -> CsrMatrix {
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let row_offsets = self.de_interleave(|k, i| {
            col_idx[i] = self.cols[k];
            values[i] = self.vals[k];
        });
        CsrMatrix::from_parts(self.dim(), row_offsets, col_idx, values)
    }

    /// The sparsity pattern of `A` without its values: the CSR row
    /// offsets (`n + 1` of them) and each row's columns, ascending, read
    /// straight from the matvec layout (`O(n + nnz)`). Row `r`'s
    /// neighbours are `cols[offsets[r]..offsets[r + 1]]`.
    pub fn pattern(&self) -> (Vec<u32>, Vec<u32>) {
        let mut cols = vec![0u32; self.nnz()];
        let offsets = self.de_interleave(|k, i| cols[i] = self.cols[k]);
        (offsets, cols)
    }

    /// Walks the layout back into CSR order: returns the CSR row offsets
    /// and calls `put(k, i)` for every stored entry, `k` its position in
    /// the layout and `i` its position in CSR order.
    fn de_interleave(&self, mut put: impl FnMut(usize, usize)) -> Vec<u32> {
        let n = self.dim();
        let mut row_offsets = vec![0u32; n + 1];
        for (rows, lens) in self.group_rows.iter().zip(&self.group_lens) {
            for (&r, &l) in rows.iter().zip(lens) {
                if r != NO_ROW {
                    row_offsets[r as usize + 1] = l;
                }
            }
        }
        for r in 0..n {
            row_offsets[r + 1] += row_offsets[r];
        }
        for (g, (rows, lens)) in self.group_rows.iter().zip(&self.group_lens).enumerate() {
            let row_start = rows.map(|r| match r {
                NO_ROW => 0,
                _ => row_offsets[r as usize] as usize,
            });
            let mut k = self.group_start[g] as usize;
            for_each_slot(lens.map(|l| l as usize), |l, p| {
                put(k, row_start[l] + p);
                k += 1;
            });
        }
        row_offsets
    }

    /// The degree vector `d` (diagonal of `D`).
    pub fn degrees(&self) -> &[f64] {
        &self.degrees
    }

    /// Number of structurally nonzero off-diagonal entries of `A`.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of [`WINDOW`]-row windows of the matvec layout.
    pub(crate) fn windows(&self) -> usize {
        self.dim().div_ceil(WINDOW)
    }

    /// Computes the rows of windows `windows` of `(D − A)·x` into `out`,
    /// which holds exactly those rows — the one matvec kernel, serial for
    /// all windows and per shard in [`crate::parallel`]. Each row is
    /// summed by one lane in CSR column order (see the type docs), so
    /// any cover of the windows by disjoint ranges reproduces
    /// [`apply`](LinearOperator::apply) bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`, or if `out` is not exactly the rows
    /// of `windows`.
    pub(crate) fn apply_windows(&self, windows: Range<usize>, x: &[f64], out: &mut [f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "input vector dimension mismatch");
        let lo = windows.start * WINDOW;
        let hi = (windows.end * WINDOW).min(n);
        assert!(
            lo <= hi && out.len() == hi - lo,
            "output does not hold the window range's rows"
        );
        for g in lo / LANES..hi.div_ceil(LANES) {
            let [_, l1, l2, l3] = self.group_lens[g].map(|l| l as usize);
            let start = self.group_start[g] as usize;
            let entries = start..self.group_start[g + 1] as usize;
            let (cols, vals) = (&self.cols[entries.clone()], &self.vals[entries]);
            // all four rows run while the shortest has entries, then three,
            // two, and the longest alone
            let s3 = 4 * l3;
            let s2 = s3 + 3 * (l2 - l3);
            let s1 = s2 + 2 * (l1 - l2);
            let mut acc = [0.0; LANES];
            lanes::<4>(&mut acc, &cols[..s3], &vals[..s3], x);
            lanes::<3>(&mut acc, &cols[s3..s2], &vals[s3..s2], x);
            lanes::<2>(&mut acc, &cols[s2..s1], &vals[s2..s1], x);
            lanes::<1>(&mut acc, &cols[s1..], &vals[s1..], x);
            for (&r, sum) in self.group_rows[g].iter().zip(acc) {
                if r != NO_ROW {
                    let r = r as usize;
                    out[r - lo] = self.degrees[r] * x[r] - sum;
                }
            }
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
    /// via the windowed four-row kernel over every window.
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(
            y.len(),
            self.degrees.len(),
            "output vector dimension mismatch"
        );
        self.apply_windows(0..self.windows(), x, y);
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

    /// A graph whose windows hold rows of every length class: a hub
    /// joined to every other row, a ring, chords, and isolated rows.
    fn ragged(n: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n);
        for i in 1..n {
            if i % 5 != 0 {
                b.push_sym(0, i, 0.5 + (i % 3) as f64);
            }
            if i % 7 != 3 && i + 1 < n {
                b.push_sym(i, i + 1, 1.0 + (i % 11) as f64 * 0.125);
            }
            if i % 4 == 1 {
                b.push_sym(i, (i * 37) % n, 0.25);
            }
        }
        b.into_csr()
    }

    /// `d[r]·x[r] − Σ a·x` per row in column order: the CSR kernel the
    /// layout must reproduce bit for bit.
    fn reference(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
        let d = a.row_sums();
        (0..a.dim())
            .map(|r| {
                let (cols, vals) = a.row(r);
                let mut acc = 0.0;
                for (&c, &v) in cols.iter().zip(vals) {
                    acc += v * x[c as usize];
                }
                d[r] * x[r] - acc
            })
            .collect()
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

    /// A graph whose rows `3i` are empty: each row `3i + 2` joins the
    /// `1 + i % 5` rows `3j + 1` below it, so both other row
    /// classes take many lengths.
    fn gappy(n: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n);
        for (i, r) in (2..n).step_by(3).enumerate() {
            for j in i - i % 5..=i {
                b.push_sym(3 * j + 1, r, 1.0 + j as f64 * 0.125);
            }
        }
        b.into_csr()
    }

    #[test]
    fn layout_round_trips_the_adjacency() {
        for n in [0usize, 1, 3, 4, 63, 64, 65, 130, 300] {
            for a in [ragged(n), gappy(n)] {
                let q = Laplacian::from_adjacency(a.clone());
                assert_eq!(q.adjacency(), a, "n={n}");
                assert_eq!(q.nnz(), a.nnz(), "n={n}");
                // the values-free walk reads the same pattern
                let (offsets, cols) = q.pattern();
                assert_eq!(offsets.len(), n + 1, "n={n}");
                assert_eq!(offsets[n] as usize, a.nnz(), "n={n}");
                for r in 0..n {
                    let row = offsets[r] as usize..offsets[r + 1] as usize;
                    assert_eq!(&cols[row], a.row(r).0, "n={n} row {r}");
                }
            }
        }
        // the gappy rows hold every length class the walk must restore,
        // empty rows included
        let a = gappy(130);
        assert!((0..130).any(|r| a.row(r).0.is_empty()));
        assert!((0..130).any(|r| a.row(r).0.len() >= 3));
    }

    #[test]
    fn apply_bit_identical_to_per_row_sums() {
        for n in [1usize, 2, 3, 5, 63, 64, 65, 130, 300] {
            let a = ragged(n);
            let q = Laplacian::from_adjacency(a.clone());
            let x: Vec<f64> = (0..n)
                .map(|i| ((i * 2654435761) % 1000) as f64 / 333.0 - 1.5)
                .collect();
            let mut y = vec![f64::NAN; n];
            q.apply(&x, &mut y);
            let want = reference(&a, &x);
            assert!(
                y.iter().zip(&want).all(|(p, q)| p.to_bits() == q.to_bits()),
                "n={n}"
            );
        }
    }

    #[test]
    fn window_ranges_compose_to_apply() {
        let n = 300;
        let q = Laplacian::from_adjacency(ragged(n));
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut whole = vec![0.0; n];
        q.apply(&x, &mut whole);
        let mut parts = vec![f64::NAN; n];
        for w in 0..q.windows() {
            let hi = ((w + 1) * WINDOW).min(n);
            q.apply_windows(w..w + 1, &x, &mut parts[w * WINDOW..hi]);
        }
        assert_eq!(whole, parts);
    }

    #[test]
    #[should_panic(expected = "window range")]
    fn misaligned_output_panics() {
        let q = Laplacian::from_adjacency(ragged(130));
        let mut out = vec![0.0; 10];
        q.apply_windows(1..2, &[0.0; 130], &mut out);
    }
}
