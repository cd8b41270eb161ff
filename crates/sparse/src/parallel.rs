//! Row-sharded parallel application of sparse operators.
//!
//! The Lanczos inner loop is a chain of operator–vector products; on large
//! netlists the SpMV dominates wall-clock, and it parallelizes trivially
//! because output rows are independent. This module shards the
//! [`Laplacian`]'s row windows (the fixed row ranges its matvec layout
//! reorders rows inside) into contiguous blocks, computes each block on
//! its own OS thread (`std::thread::scope`, no pool, no global state),
//! and writes each block into a disjoint `split_at_mut` slice of the
//! output vector.
//!
//! # Determinism contract
//!
//! The sharded matvec is **bit-identical** to the serial one for every
//! thread count and every shard boundary, because each row's dot product
//! is accumulated *sequentially by exactly one thread* — parallelism only
//! distributes whole rows, never a single row's sum, so no floating-point
//! reduction order changes. The equivalence is property-tested at
//! `threads ∈ {1, 2, 8}` here and end-to-end in the workspace's
//! `tests/spectral.rs` suite.
//!
//! # Budget contract
//!
//! Shards perform **no** [`BudgetMeter`](crate::BudgetMeter) traffic. A
//! matvec is one unit of numerical work regardless of how many threads
//! executed it, so the caller charges the meter once per application at
//! its existing checkpoint (the Lanczos loop's `meter.charge(1)`), and
//! cancellation checks stay O(1) per iteration. Charging from inside the
//! shards would both over-report (k shards ≠ k matvecs) and multiply the
//! atomic traffic by the thread count.

use crate::laplacian::WINDOW;
use crate::{Laplacian, LinearOperator};

/// Resolves a user-facing thread-count knob: `0` means "all available
/// cores", anything else is clamped to the machine's core count. Always
/// returns `≥ 1`.
///
/// The clamp is a pure performance policy: a CPU-bound kernel gains
/// nothing from more threads than cores — the extra threads only add
/// spawn and scheduling overhead — and by the determinism contract the
/// results are bit-identical at every shard count, so requesting 8
/// threads on a 2-core machine is safely equivalent to requesting 2.
pub fn resolve_threads(requested: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if requested == 0 {
        cores
    } else {
        requested.min(cores)
    }
}

/// Splits `0..n` into at most `shards` contiguous, non-empty, disjoint
/// ranges covering the whole interval, as `(lo, hi)` pairs in order.
///
/// Used by the threaded matvec (blocks of row windows). The first
/// `n % shards` blocks get one extra element, so block sizes differ by
/// at most one.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.clamp(1, n.max(1));
    let base = n / shards;
    let extra = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut lo = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        if len == 0 {
            break;
        }
        out.push((lo, lo + len));
        lo += len;
    }
    out
}

/// Minimum dimension at which sharding pays for the thread spawns; below
/// it the threaded operator silently runs serially (the result is
/// bit-identical either way).
const MIN_PARALLEL_DIM: usize = 128;

/// A borrowed [`Laplacian`] whose [`apply`](LinearOperator::apply) shards
/// the output rows over `threads` OS threads.
///
/// Output is bit-identical to the serial operator for every thread count
/// (see the [module docs](crate::parallel) for the argument), so the
/// eigensolver's results — values, vectors, iteration counts, metered
/// spend — do not depend on `threads`.
///
/// # Example
///
/// ```
/// use np_sparse::{Laplacian, LinearOperator, TripletBuilder};
///
/// let mut b = TripletBuilder::new(3);
/// b.push_sym(0, 1, 1.0);
/// b.push_sym(1, 2, 1.0);
/// let q = Laplacian::from_adjacency(b.into_csr());
/// let x = [2.0, 0.0, -1.0];
/// let (mut y1, mut y8) = (vec![0.0; 3], vec![0.0; 3]);
/// q.apply(&x, &mut y1);
/// q.threaded(8).apply(&x, &mut y8);
/// assert_eq!(y1, y8);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ThreadedLaplacian<'a> {
    inner: &'a Laplacian,
    threads: usize,
}

impl<'a> ThreadedLaplacian<'a> {
    /// Wraps `inner`, sharding every matvec over `threads` threads
    /// (`0` = all available cores; counts above the core count are
    /// clamped, see [`resolve_threads`]).
    pub fn new(inner: &'a Laplacian, threads: usize) -> Self {
        ThreadedLaplacian {
            inner,
            threads: resolve_threads(threads),
        }
    }

    /// The wrapped operator.
    pub fn inner(&self) -> &'a Laplacian {
        self.inner
    }

    /// The resolved shard count (never 0).
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl LinearOperator for ThreadedLaplacian<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let n = self.inner.dim();
        assert_eq!(x.len(), n, "input vector dimension mismatch");
        assert_eq!(y.len(), n, "output vector dimension mismatch");
        if self.threads <= 1 || n < MIN_PARALLEL_DIM {
            self.inner.apply(x, y);
            return;
        }
        let blocks = shard_ranges(self.inner.windows(), self.threads);
        std::thread::scope(|scope| {
            let mut rest = y;
            for &(lo, hi) in &blocks {
                let rows = (hi * WINDOW).min(n) - lo * WINDOW;
                let (block, tail) = rest.split_at_mut(rows);
                rest = tail;
                let q = self.inner;
                scope.spawn(move || q.apply_windows(lo..hi, x, block));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Budget, BudgetMeter, TripletBuilder};

    fn ring_laplacian(n: usize, chords: usize) -> Laplacian {
        let mut b = TripletBuilder::new(n);
        for i in 0..n {
            b.push_sym(i, (i + 1) % n, 1.0 + (i % 7) as f64 * 0.25);
        }
        for k in 0..chords {
            let i = (k * 37) % n;
            let j = (k * 61 + 5) % n;
            if i != j {
                b.push_sym(i, j, 0.125 + (k % 3) as f64);
            }
        }
        Laplacian::from_adjacency(b.into_csr())
    }

    fn test_vector(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 2654435761) % 1000) as f64 / 333.0 - 1.5)
            .collect()
    }

    #[test]
    fn shard_ranges_cover_and_are_disjoint() {
        for n in [0usize, 1, 2, 7, 128, 1000] {
            for shards in [1usize, 2, 3, 8, 200] {
                let blocks = shard_ranges(n, shards);
                let mut expect_lo = 0;
                for &(lo, hi) in &blocks {
                    assert_eq!(lo, expect_lo, "gap/overlap at n={n} shards={shards}");
                    assert!(hi > lo, "empty block at n={n} shards={shards}");
                    expect_lo = hi;
                }
                assert_eq!(expect_lo, n, "ranges must cover 0..{n}");
                assert!(blocks.len() <= shards.max(1));
            }
        }
    }

    #[test]
    fn threaded_apply_bit_identical_to_serial() {
        // above and below MIN_PARALLEL_DIM, ragged and even splits
        for n in [16usize, 127, 128, 257, 1024] {
            let q = ring_laplacian(n, n / 2);
            let x = test_vector(n);
            let mut serial = vec![0.0; n];
            q.apply(&x, &mut serial);
            for threads in [1usize, 2, 8] {
                let mut par = vec![0.0; n];
                q.threaded(threads).apply(&x, &mut par);
                assert_eq!(serial, par, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn resolve_threads_zero_means_all_cores_and_clamps() {
        let cores = resolve_threads(0);
        assert!(cores >= 1);
        assert_eq!(resolve_threads(1), 1);
        // literal requests are honoured up to the core count, then clamped
        assert_eq!(resolve_threads(5), 5.min(cores));
        assert_eq!(resolve_threads(usize::MAX), cores);
    }

    #[test]
    fn threaded_metered_spend_matches_serial() {
        // the budget contract: one charge per matvec at the call site,
        // independent of the shard count
        let n = 300;
        let q = ring_laplacian(n, 40);
        let x = test_vector(n);
        let spend_with = |threads: usize| {
            let meter = BudgetMeter::new(&Budget::default().with_matvecs(1000));
            let op = q.threaded(threads);
            let mut y = vec![0.0; n];
            for _ in 0..10 {
                op.apply(&x, &mut y);
                meter.charge(1).unwrap();
            }
            meter.matvecs_used()
        };
        let serial = spend_with(1);
        assert_eq!(serial, 10);
        for threads in [2usize, 8] {
            assert_eq!(spend_with(threads), serial, "threads={threads}");
        }
    }
}
