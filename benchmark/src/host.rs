//! Host speed: a fixed reference kernel timed between a workload's
//! operations, so that each run's times can be expressed at one
//! reference speed of the host.
//!
//! The benchmark was sized on a 2-vCPU VM that shares its host with other
//! tenants. There the same single-threaded code runs 10–60% slower for
//! minutes at a time, without any steal time the guest could see, so the
//! medians of runs made minutes apart differ by more than the regressions
//! the benchmark has to resolve. A run therefore also times a kernel of
//! its own, a few milliseconds of integer hashing and of sparse
//! matrix–vector products on a fixed matrix (the two kinds of work the
//! routes are made of: the sweep and Lanczos), between operations, and
//! multiplies the times of compute in closed loops by [`REFERENCE_MS`] /
//! (the median of its kernel times). The kernel is the benchmark's own
//! code, not the program's, so a program that gets faster still reads
//! faster; only a host that gets slower is divided out.

use crate::stats::{median, ms};
use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in ms, at the reference speed: about the median of 40
/// runs on the 2-vCPU VM the benchmark was sized on. Scaled times read as
/// that host's times on its usual day.
pub const REFERENCE_MS: f64 = 6.4;
/// Rows of the reference matrix, and entries per row. Its 4000 × 16
/// entries, like the routes' operators, fit in the caches.
const ROWS: usize = 4_000;
const ROW_ENTRIES: usize = 16;
/// Products per kernel call.
const PRODUCTS: usize = 60;
/// Hash steps per kernel call.
const HASH_STEPS: u64 = 3_000_000;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The reference kernel and the times it took in this run.
pub struct HostSpeed {
    offsets: Vec<u32>,
    columns: Vec<u32>,
    values: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    /// Builds the fixed reference matrix and runs the kernel once
    /// untimed, so first-touch page faults stay out of the samples.
    pub fn new() -> HostSpeed {
        let mut s = 0x9E37_79B9_7F4A_7C15;
        let mut offsets = vec![0u32];
        let mut columns = Vec::with_capacity(ROWS * ROW_ENTRIES);
        let mut values = Vec::with_capacity(ROWS * ROW_ENTRIES);
        for row in 0..ROWS {
            for _ in 0..ROW_ENTRIES {
                columns.push(((row as u64 + xorshift(&mut s) % 2_000) % ROWS as u64) as u32);
                values.push(1.0 / (1 + xorshift(&mut s) % 7) as f64);
            }
            offsets.push(columns.len() as u32);
        }
        let mut host = HostSpeed {
            offsets,
            columns,
            values,
            x: vec![1.0; ROWS],
            y: vec![0.0; ROWS],
            samples_ms: Vec::new(),
        };
        host.kernel_ms();
        host
    }

    /// One kernel call: the geometric mean of the hashing and the
    /// products' times, in ms.
    fn kernel_ms(&mut self) -> f64 {
        let t = Instant::now();
        let mut s = black_box(0x2545_F491_4F6C_DD1D_u64);
        let mut acc = 0u64;
        for _ in 0..black_box(HASH_STEPS) {
            acc = acc.wrapping_add(xorshift(&mut s) >> 3);
        }
        black_box(acc);
        let hash = ms(t.elapsed());

        let t = Instant::now();
        for _ in 0..black_box(PRODUCTS) {
            for (row, y) in self.y.iter_mut().enumerate() {
                let (a, b) = (self.offsets[row] as usize, self.offsets[row + 1] as usize);
                *y = self.columns[a..b]
                    .iter()
                    .zip(&self.values[a..b])
                    .map(|(&c, v)| v * self.x[c as usize])
                    .sum();
            }
            black_box(&mut self.y);
        }
        let products = ms(t.elapsed());
        (hash * products).sqrt()
    }

    /// Times the kernel once and keeps the time.
    pub fn sample(&mut self) {
        let t = self.kernel_ms();
        self.samples_ms.push(t);
    }

    /// Median kernel time of this run, in ms.
    pub fn median_ms(&self) -> Option<f64> {
        median(&self.samples_ms)
    }

    /// The factor that turns a time measured in this run into one at the
    /// reference speed.
    ///
    /// # Errors
    ///
    /// When the kernel was never timed.
    pub fn scale(&self) -> Result<f64, String> {
        let m = self.median_ms().ok_or("the host speed was never sampled")?;
        eprintln!(
            "host: reference kernel {m:.3} ms (median of {}), times scaled by {:.4}",
            self.samples_ms.len(),
            REFERENCE_MS / m
        );
        Ok(REFERENCE_MS / m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_reference_over_the_median_sample() {
        let mut host = HostSpeed::new();
        assert!(host.scale().is_err(), "no samples yet");
        for _ in 0..3 {
            host.sample();
        }
        let m = host.median_ms().unwrap();
        assert!(m > 0.0 && m.is_finite());
        assert_eq!(host.scale().unwrap(), REFERENCE_MS / m);
    }
}
