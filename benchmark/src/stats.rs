//! Order statistics and the summaries the benchmark reports.
//!
//! Every timing is summarized by its median and by a tail quantile; the
//! tail quantile is only meaningful when enough samples lie beyond it,
//! so [`reportable_tail`] names the highest standard percentile with at
//! least [`MIN_BEYOND`] samples past it.

use std::time::{Duration, Instant};

/// Samples a tail percentile needs beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// Set-up is timed in this many samples; their median is `setup_s`.
pub const SETUP_SAMPLES: usize = 9;
/// Each set-up sample repeats the set-up step until the repeats add up to
/// this long and reports their mean. One step takes a few milliseconds,
/// and on a shared 2-vCPU VM even the mean over 100 ms of steps varied by
/// up to 1.8x from one sample to the next.
pub const SETUP_SAMPLE: Duration = Duration::from_millis(200);

/// Calls `step` until the durations it reports add up to at least `min`;
/// returns the last call's output and the mean seconds per call.
///
/// # Errors
///
/// The first error `step` returns.
pub fn mean_over<T, E>(
    min: Duration,
    mut step: impl FnMut() -> Result<(T, Duration), E>,
) -> Result<(T, f64), E> {
    let mut total = Duration::ZERO;
    let mut calls = 0u32;
    loop {
        let (out, took) = step()?;
        total += took;
        calls += 1;
        if total >= min {
            return Ok((out, total.as_secs_f64() / f64::from(calls)));
        }
    }
}

/// The median: the middle value, or the mean of the two middle values.
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`): the smallest sample with
/// at least a `q` share of the samples at or below it — always a value
/// that was measured. `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v.get(rank.max(1) - 1).copied()
}

/// Number of samples strictly beyond the nearest-rank `q`-quantile of
/// `n` samples.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The highest of p99.9, p99, p90 and p50 with at least [`MIN_BEYOND`]
/// samples beyond it among `n` samples, as a share (`0.9` for p90).
/// `None` when even the median has fewer.
pub fn reportable_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// The highest reportable tail for `n` samples, as `p90` and the like,
/// or `none` when fewer than [`MIN_BEYOND`] samples lie beyond the median.
pub fn describe_tail(n: usize) -> String {
    reportable_tail(n).map_or_else(|| "none".to_string(), |q| format!("p{}", q * 100.0))
}

/// Geometric mean of strictly positive values; `None` if the slice is
/// empty or holds a value that is not finite and positive.
pub fn geo(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let mean_ln = values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64;
    Some(mean_ln.exp())
}

/// Latency of an open-loop request in milliseconds, measured from the
/// moment it was *due* rather than the moment it was sent, so a stalled
/// generator charges its lateness to every request it delayed.
pub fn latency_from_due_ms(due: Instant, answered: Instant) -> f64 {
    ms(answered.saturating_duration_since(due))
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one open-loop rate phase delivered.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSummary {
    /// Offered arrival rate in requests per second.
    pub rate: f64,
    /// Tail latency from due time in milliseconds; requests that failed
    /// or were shed count as missing the limit.
    pub p90_ms: f64,
    /// Share of the phase's requests shed with a 429.
    pub shed_share: f64,
    /// `true` when latency kept growing through the phase.
    pub backlog_growing: bool,
}

/// The highest offered rate whose phase met the latency limit: p90 at
/// most `slo_ms`, at most 1% shed and no growing backlog. `0` when no
/// phase met it.
pub fn max_rps_slo(phases: &[PhaseSummary], slo_ms: f64) -> f64 {
    phases
        .iter()
        .filter(|p| p.p90_ms <= slo_ms && p.shed_share <= 0.01 && !p.backlog_growing)
        .map(|p| p.rate)
        .fold(0.0, f64::max)
}

/// A backlog grows when the median latency of the last quarter of a
/// phase (requests in due order) exceeds both twice the first quarter's
/// median and the latency limit.
pub fn backlog_growing(latencies_in_due_order: &[f64], slo_ms: f64) -> bool {
    let q = latencies_in_due_order.len() / 4;
    if q == 0 {
        return false;
    }
    let first = median(&latencies_in_due_order[..q]).unwrap_or(0.0);
    let last = median(&latencies_in_due_order[latencies_in_due_order.len() - q..]).unwrap_or(0.0);
    last > 2.0 * first && last > slo_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quantile_is_a_measured_value() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        // 19 samples: the median has 9 beyond, nothing is reportable
        assert_eq!(reportable_tail(19), None);
        assert_eq!(reportable_tail(20), Some(0.5));
        assert_eq!(reportable_tail(99), Some(0.5));
        assert_eq!(reportable_tail(100), Some(0.9));
        assert_eq!(reportable_tail(999), Some(0.9));
        assert_eq!(reportable_tail(1000), Some(0.99));
        assert_eq!(reportable_tail(10_000), Some(0.999));
        assert_eq!(describe_tail(150), "p90");
        assert_eq!(describe_tail(5_000), "p99");
        assert_eq!(describe_tail(3), "none");
    }

    #[test]
    fn mean_over_repeats_until_the_minimum() {
        let mut calls = 0;
        let (last, mean) = mean_over(Duration::from_millis(10), || {
            calls += 1;
            Ok::<_, ()>((calls, Duration::from_millis(3)))
        })
        .unwrap();
        assert_eq!((calls, last), (4, 4));
        assert!((mean - 0.003).abs() < 1e-12);
        assert_eq!(
            mean_over(Duration::from_secs(1), || Err::<((), Duration), _>("x")),
            Err("x")
        );
    }

    #[test]
    fn geo_mean() {
        let g = geo(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geo(&[]), None);
        assert_eq!(geo(&[1.0, 0.0]), None, "a zero objective is degenerate");
        assert_eq!(geo(&[1.0, f64::INFINITY]), None);
    }

    #[test]
    fn latency_counts_from_due_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(30); // generator ran late
        let answered = sent + Duration::from_millis(20);
        assert!((latency_from_due_ms(due, answered) - 50.0).abs() < 1e-9);
        // an answer cannot precede its due time; clamp instead of going negative
        assert_eq!(latency_from_due_ms(answered, due), 0.0);
    }

    fn phase(rate: f64, p90_ms: f64, shed_share: f64, backlog_growing: bool) -> PhaseSummary {
        PhaseSummary {
            rate,
            p90_ms,
            shed_share,
            backlog_growing,
        }
    }

    #[test]
    fn max_rps_picks_highest_rate_meeting_every_condition() {
        let phases = [
            phase(10.0, 120.0, 0.0, false),
            phase(20.0, 300.0, 0.0, false),
            phase(30.0, 900.0, 0.0, false), // misses the limit
        ];
        assert_eq!(max_rps_slo(&phases, 500.0), 20.0);
        let shed = [
            phase(10.0, 120.0, 0.0, false),
            phase(20.0, 300.0, 0.02, false),
        ];
        assert_eq!(max_rps_slo(&shed, 500.0), 10.0);
        let backlog = [
            phase(10.0, 120.0, 0.0, false),
            phase(20.0, 300.0, 0.0, true),
        ];
        assert_eq!(max_rps_slo(&backlog, 500.0), 10.0);
        assert_eq!(max_rps_slo(&[phase(10.0, 800.0, 0.0, false)], 500.0), 0.0);
    }

    #[test]
    fn backlog_detection() {
        let steady = vec![100.0; 40];
        assert!(!backlog_growing(&steady, 500.0));
        let growing: Vec<f64> = (0..40).map(|i| 100.0 + 50.0 * f64::from(i)).collect();
        assert!(backlog_growing(&growing, 500.0));
        // doubling that stays under the limit is noise, not a backlog
        let small: Vec<f64> = (0..40).map(|i| 10.0 + f64::from(i)).collect();
        assert!(!backlog_growing(&small, 500.0));
    }
}
