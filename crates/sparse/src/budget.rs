//! Cooperative resource budgets for the numerical kernels.
//!
//! Long-running stages — Lanczos matvec loops, the IG-Match split sweep,
//! FM passes — periodically *charge* a shared [`BudgetMeter`] and bail
//! out with [`BudgetExceeded`] when the caller's limits are spent. The
//! meter is cheap enough to consult inside inner loops (an atomic add
//! plus, for the wall clock, one `Instant::now` per check) and is `Sync`,
//! so one meter can be threaded through an entire partitioning attempt
//! regardless of how the work is structured.
//!
//! Budgets are *cooperative*: code must call [`BudgetMeter::charge`] /
//! [`BudgetMeter::check`] at its natural checkpoints. All kernels in this
//! workspace do so at per-iteration granularity, which bounds overshoot
//! to a single iteration's work.
//!
//! # Sharing one allowance across threads
//!
//! A meter is a cheap handle over shared state ([`Clone`] just bumps an
//! `Arc`), so a multi-threaded caller — the `np-runner` portfolio
//! executor, a server handling one request on several workers — can hand
//! every thread a clone and all of them observe the *same* deadline,
//! charge the *same* matvec pool, and see the *same*
//! [cancellation flag](BudgetMeter::cancel). [`BudgetMeter::tributary`]
//! additionally gives a handle its own local tally, so per-thread (or
//! per-attempt) spend can be read back exactly even though the pool is
//! global.
//!
//! # Batched charging from sharded kernels
//!
//! A kernel that internally fans one unit of work out over several
//! threads — the row-sharded matvec of [`crate::parallel`] — must *not*
//! charge the meter from its shards: `k` shards would report `k`
//! matvec-equivalents for one actual matvec, over-reporting spend and
//! multiplying the atomic traffic (and cancellation checks) by the shard
//! count. The contract is that shards stay meter-silent and the *caller*
//! charges once per logical unit at its existing per-iteration
//! checkpoint, keeping accounting exact and cancellation checks O(1) per
//! iteration regardless of the thread count.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resource limits for one partitioning attempt. `None` means unlimited.
///
/// # Example
///
/// ```
/// use np_sparse::{Budget, BudgetMeter};
/// use std::time::Duration;
///
/// let budget = Budget::default().with_matvecs(100);
/// let meter = BudgetMeter::new(&budget);
/// assert!(meter.charge(99).is_ok());
/// assert!(meter.charge(99).is_err());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum wall-clock time for the attempt.
    pub wall_clock: Option<Duration>,
    /// Maximum number of operator–vector products (the unit of numerical
    /// work in this workspace; non-numerical stages charge comparable
    /// units, e.g. one per sweep position or FM pass).
    pub matvecs: Option<u64>,
}

impl Budget {
    /// An unlimited budget.
    pub const UNLIMITED: Budget = Budget {
        wall_clock: None,
        matvecs: None,
    };

    /// Sets the wall-clock limit.
    pub fn with_wall_clock(mut self, limit: Duration) -> Self {
        self.wall_clock = Some(limit);
        self
    }

    /// Sets the matvec limit.
    pub fn with_matvecs(mut self, limit: u64) -> Self {
        self.matvecs = Some(limit);
        self
    }
}

/// Which resource ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetResource {
    /// The wall-clock deadline passed.
    WallClock,
    /// The matvec allowance was spent.
    Matvecs,
    /// The run was cooperatively cancelled ([`BudgetMeter::cancel`]) —
    /// e.g. a parallel portfolio already reached its target and asked
    /// in-flight attempts to stop.
    Cancelled,
}

/// Returned when a [`BudgetMeter`] limit is hit, carrying the partial
/// progress made up to that point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BudgetExceeded {
    /// The exhausted resource.
    pub resource: BudgetResource,
    /// Matvec-equivalents charged before exhaustion.
    pub matvecs_used: u64,
    /// Wall-clock time elapsed since the meter was created.
    pub elapsed: Duration,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.resource {
            BudgetResource::WallClock => "wall-clock budget",
            BudgetResource::Matvecs => "matvec budget",
            BudgetResource::Cancelled => "run cancelled",
        };
        write!(
            f,
            "{what} exceeded after {:?} and {} matvecs",
            self.elapsed, self.matvecs_used
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// The state shared by every handle of one metering scope.
#[derive(Debug)]
struct MeterCore {
    started: Instant,
    deadline: Option<Instant>,
    matvec_cap: Option<u64>,
    /// Global matvec pool; every handle of the scope charges it.
    pool: AtomicU64,
    /// Cooperative cancellation flag; once set, every handle trips.
    cancelled: AtomicBool,
}

/// Tracks spending against a [`Budget`]. `Sync`, so one meter can be
/// shared by reference across the whole attempt; additionally a cheap
/// *handle*: [`Clone`] produces a second handle over the same deadline,
/// matvec pool and cancellation flag, so threads can own their handle
/// instead of borrowing (`'static` spawns, async tasks).
///
/// [`tributary`](BudgetMeter::tributary) forks a handle with its own
/// local tally for exact per-worker accounting.
#[derive(Clone, Debug)]
pub struct BudgetMeter {
    core: Arc<MeterCore>,
    /// This handle's own tally (shared with clones, fresh in
    /// tributaries). The pool, not this, is what limits are checked
    /// against.
    local: Arc<AtomicU64>,
}

impl BudgetMeter {
    /// Creates a meter for `budget`, starting the wall clock now.
    pub fn new(budget: &Budget) -> Self {
        let started = Instant::now();
        BudgetMeter {
            core: Arc::new(MeterCore {
                started,
                deadline: budget.wall_clock.map(|d| started + d),
                matvec_cap: budget.matvecs,
                pool: AtomicU64::new(0),
                cancelled: AtomicBool::new(false),
            }),
            local: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A meter that never trips (but can still be
    /// [cancelled](BudgetMeter::cancel)).
    pub fn unlimited() -> Self {
        BudgetMeter::new(&Budget::UNLIMITED)
    }

    /// A handle over the same deadline, matvec pool and cancellation flag
    /// but with a *fresh local tally*: charges made through the tributary
    /// count against the shared limits as usual, while
    /// [`local_used`](BudgetMeter::local_used) reads back exactly what
    /// this tributary charged. The `np-runner` portfolio executor gives
    /// each attempt a tributary to report per-attempt spend.
    #[must_use]
    pub fn tributary(&self) -> BudgetMeter {
        BudgetMeter {
            core: Arc::clone(&self.core),
            local: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Charges `n` matvec-equivalents and then checks both limits.
    ///
    /// The counter saturates at `u64::MAX` rather than wrapping, so an
    /// absurd charge can never roll an exhausted meter back under its cap.
    pub fn charge(&self, n: u64) -> Result<(), BudgetExceeded> {
        // fetch_update with a total closure always succeeds
        let _ = self
            .core
            .pool
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
        let _ = self
            .local
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
        self.check()
    }

    /// Checks cancellation and both limits without charging.
    ///
    /// The wall clock is sampled exactly once per check from the same
    /// monotonic [`Instant`] timeline the deadline was derived from, and
    /// that single sample is also used for the reported `elapsed`, so a
    /// tripped check can never report an elapsed time that contradicts
    /// the deadline it tripped on.
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        let used = self.matvecs_used();
        if self.is_cancelled() {
            return Err(self.exceeded(BudgetResource::Cancelled, used));
        }
        if let Some(cap) = self.core.matvec_cap {
            if used >= cap {
                return Err(self.exceeded(BudgetResource::Matvecs, used));
            }
        }
        if let Some(deadline) = self.core.deadline {
            let now = Instant::now();
            if now >= deadline {
                return Err(BudgetExceeded {
                    resource: BudgetResource::WallClock,
                    matvecs_used: used,
                    elapsed: now.duration_since(self.core.started),
                });
            }
        }
        Ok(())
    }

    /// Cooperatively cancels every handle of this metering scope: all
    /// subsequent [`check`](BudgetMeter::check) /
    /// [`charge`](BudgetMeter::charge) calls — on this handle, its
    /// clones and its tributaries — fail with
    /// [`BudgetResource::Cancelled`]. Like exhaustion, cancellation is
    /// permanent for the scope.
    pub fn cancel(&self) {
        self.core.cancelled.store(true, Ordering::Relaxed);
    }

    /// `true` once [`cancel`](BudgetMeter::cancel) has been called on any
    /// handle of this scope.
    pub fn is_cancelled(&self) -> bool {
        self.core.cancelled.load(Ordering::Relaxed)
    }

    /// Matvec-equivalents charged so far against the shared pool (all
    /// handles of the scope combined).
    pub fn matvecs_used(&self) -> u64 {
        self.core.pool.load(Ordering::Relaxed)
    }

    /// Matvec-equivalents charged through *this* handle (and its clones)
    /// since it was created — for the root meter this equals
    /// [`matvecs_used`](BudgetMeter::matvecs_used) unless tributaries
    /// exist.
    pub fn local_used(&self) -> u64 {
        self.local.load(Ordering::Relaxed)
    }

    /// Wall-clock time since the meter was created.
    pub fn elapsed(&self) -> Duration {
        self.core.started.elapsed()
    }

    fn exceeded(&self, resource: BudgetResource, used: u64) -> BudgetExceeded {
        BudgetExceeded {
            resource,
            matvecs_used: used,
            elapsed: self.elapsed(),
        }
    }
}

impl Default for BudgetMeter {
    fn default() -> Self {
        BudgetMeter::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let m = BudgetMeter::unlimited();
        for _ in 0..1000 {
            m.charge(1_000_000).unwrap();
        }
        assert_eq!(m.matvecs_used(), 1_000_000_000);
    }

    #[test]
    fn matvec_cap_trips_with_diagnostics() {
        let m = BudgetMeter::new(&Budget::default().with_matvecs(10));
        m.charge(5).unwrap();
        let e = m.charge(5).unwrap_err();
        assert_eq!(e.resource, BudgetResource::Matvecs);
        assert_eq!(e.matvecs_used, 10);
    }

    #[test]
    fn elapsed_deadline_trips() {
        let m = BudgetMeter::new(&Budget::default().with_wall_clock(Duration::ZERO));
        let e = m.check().unwrap_err();
        assert_eq!(e.resource, BudgetResource::WallClock);
    }

    #[test]
    fn meter_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<BudgetMeter>();
    }

    #[test]
    fn display_mentions_resource() {
        let m = BudgetMeter::new(&Budget::default().with_matvecs(1));
        let e = m.charge(2).unwrap_err();
        assert!(e.to_string().contains("matvec budget"));
    }

    #[test]
    fn charge_exactly_to_cap_exhausts() {
        // the boundary is inclusive: spending the whole allowance trips
        let m = BudgetMeter::new(&Budget::default().with_matvecs(10));
        let e = m.charge(10).unwrap_err();
        assert_eq!(e.resource, BudgetResource::Matvecs);
        assert_eq!(e.matvecs_used, 10);
    }

    #[test]
    fn charge_to_one_below_cap_survives() {
        let m = BudgetMeter::new(&Budget::default().with_matvecs(10));
        m.charge(9).unwrap();
        m.check().unwrap();
        assert_eq!(m.matvecs_used(), 9);
    }

    #[test]
    fn exhausted_meter_stays_exhausted() {
        let m = BudgetMeter::new(&Budget::default().with_matvecs(3));
        assert!(m.charge(3).is_err());
        for _ in 0..5 {
            assert!(m.check().is_err(), "an exhausted meter must not recover");
            assert!(m.charge(0).is_err());
        }
    }

    #[test]
    fn zero_cap_trips_immediately() {
        let m = BudgetMeter::new(&Budget::default().with_matvecs(0));
        assert!(m.check().is_err());
        assert_eq!(m.matvecs_used(), 0);
    }

    #[test]
    fn charge_saturates_instead_of_wrapping() {
        // a wrapped counter would dip back under the cap and "un-exhaust"
        let m = BudgetMeter::new(&Budget::default().with_matvecs(100));
        assert!(m.charge(u64::MAX).is_err());
        assert!(m.charge(u64::MAX).is_err());
        assert_eq!(m.matvecs_used(), u64::MAX);
    }

    #[test]
    fn wall_clock_error_elapsed_consistent_with_deadline() {
        // the elapsed reported by a wall-clock trip comes from the same
        // Instant sample that beat the deadline, so it can never be
        // shorter than the configured limit
        let limit = Duration::from_millis(1);
        let m = BudgetMeter::new(&Budget::default().with_wall_clock(limit));
        std::thread::sleep(Duration::from_millis(2));
        let e = m.check().unwrap_err();
        assert_eq!(e.resource, BudgetResource::WallClock);
        assert!(
            e.elapsed >= limit,
            "elapsed {:?} < limit {limit:?}",
            e.elapsed
        );
    }

    #[test]
    fn clones_share_pool_deadline_and_cancel() {
        let m = BudgetMeter::new(&Budget::default().with_matvecs(10));
        let h = m.clone();
        m.charge(4).unwrap();
        h.charge(4).unwrap();
        assert_eq!(m.matvecs_used(), 8);
        assert_eq!(h.matvecs_used(), 8);
        assert_eq!(m.local_used(), 8, "clones share the local tally too");
        assert!(h.charge(2).is_err());
        assert!(m.check().is_err(), "exhaustion is visible on every handle");
    }

    #[test]
    fn tributaries_tally_locally_but_charge_the_pool() {
        let root = BudgetMeter::new(&Budget::default().with_matvecs(100));
        let a = root.tributary();
        let b = root.tributary();
        a.charge(7).unwrap();
        b.charge(11).unwrap();
        assert_eq!(a.local_used(), 7);
        assert_eq!(b.local_used(), 11);
        assert_eq!(root.local_used(), 0, "root never charged anything itself");
        assert_eq!(root.matvecs_used(), 18, "the pool sees every tributary");
    }

    #[test]
    fn cancel_trips_every_handle_within_one_check() {
        let root = BudgetMeter::unlimited();
        let trib = root.tributary();
        let clone = root.clone();
        assert!(trib.check().is_ok());
        clone.cancel();
        for h in [&root, &trib, &clone] {
            let e = h.check().unwrap_err();
            assert_eq!(e.resource, BudgetResource::Cancelled);
            assert!(h.is_cancelled());
        }
        assert!(
            root.charge(1).is_err(),
            "cancellation is permanent for the scope"
        );
        assert!(trib.check().unwrap_err().to_string().contains("cancelled"));
    }

    #[test]
    fn tributary_shares_the_deadline_timeline() {
        let root = BudgetMeter::new(&Budget::default().with_wall_clock(Duration::ZERO));
        let trib = root.tributary();
        assert_eq!(
            trib.check().unwrap_err().resource,
            BudgetResource::WallClock
        );
    }
}
