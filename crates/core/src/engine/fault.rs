//! Deterministic fault injection: one decorator [`Stage`] that makes the
//! stage it wraps misbehave.
//!
//! Compiled only with the `fault-inject` feature, so release builds carry
//! no fault hooks. The robust fallback chain (its `FaultPlan`) and
//! np-serve's request-level faults both wrap their stages in a
//! [`FaultStage`]. Three kinds fail on entry with the structured error a
//! real failure would produce; the other three model a misbehaving
//! worker:
//!
//! * **slow** — the stage starts late but stays cooperative (it sleeps in
//!   1 ms slices, checking the meter between them, so deadlines still
//!   cancel it);
//! * **panic** — the stage panics; callers' `catch_unwind` isolation must
//!   contain it;
//! * **stuck** — a divergent eigensolve: the stage spins forever,
//!   charging the meter each spin, so only budget or deadline exhaustion
//!   ends it.

use super::context::RunContext;
use super::stage::{BoxedStage, Stage};
use crate::{PartitionError, PartitionResult};
use np_eigen::EigenError;
use np_netlist::Hypergraph;
use np_sparse::{BudgetExceeded, BudgetResource};
use std::time::Duration;

/// The misbehaviour a [`FaultStage`] injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Fails on entry with [`EigenError::NoConvergence`], as if the
    /// eigensolve stagnated.
    NoConvergence,
    /// Fails on entry with [`EigenError::NonFinite`], as if the operator
    /// produced NaN.
    NonFinite,
    /// Fails on entry with [`PartitionError::Budget`] carrying the real
    /// spend so far, as if the budget ran out.
    ExhaustBudget,
    /// Sleeps this long (cooperatively) before running the wrapped stage.
    Slow(Duration),
    /// Panics on entry.
    Panic,
    /// Charges one matvec-equivalent per spin until the meter trips; an
    /// unlimited meter never trips, so pair it with a budget or deadline.
    Stuck,
}

/// A stage that injects a [`FaultKind`] into the stage it wraps. It
/// reports the wrapped stage's name, so traces and diagnostics read as if
/// that stage had failed on its own.
pub struct FaultStage {
    kind: FaultKind,
    inner: BoxedStage,
}

impl FaultStage {
    /// Wraps `inner` so that it misbehaves as `kind` says.
    pub fn new(kind: FaultKind, inner: BoxedStage) -> Self {
        FaultStage { kind, inner }
    }
}

impl Stage for FaultStage {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(
        &self,
        hg: &Hypergraph,
        input: Option<PartitionResult>,
        ctx: &RunContext<'_>,
    ) -> Result<PartitionResult, PartitionError> {
        let meter = ctx.meter();
        match self.kind {
            FaultKind::NoConvergence => Err(PartitionError::Eigen(EigenError::NoConvergence {
                iterations: 0,
                residual: f64::INFINITY,
            })),
            FaultKind::NonFinite => Err(PartitionError::Eigen(EigenError::NonFinite {
                stage: "fault injection",
            })),
            FaultKind::ExhaustBudget => Err(PartitionError::Budget(BudgetExceeded {
                resource: BudgetResource::Matvecs,
                matvecs_used: meter.matvecs_used(),
                elapsed: meter.elapsed(),
            })),
            FaultKind::Slow(delay) => {
                let slice = Duration::from_millis(1);
                let mut remaining = delay;
                while remaining > Duration::ZERO {
                    meter.check()?;
                    let nap = remaining.min(slice);
                    std::thread::sleep(nap);
                    remaining -= nap;
                }
                self.inner.run(hg, input, ctx)
            }
            FaultKind::Panic => panic!("injected fault: panicking stage"),
            FaultKind::Stuck => loop {
                meter.charge(1)?;
                std::thread::yield_now();
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::stages::FmStage;
    use np_netlist::hypergraph_from_nets;
    use np_sparse::{Budget, BudgetMeter};

    fn faulty(kind: FaultKind) -> FaultStage {
        FaultStage::new(kind, Box::new(FmStage::default()))
    }

    fn tiny() -> Hypergraph {
        hypergraph_from_nets(
            8,
            &[
                vec![0, 1],
                vec![1, 2],
                vec![2, 3],
                vec![0, 3],
                vec![4, 5],
                vec![5, 6],
                vec![6, 7],
                vec![4, 7],
                vec![3, 4],
            ],
        )
    }

    #[test]
    fn entry_faults_fail_with_structured_errors() {
        let ctx = RunContext::unlimited();
        let run = |kind| faulty(kind).run(&tiny(), None, &ctx).unwrap_err();
        assert!(matches!(
            run(FaultKind::NoConvergence),
            PartitionError::Eigen(EigenError::NoConvergence { .. })
        ));
        assert!(run(FaultKind::NonFinite).to_string().contains("non-finite"));
        assert!(matches!(
            run(FaultKind::ExhaustBudget),
            PartitionError::Budget(_)
        ));
        assert_eq!(faulty(FaultKind::Panic).name(), "FM");
    }

    #[test]
    fn slow_stage_is_cancellable() {
        let stage = faulty(FaultKind::Slow(Duration::from_secs(60)));
        let meter = BudgetMeter::new(&Budget::default().with_wall_clock(Duration::from_millis(5)));
        let ctx = RunContext::with_meter(&meter);
        let start = std::time::Instant::now();
        let err = stage.run(&tiny(), None, &ctx).unwrap_err();
        assert!(matches!(err, PartitionError::Budget(_)), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "must not sleep out the full minute"
        );
    }

    #[test]
    fn slow_stage_eventually_delegates() {
        let stage = faulty(FaultKind::Slow(Duration::from_millis(2)));
        let result = stage.run(&tiny(), None, &RunContext::unlimited()).unwrap();
        assert!(result.stats.cut_nets >= 1);
    }

    #[test]
    fn stuck_stage_trips_on_budget() {
        let meter = BudgetMeter::new(&Budget::default().with_matvecs(100));
        let ctx = RunContext::with_meter(&meter);
        let err = faulty(FaultKind::Stuck)
            .run(&tiny(), None, &ctx)
            .unwrap_err();
        assert!(matches!(err, PartitionError::Budget(_)), "{err}");
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn panic_stage_panics() {
        let _ = faulty(FaultKind::Panic).run(&tiny(), None, &RunContext::unlimited());
    }
}
