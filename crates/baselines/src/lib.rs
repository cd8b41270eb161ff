//! Iterative partitioning baselines used as comparison points in the
//! paper's evaluation (§4).
//!
//! * [`fm`](mod@fm) — the Fiduccia–Mattheyses linear-time pass with gain buckets
//!   and a balance criterion, the workhorse behind most 1980s/90s
//!   partitioners;
//! * [`rcut`](mod@rcut) — a stand-in for Wei–Cheng's **RCut1.0**: FM-style iterative
//!   shifting re-targeted at the *ratio cut* objective, with group
//!   swapping and best-of-N random restarts, matching the published
//!   description of the program the paper compares against;
//! * [`kl`](mod@kl) — Kernighan–Lin pairwise-exchange bisection on a weighted
//!   graph (the clique model of a netlist), the historical baseline of
//!   §1.1.
//!
//! All randomness flows through the deterministic
//! [`Rng64`](np_netlist::rng::Rng64), so a fixed seed reproduces the
//! paper-table numbers in `EXPERIMENTS.md` exactly.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod fm;
pub mod kl;
pub mod rcut;

pub use fm::{fm_bisect, fm_bisect_anytime, fm_bisect_metered, FmOptions, FmResult};
pub use kl::{kl_bisect, kl_bisect_metered, KlOptions, KlResult};
pub use rcut::{rcut, rcut_metered, refine_ratio_cut_metered, RcutOptions, RcutResult};
