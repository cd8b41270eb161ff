//! Balanced k-way partitioning with fixed modules.
//!
//! The route from the paper's bipartition engine to `k` blocks is
//! **recursive bisection** ([`kway_recursive_ctx`]): the existing
//! IG-Match+FM hybrid pipeline splits the module set, each side receives
//! a proportional share of the block count and of the area budget, and
//! recursion continues until every range holds one block. This is the §1
//! divide-and-conquer story run to depth `log k`.
//!
//! A final repair + refinement phase over [`KwayCutTracker`] enforces
//! the contract:
//!
//! * **balance** — every block's area stays within
//!   [`balance_bound`]`(total, k, ε)` `= (1+ε)·total/k`, and no block is
//!   empty (infeasible inputs surface as
//!   [`PartitionError::InvalidInput`]);
//! * **fixed modules** — a module pinned by [`FixedModules`] is placed on
//!   its block before repair and is never moved by repair or refinement;
//! * **k = 2 fast path** — with two blocks and no pins, the route
//!   delegates to the exact bipartition pipeline
//!   (IG-Match + ratio-refine) and converts via
//!   [`KwayPartition::from_bipartition`], bit-identically in partition,
//!   cut statistics and metered spend.
//!
//! ```
//! use np_core::kway::{kway_partition, KwayMethod, KwayOptions};
//! use np_netlist::generate::{generate, GeneratorConfig};
//!
//! let hg = generate(&GeneratorConfig::new(120, 130, 7));
//! let opts = KwayOptions { k: 4, epsilon: 0.5, ..Default::default() };
//! let out = kway_partition(&hg, &opts, KwayMethod::Recursive)?;
//! assert_eq!(out.partition.num_blocks(), 4);
//! assert!(out.stats.max_block() as f64 <= 1.5 * 120.0 / 4.0 + 1e-9);
//! # Ok::<(), np_core::PartitionError>(())
//! ```

mod recursive;
pub mod refine;

pub use recursive::kway_recursive_ctx;

use crate::engine::{RunContext, Stage};
use crate::hybrid::{hybrid_pipeline, HybridOptions};
use crate::{IgMatchOptions, PartitionError};
use np_netlist::areas::ModuleAreas;
use np_netlist::{
    balance_bound, FixedModules, Hypergraph, KwayCutStats, KwayCutTracker, KwayPartition,
};

/// Options of the k-way route.
#[derive(Clone, Debug, PartialEq)]
pub struct KwayOptions {
    /// Number of blocks (`k >= 1`).
    pub k: usize,
    /// Imbalance tolerance: every block's area must stay within
    /// `(1+ε)·total/k`. Must be finite and non-negative.
    pub epsilon: f64,
    /// Module areas; `None` means uniform (every module has area 1).
    pub areas: Option<ModuleAreas>,
    /// Pre-assigned modules that must never move; `None` means all free.
    pub fixed: Option<FixedModules>,
    /// Options for the inner IG-Match runs (recursive bisection and the
    /// k = 2 fast path).
    pub ig_match: IgMatchOptions,
    /// Upper bound on refinement passes (bipartition ratio-refine on the
    /// k = 2 fast path, k-way greedy refinement otherwise).
    pub max_refine_passes: usize,
}

impl Default for KwayOptions {
    fn default() -> Self {
        KwayOptions {
            k: 2,
            epsilon: 0.1,
            areas: None,
            fixed: None,
            ig_match: IgMatchOptions::default(),
            max_refine_passes: 20,
        }
    }
}

impl KwayOptions {
    /// The bipartition pipeline's options: each bisection (and the
    /// `k = 2` fast path) runs the shared hybrid pipeline with the route's
    /// IG-Match options and refinement cap.
    pub(crate) fn hybrid(&self) -> HybridOptions {
        HybridOptions {
            ig_match: self.ig_match,
            max_refine_passes: self.max_refine_passes,
        }
    }
}

/// Which k-way route to run. Recursive bisection is the only route;
/// the enum keeps the [`kway_partition_ctx`] signature stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KwayMethod {
    /// Recursive bisection over the hybrid bipartition pipeline.
    Recursive,
}

/// Outcome of a k-way partitioning run.
#[derive(Clone, Debug, PartialEq)]
pub struct KwayResult {
    /// The block assignment (always `opts.k` blocks, all non-empty).
    pub partition: KwayPartition,
    /// Cut statistics of `partition`, consistent by construction.
    pub stats: KwayCutStats,
    /// Which route produced the result (`"kway-recursive"`).
    pub algorithm: &'static str,
}

impl KwayResult {
    /// Builds a result by scoring `partition` against `hg` from scratch.
    pub fn evaluate(hg: &Hypergraph, partition: KwayPartition, algorithm: &'static str) -> Self {
        KwayResult {
            stats: partition.cut_stats(hg),
            partition,
            algorithm,
        }
    }
}

/// Runs the chosen k-way route with no resource limits.
///
/// # Errors
///
/// See [`kway_partition_ctx`].
pub fn kway_partition(
    hg: &Hypergraph,
    opts: &KwayOptions,
    method: KwayMethod,
) -> Result<KwayResult, PartitionError> {
    kway_partition_ctx(hg, opts, method, &RunContext::unlimited())
}

/// Runs the chosen k-way route against an execution context.
///
/// # Errors
///
/// * [`PartitionError::InvalidInput`] for malformed options (`k = 0`,
///   bad ε, size mismatches, pins beyond `k`, `k` exceeding the module
///   count) and for infeasible balance (a pinned or single module that
///   cannot fit any block within the bound);
/// * the inner pipeline's errors on the k = 2 fast path;
/// * [`PartitionError::Budget`] when the context meter trips.
pub fn kway_partition_ctx(
    hg: &Hypergraph,
    opts: &KwayOptions,
    method: KwayMethod,
    ctx: &RunContext<'_>,
) -> Result<KwayResult, PartitionError> {
    match method {
        KwayMethod::Recursive => kway_recursive_ctx(hg, opts, ctx),
    }
}

/// Validated, defaulted inputs of a k-way run.
pub struct Prepared {
    /// Module areas (`opts.areas`, or uniform).
    pub areas: ModuleAreas,
    /// Module pins (`opts.fixed`, or all free).
    pub fixed: FixedModules,
    /// The per-block area capacity `(1+ε)·total/k`.
    pub bound: f64,
    /// `free[i]` iff module `i` is not pinned.
    pub free: Vec<bool>,
}

/// The one input check of every k-way route: validates `opts` against
/// `hg` and fills in the defaults.
///
/// # Errors
///
/// [`PartitionError::InvalidInput`] for every case listed on
/// [`kway_partition_ctx`].
pub fn prepare(hg: &Hypergraph, opts: &KwayOptions) -> Result<Prepared, PartitionError> {
    let n = hg.num_modules();
    if opts.k == 0 {
        return Err(PartitionError::InvalidInput {
            reason: "k must be at least 1",
        });
    }
    if !(opts.epsilon.is_finite() && opts.epsilon >= 0.0) {
        return Err(PartitionError::InvalidInput {
            reason: "epsilon must be finite and non-negative",
        });
    }
    if opts.k > n {
        return Err(PartitionError::InvalidInput {
            reason: "k exceeds the module count",
        });
    }
    let areas = match &opts.areas {
        Some(a) => {
            if a.len() != n {
                return Err(PartitionError::InvalidInput {
                    reason: "area vector size mismatch",
                });
            }
            a.clone()
        }
        None => ModuleAreas::uniform(n),
    };
    let fixed = match &opts.fixed {
        Some(f) => {
            if f.len() != n {
                return Err(PartitionError::InvalidInput {
                    reason: "fixed-module vector size mismatch",
                });
            }
            if !f.fits_k(opts.k) {
                return Err(PartitionError::InvalidInput {
                    reason: "fixed module pinned to a block >= k",
                });
            }
            f.clone()
        }
        None => FixedModules::free(n),
    };
    let bound = balance_bound(areas.total(), opts.k, opts.epsilon);
    let max_area = areas.as_slice().iter().copied().fold(0.0, f64::max);
    if max_area > refine::area_cap(bound) {
        return Err(PartitionError::InvalidInput {
            reason: "balance bound below the largest module area",
        });
    }
    let mut pinned_area = vec![0.0f64; opts.k];
    for (m, b) in fixed.pins() {
        pinned_area[b] += areas.area(m);
    }
    if pinned_area.iter().any(|&a| a > refine::area_cap(bound)) {
        return Err(PartitionError::InvalidInput {
            reason: "pinned modules overflow a block's area bound",
        });
    }
    let free = (0..n)
        .map(|i| !fixed.is_pinned(np_netlist::ModuleId(i as u32)))
        .collect();
    Ok(Prepared {
        areas,
        fixed,
        bound,
        free,
    })
}

/// Name of the route, as reported in [`KwayResult::algorithm`].
pub(crate) const ALGORITHM: &str = "kway-recursive";

/// The `k = 1` trivial partition: everything in block 0, nothing cut.
pub(crate) fn trivial(hg: &Hypergraph) -> KwayResult {
    let partition = KwayPartition::with_num_blocks(vec![0u32; hg.num_modules()], 1);
    KwayResult::evaluate(hg, partition, ALGORITHM)
}

/// The `k = 2`, no-pins fast path: run the bipartition pipeline on the
/// parent context (bit-identical partition, stats and metered spend),
/// convert via the shim, and touch nothing further — no tracker built,
/// no meter charged — unless a pin or the balance bound is violated.
pub(crate) fn bipartition_fast_path(
    hg: &Hypergraph,
    opts: &KwayOptions,
    prep: &Prepared,
    ctx: &RunContext<'_>,
) -> Result<KwayResult, PartitionError> {
    let res = hybrid_pipeline(&opts.hybrid()).run(hg, None, ctx)?;
    let partition = KwayPartition::from_bipartition(&res.partition);
    if satisfies_contract(&partition, prep) {
        return Ok(KwayResult::evaluate(hg, partition, ALGORITHM));
    }
    finalize(hg, partition, opts, prep, ctx)
}

/// The final phase: place pins, repair balance, refine, score.
pub(crate) fn finalize(
    hg: &Hypergraph,
    partition: KwayPartition,
    opts: &KwayOptions,
    prep: &Prepared,
    ctx: &RunContext<'_>,
) -> Result<KwayResult, PartitionError> {
    let mut tracker = KwayCutTracker::new(hg, &partition);
    tracker.set_areas(&prep.areas);
    for (m, b) in prep.fixed.pins() {
        tracker.move_module(m, b);
    }
    refine::enforce_balance(&mut tracker, &prep.free, prep.bound, ctx.meter())?;
    refine::kway_refine(
        &mut tracker,
        &prep.free,
        prep.bound,
        opts.max_refine_passes,
        ctx.meter(),
    )?;
    Ok(KwayResult::evaluate(hg, tracker.to_partition(), ALGORITHM))
}

fn satisfies_contract(partition: &KwayPartition, prep: &Prepared) -> bool {
    if prep.fixed.pins().any(|(m, b)| partition.block_of(m) != b) {
        return false;
    }
    if partition.block_sizes().contains(&0) {
        return false;
    }
    let cap = refine::area_cap(prep.bound);
    partition.block_areas(&prep.areas).iter().all(|&a| a <= cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_netlist::generate::{generate, GeneratorConfig};
    use np_netlist::ModuleId;

    fn circuit() -> Hypergraph {
        generate(&GeneratorConfig::new(160, 170, 0xBEEF))
    }

    #[test]
    fn zero_k_rejected() {
        let hg = circuit();
        let opts = KwayOptions {
            k: 0,
            ..Default::default()
        };
        assert!(matches!(
            kway_partition(&hg, &opts, KwayMethod::Recursive),
            Err(PartitionError::InvalidInput { .. })
        ));
    }

    #[test]
    fn bad_epsilon_rejected() {
        let hg = circuit();
        for eps in [f64::NAN, f64::INFINITY, -0.5] {
            let opts = KwayOptions {
                k: 4,
                epsilon: eps,
                ..Default::default()
            };
            assert!(matches!(
                kway_partition(&hg, &opts, KwayMethod::Recursive),
                Err(PartitionError::InvalidInput { .. })
            ));
        }
    }

    #[test]
    fn k_above_module_count_rejected() {
        let hg = np_netlist::hypergraph_from_nets(3, &[vec![0, 1], vec![1, 2]]);
        let opts = KwayOptions {
            k: 4,
            ..Default::default()
        };
        assert!(matches!(
            kway_partition(&hg, &opts, KwayMethod::Recursive),
            Err(PartitionError::InvalidInput { .. })
        ));
    }

    #[test]
    fn pin_beyond_k_rejected() {
        let hg = circuit();
        let mut fixed = FixedModules::free(hg.num_modules());
        fixed.pin(ModuleId(0), 7);
        let opts = KwayOptions {
            k: 4,
            fixed: Some(fixed),
            ..Default::default()
        };
        assert!(matches!(
            kway_partition(&hg, &opts, KwayMethod::Recursive),
            Err(PartitionError::InvalidInput { .. })
        ));
    }

    #[test]
    fn oversized_module_rejected() {
        let hg = np_netlist::hypergraph_from_nets(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let mut areas = vec![1.0; 4];
        areas[0] = 100.0;
        let opts = KwayOptions {
            k: 4,
            epsilon: 0.0,
            areas: Some(ModuleAreas::new(areas)),
            ..Default::default()
        };
        assert!(matches!(
            kway_partition(&hg, &opts, KwayMethod::Recursive),
            Err(PartitionError::InvalidInput { .. })
        ));
    }

    #[test]
    fn k1_is_trivial() {
        let hg = circuit();
        let opts = KwayOptions {
            k: 1,
            ..Default::default()
        };
        let out = kway_partition(&hg, &opts, KwayMethod::Recursive).unwrap();
        assert_eq!(out.partition.num_blocks(), 1);
        assert_eq!(out.stats.cut_nets, 0);
        assert_eq!(out.stats.block_sizes, vec![hg.num_modules()]);
    }

    #[test]
    fn block_io_statistics_are_consistent() {
        // crossing nets, the span histogram and per-block externals of a
        // k-way result agree with each other and with the cut statistics
        let hg = circuit();
        let opts = KwayOptions {
            k: 5,
            epsilon: 0.5,
            ..Default::default()
        };
        let out = kway_partition(&hg, &opts, KwayMethod::Recursive).unwrap();
        let p = &out.partition;
        let crossing = p.crossing_nets(&hg);
        let hist = p.span_histogram(&hg);
        assert_eq!(hist[2..].iter().sum::<usize>(), crossing);
        assert_eq!(hist.iter().sum::<usize>(), hg.num_nets());
        assert_eq!(crossing, out.stats.cut_nets);
        let external = p.external_nets_per_block(&hg);
        assert_eq!(external.len(), 5);
        assert!(external.iter().all(|&e| e <= crossing));
    }

    #[test]
    fn evaluate_scores_from_scratch() {
        let hg = np_netlist::hypergraph_from_nets(4, &[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let p = KwayPartition::from_labels(vec![0, 0, 1, 1]);
        let r = KwayResult::evaluate(&hg, p.clone(), "test");
        assert_eq!(r.stats, p.cut_stats(&hg));
        assert_eq!(r.algorithm, "test");
    }
}
