//! Circuit netlist hypergraphs and supporting utilities.
//!
//! A circuit netlist is modelled as a hypergraph `H = (V, E')`: vertices are
//! *modules* (cells, gates, pads) and hyperedges are *signal nets*, each net
//! being the set of modules it connects (its *pins*). This crate provides:
//!
//! * [`Hypergraph`] — a compact, immutable, doubly-indexed (net → pins and
//!   module → nets) representation, built through [`HypergraphBuilder`];
//! * [`partition`] — bipartitions of the module set, cut and ratio-cut
//!   metrics, and an incremental [`partition::CutTracker`];
//! * [`io`] — reading and writing the hMETIS-compatible `.hgr` text format;
//! * [`generate`] — deterministic synthetic benchmark circuits with
//!   hierarchical structure, including stand-ins for the MCNC suite used in
//!   the paper's evaluation;
//! * [`stats`] — net-size histograms and cut-statistics tables (paper
//!   Table 1);
//! * [`areas`] — module areas and the area-weighted ratio cut;
//! * [`kway`] — balanced k-way partitions, fixed modules and the k-block
//!   [`kway::KwayCutTracker`];
//! * [`induce`] — induced sub-hypergraphs for recursive partitioning;
//! * [`components`] — hypergraph connectivity;
//! * [`rng`] — a tiny, fully deterministic PRNG used by the generator and by
//!   randomized baselines.
//!
//! # Example
//!
//! ```
//! use np_netlist::{HypergraphBuilder, ModuleId};
//!
//! # fn main() -> Result<(), np_netlist::NetlistError> {
//! let mut b = HypergraphBuilder::new(4);
//! b.add_net([ModuleId(0), ModuleId(1)])?;
//! b.add_net([ModuleId(1), ModuleId(2), ModuleId(3)])?;
//! let hg = b.finish()?;
//! assert_eq!(hg.num_modules(), 4);
//! assert_eq!(hg.num_nets(), 2);
//! assert_eq!(hg.num_pins(), 5);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod error;
mod hypergraph;
mod ids;

pub mod areas;
pub mod components;
pub mod generate;
pub mod induce;
pub mod io;
pub mod kway;
pub mod partition;
pub mod rng;
pub mod stats;

pub use builder::{hypergraph_from_nets, HypergraphBuilder};
pub use error::NetlistError;
pub use hypergraph::Hypergraph;
pub use ids::{ModuleId, NetId};
pub use kway::{balance_bound, FixedModules, KwayCutStats, KwayCutTracker, KwayPartition};
pub use partition::{Bipartition, CutStats, Side};
