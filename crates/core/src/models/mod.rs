//! Graph representations ("net models") of the netlist hypergraph.
//!
//! Spectral methods need a *graph*, but circuits are hypergraphs; the
//! choice of net model decides what the eigenvector sees. Two models are
//! implemented:
//!
//! * [`clique`] — the standard weighted clique model: a `k`-pin net
//!   contributes `1/(k−1)` to each of the `C(k,2)` module pairs it spans.
//!   Simple and symmetric, but a 100-pin clock net generates 4950
//!   nonzeros, "negating the effectiveness of such sparse operator methods
//!   as the Lanczos technique" (paper §2.1);
//! * [`intersection`] — the paper's dual representation: one vertex per
//!   *net*, an edge wherever two nets share a module, weighted to discount
//!   overlaps through large nets and high-degree modules (§2.2). Roughly an
//!   order of magnitude sparser on netlists with wide nets.

pub mod clique;
pub mod intersection;

pub use clique::{clique_adjacency, clique_laplacian};
pub use intersection::{intersection_adjacency, intersection_laplacian, IgWeighting};
