//! Sparse symmetric matrices and linear operators for spectral partitioning.
//!
//! The spectral methods in this reproduction need exactly one numerical
//! kernel: repeated multiplication of a sparse symmetric operator (a graph
//! Laplacian `Q = D − A`) against dense vectors, inside a Lanczos
//! iteration. This crate provides:
//!
//! * [`CsrMatrix`] — compressed sparse row storage built from (possibly
//!   duplicated) triplets;
//! * [`Laplacian`] — the operator `Q = D − A` kept in factored form
//!   (adjacency + degree vector), so building it never materializes the
//!   diagonal into the sparsity pattern, and applied four length-sorted
//!   rows at a time, bit-identically to a per-row CSR sum;
//! * [`LinearOperator`] — the abstraction the eigensolver works against;
//! * [`parallel`] — row-sharded multi-threaded matvec
//!   ([`ThreadedLaplacian`]) whose output is bit-identical to the serial
//!   operator for every thread count;
//! * [`vecops`] — the handful of dense-vector kernels (dot, axpy, norms)
//!   Lanczos needs.
//!
//! Netlist graphs are very sparse ("due to hierarchical circuit organization
//! and degree bounds imposed by the technology fanout limits", paper §1.1
//! fn. 1), which is what makes the Lanczos approach practical; the paper's
//! sparsity argument for the intersection graph (§1.2) is measured in terms
//! of the [`CsrMatrix::nnz`] of the two representations.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
mod csr;
mod laplacian;
mod operator;
pub mod parallel;
pub mod vecops;

pub use budget::{Budget, BudgetExceeded, BudgetMeter, BudgetResource};
pub use csr::{CsrMatrix, IndexOverflow, TripletBuilder};
pub use laplacian::Laplacian;
pub use operator::LinearOperator;
pub use parallel::{resolve_threads, shard_ranges, ThreadedLaplacian};
