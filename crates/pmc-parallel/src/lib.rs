//! Parallel primitives and work-span accounting.
//!
//! The paper analyses algorithms in the work-depth (work-span) model
//! (§2.1): *work* is the total number of operations, *depth* the longest
//! chain of dependent operations; Brent's theorem turns `(W, D)` into
//! `O(W/p + D)` running time on `p` processors. Rayon's work-stealing
//! scheduler realizes Brent's bound, but a laptop cannot *measure* PRAM
//! work or depth directly — so this crate provides:
//!
//! * [`meter`]: cheap atomic operation counters ([`Meter`]) and per-phase
//!   critical-path gauges that the algorithm crates use to report
//!   empirical work/depth, letting the benches regenerate the paper's
//!   Table 1 from measured counts;
//! * [`scan`]: parallel prefix sums;
//! * [`sort`]: a parallel LSD radix sort (the paper's sorting primitive,
//!   \[Ble96\]), kept as a timed kernel: the solver's symmetric join
//!   sorts with one comparison sort instead;
//! * [`scratch`]: reusable scratch workspaces ([`Scratch`] through the
//!   per-thread [`with_scratch`] pool) behind the allocation-free
//!   steady-state query path;
//! * [`union_find`]: sequential and lock-free concurrent union-find;
//! * [`spanning_forest`]: parallel spanning forests (the Halperin–Zwick
//!   substitute used by Theorem 2.6's certificates);
//! * [`mst`]: sequential Kruskal minimum spanning forests with
//!   caller-supplied keys, the oracle for the packing step of §4.2
//!   (MSTs with respect to dynamic loads).

pub mod meter;
pub mod mst;
pub mod scan;
pub mod scratch;
pub mod sort;
pub mod spanning_forest;
pub mod union_find;

pub use meter::{CostKind, CostReport, Meter};
pub use scratch::{with_scratch, Scratch};
pub use union_find::{ConcurrentUnionFind, UnionFind};
