//! Experiment harness for the reproduction.
//!
//! `experiments` holds one runner per entry of DESIGN.md's experiment
//! index (`T1`, `E-3.1`, `E-4.2`, ...), shared between the experiment
//! runner (`cargo run -p pmc-bench --release -- <experiment>`) and the
//! Criterion micro-benches. Results print as aligned text tables.

pub mod alloc_meter;
pub mod experiments;
pub mod table;
pub mod workloads;

pub use table::Table;
