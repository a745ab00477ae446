//! Weighted undirected graphs and sequential min-cut baselines.
//!
//! This crate is the graph substrate for the parallel minimum-cut
//! reproduction of López-Martínez, Mukhopadhyay and Nanongkai
//! (SPAA 2021). It provides:
//!
//! * [`Graph`]: an immutable weighted undirected graph stored both as an
//!   edge list (what the cut-query structures consume) and as a CSR
//!   adjacency (what traversals consume),
//! * [`generators`]: deterministic, seedable workload generators used by
//!   the test-suite and the experiment harness (random multigraphs,
//!   planted-cut communities, grids, hypercubes, cliques, ...),
//! * [`stoer_wagner`]: the classic deterministic `O(n^3)` global
//!   minimum-cut algorithm, used as the correctness oracle,
//! * [`matula`]: Matula's sequential `(2+ε)`-approximation (\[Mat93\],
//!   the paper's §1 reference point for approximation),
//! * [`io`]: a small DIMACS-like text format for graph exchange.
//!
//! All cut values are `u64`; a graph's total weight stays below
//! [`TOTAL_WEIGHT_LIMIT`] = 2^62 (checked by [`GraphBuilder::build`]).

pub mod generators;
pub mod graph;
pub mod io;
pub mod matula;
pub mod stoer_wagner;

pub use graph::{cut_of_partition, Edge, Graph, GraphBuilder, VertexId, TOTAL_WEIGHT_LIMIT};
pub use matula::{matula_approx, matula_approx_rounds};
pub use stoer_wagner::stoer_wagner_mincut;

/// Convenience result bundle for algorithms that report a cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutResult {
    /// Total weight of edges crossing the cut.
    pub value: u64,
    /// One side of the vertex partition (the side not containing vertex
    /// 0 whenever the algorithm can normalize it; not all can).
    pub side: Vec<VertexId>,
}

impl CutResult {
    /// A "no cut found" placeholder with infinite value.
    pub fn infinite() -> Self {
        CutResult { value: u64::MAX, side: Vec::new() }
    }

    /// Keep the smaller of two cuts.
    pub fn min(self, other: CutResult) -> CutResult {
        if self.value <= other.value {
            self
        } else {
            other
        }
    }
}
