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
//! * [`karger_stein`]: randomized recursive contraction, the classic
//!   Monte-Carlo baseline occupying the "old world" row of comparisons,
//! * [`matula`]: Matula's sequential `(2+ε)`-approximation (\[Mat93\],
//!   the paper's §1 reference point for approximation),
//! * [`io`]: a small DIMACS-like text format for graph exchange.
//!
//! All cut values are `u64`; the library assumes the total weight of the
//! graph fits in `u64` (checked by [`GraphBuilder::build`]).

pub mod generators;
pub mod graph;
pub mod io;
pub mod karger_stein;
pub mod matula;
pub mod stoer_wagner;

pub use graph::{cut_of_partition, Edge, Graph, GraphBuilder, VertexId};
pub use karger_stein::karger_stein_mincut;
pub use matula::matula_approx;
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
