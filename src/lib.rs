//! Umbrella crate for the *Work-Optimal Parallel Minimum Cuts for
//! Non-Sparse Graphs* (SPAA 2021) reproduction.
//!
//! Re-exports the workspace crates under one roof so the examples and
//! integration tests read like downstream user code:
//!
//! * [`graph`] — weighted graphs, generators, the Stoer–Wagner oracle
//!   and Matula's approximation;
//! * [`parallel`] — work-span metering and parallel primitives;
//! * [`tree`] — rooted-tree machinery (Euler tours, LCA, path and
//!   centroid decompositions);
//! * [`range`] — the `n^ε`-ary range-sum structures of Lemmas 4.24/4.25;
//! * [`monge`] — SMAWK Monge minimum searches (divide-and-conquer row
//!   minima kept as a test oracle);
//! * [`sparsify`] — skeletons, sampling hierarchies, certificates;
//! * [`mincut`] — the paper's algorithms: 2-respecting solver, tree
//!   packing, approximate and exact minimum cut;
//! * [`fault`] — robustness substrate: typed errors, deadlines and
//!   degradation flags, and the deterministic fault-injection plane.
//!
//! ```
//! use parallel_mincut::prelude::*;
//!
//! let g = pmc_graph::generators::ring_of_cliques(4, 5, 6, 2);
//! let result = exact_mincut(&g, &ExactParams::default());
//! assert_eq!(result.cut.value, 4); // two ring bridges of weight 2
//! ```

pub use pmc_fault as fault;
pub use pmc_graph as graph;
pub use pmc_mincut as mincut;
pub use pmc_monge as monge;
pub use pmc_parallel as parallel;
pub use pmc_range as range;
pub use pmc_sparsify as sparsify;
pub use pmc_tree as tree;

/// The names most programs need.
pub mod prelude {
    pub use pmc_graph::{
        cut_of_partition, generators, matula_approx,
        stoer_wagner_mincut, CutResult, Graph, GraphBuilder,
    };
    pub use pmc_mincut::{
        approx_mincut, approx_mincut_eps, approx_mincut_in, exact_mincut,
        exact_mincut_in, exact_mincut_robust, mincut_small, mincut_small_in,
        naive_two_respecting, two_respecting_mincut, ApproxParams, ApproxResult,
        ExactParams, ExactResult, GraphContext, InterestStrategy, TreeContext,
        TwoRespectParams,
    };
    pub use pmc_fault::{Deadline, DegradeReason, FaultPlan, PmcError, SolveQuality};
    pub use pmc_parallel::{CostKind, CostReport, Meter};
    pub use pmc_tree::{LcaEngine, LcaStrategy};
}
