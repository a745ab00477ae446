//! Rooted tree machinery for the 2-respecting min-cut algorithm.
//!
//! Everything in §4.1 of the paper operates on a rooted spanning tree
//! `T`: tree edges are identified with their lower endpoint (the child),
//! subtrees with contiguous postorder intervals, and tree decompositions
//! steer the search for the two cut edges. This crate provides:
//!
//! * [`rooted::RootedTree`]: parent/children arrays, depth, subtree
//!   size, postorder numbering and the `start(u)`/`post(u)` interval
//!   machinery of Lemma A.1 (computed by the Euler-tour technique,
//!   implemented as iterative DFS so path-shaped trees do not overflow
//!   the stack);
//! * [`rmq`]: the block-decomposed O(1) RMQ ([`rmq::BlockRmq`]) and the
//!   production Euler-tour LCA built on it ([`rmq::SparseLca`]);
//! * [`lca`]: binary-lifting LCA, level ancestors, and the pluggable
//!   [`lca::LcaEngine`] dispatching between the two via
//!   [`lca::LcaStrategy`];
//! * [`paths`]: heavy-path and bough decompositions — both satisfy
//!   Property 4.3 (any root-to-leaf path meets `O(log n)` decomposition
//!   paths) — plus the Root-paths query structure of Lemma 4.5;
//! * [`centroid`]: the centroid decomposition of Definition 4.11 /
//!   Lemma 4.12.

pub mod centroid;
pub mod lca;
pub mod paths;
pub mod rmq;
pub mod rooted;

pub use centroid::CentroidDecomposition;
pub use lca::{LcaEngine, LcaOracle, LcaStrategy, LcaTable};
pub use paths::{PathDecomposition, PathStrategy};
pub use rmq::{BlockRmq, SparseLca};
pub use rooted::RootedTree;
