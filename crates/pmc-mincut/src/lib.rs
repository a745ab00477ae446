//! Work-optimal parallel minimum cuts (López-Martínez, Mukhopadhyay,
//! Nanongkai; SPAA 2021).
//!
//! The crate implements the paper end to end:
//!
//! * [`cutquery`]: the cut-query structure of Lemma A.1/A.2 — postorder
//!   intervals plus a 2-D range tree turn `cut(e, f)` into rectangle
//!   sums. Implemented through the uniform *coverage* form
//!   `cut(e,f) = cov(e) + cov(f) - 2 cov(e,f)` (see DESIGN.md).
//! * [`interest`]: the cross-/down-interest search of Definition 4.7 /
//!   Claims 4.8, 4.13 — per tree edge, the endpoints `ce`/`de` of the
//!   path of edges it is interested in, traced by the centroid descent
//!   of [`interest::InterestEngine`].
//! * [`two_respect`]: the minimum 2-respecting cut of a spanning tree
//!   (Theorem 4.2): path decomposition, partial-Monge single-path
//!   search, interest tuples, and Monge pair search.
//! * [`packing`]: skeleton + certificate + greedy (PST) tree packing
//!   (Theorem 4.18).
//! * [`approx`]: the `O(1)`-approximation through the sampling
//!   hierarchies of §3 (Theorem 3.1).
//! * [`exact`]: the full pipeline (Theorems 4.1 and 4.26), with the
//!   skeleton's λ̃ taken from Matula's `(2+ε)` bracket, and the simpler
//!   baselines used by the experiments.
//! * [`engine`]: the two-level solver engine — graph-lifetime
//!   [`GraphContext`] vs tree-lifetime [`TreeContext`], parallel
//!   sub-builds, and the batched query facade. The one-shot functions
//!   above are thin wrappers over it.
//!
//! Quick start:
//!
//! ```
//! use pmc_graph::generators;
//! use pmc_mincut::{exact_mincut, ExactParams};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let g = generators::dumbbell(8, 10, 3); // min cut = 3 (the bridge)
//! let result = exact_mincut(&g, &ExactParams::default());
//! assert_eq!(result.cut.value, 3);
//! ```

pub mod approx;
pub mod cutquery;
pub mod engine;
pub mod exact;
pub mod interest;
pub mod packing;
pub mod robust;
pub mod two_respect;

pub use approx::{approx_mincut, approx_mincut_eps, approx_mincut_in, ApproxParams, ApproxResult};
pub use cutquery::CutQuery;
pub use engine::{GraphContext, TreeContext};
pub use exact::{
    exact_mincut, exact_mincut_deadline_in, exact_mincut_in, exact_mincut_metered, mincut_small,
    mincut_small_in, ExactParams, ExactResult,
};
// The robustness vocabulary (shared with every crate through
// `pmc-fault`) re-exported where solver callers already look.
pub use pmc_fault::{Deadline, DegradeReason, FaultPlan, PmcError, SolveQuality};
pub use robust::exact_mincut_robust;
pub use interest::{Arms, InterestEngine, InterestSearch, InterestStrategy};
pub use packing::{greedy_tree_packing, PackingParams};
pub use two_respect::{naive_two_respecting, two_respecting_mincut, TwoRespectParams};
