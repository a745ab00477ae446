//! Graph sparsification (§2.4 and §3 of the paper).
//!
//! * [`binomial`](mod@binomial): binomial random variates with the cost
//!   profile the paper needs — `O(min(np, cap) + 1)` expected work per
//!   sample via inverse-transform walking (\[KS88\], \[Fis79\]), with
//!   a normal approximation above the f64-underflow regime (documented
//!   substitution, see DESIGN.md);
//! * [`skeleton`](mod@skeleton): Karger skeletons (Theorem 2.4) with
//!   the weight cap of Observation 4.22;
//! * [`certificate`]: sparse k-connectivity certificates via repeated
//!   spanning forests (Theorem 2.6, Nagamochi–Ibaraki);
//! * [`hierarchy`]: the sampled/truncated/exclusive hierarchies of
//!   Definitions 3.3/3.9/3.16 (Algorithm 3.14) and the certificate
//!   hierarchy of Algorithm 3.17.

pub mod binomial;
pub mod certificate;
pub mod hierarchy;
pub mod skeleton;

pub use binomial::{binomial, binomial_capped};
pub use certificate::k_certificate;
pub use hierarchy::{CertificateHierarchy, ExclusiveHierarchy, HierarchyParams};
pub use skeleton::{skeleton, skeleton_cap, skeleton_probability};
