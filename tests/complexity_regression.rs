//! Metered complexity regression: DESIGN.md §2's asymptotic claim as
//! an executable check.
//!
//! On the fishbone workload (`pmc_graph::generators::fishbone`) every
//! spine edge's interesting path spans the whole spine, and each spine
//! step is a light edge heading a fresh heavy chain. A heavy-path
//! descent would pay a chain binary search per level — `Θ(log² n)` cut
//! queries per edge — while centroid descent (Claim 4.13) re-anchors
//! with `O(1)` queries per centroid level, `O(log n)` per edge. The
//! assertions below pin:
//!
//! 1. an absolute ratio bound `max queries ≤ 3.5 · log₂ n` (measured
//!    slope ≈ 2.5, margin documented);
//! 2. *additive* growth per doubling (a `log² n` curve grows by
//!    `Θ(log n)` per doubling, which the bound excludes at these
//!    sizes).
//!
//! Counts are deterministic (the workload and the descent are), so
//! this runs as a regular test; CI also runs it under `--release`
//! where the larger sizes are cheap.

use parallel_mincut::prelude::*;
use pmc_mincut::{CutQuery, InterestEngine, InterestSearch};
use pmc_tree::RootedTree;

/// Per-spine-edge cut-query statistics of `arms()`.
fn arm_query_stats(levels: usize, strategy: InterestStrategy) -> (u64, f64) {
    let (g, parent, spine) = pmc_graph::generators::fishbone(levels, 8);
    let tree = std::sync::Arc::new(RootedTree::from_parents(0, &parent));
    let lca = LcaEngine::build(&tree, LcaStrategy::default(), &Meter::disabled());
    let q = CutQuery::build(&g, &tree, &lca, 0.5, &Meter::disabled());
    let engine = InterestEngine::build(&tree, strategy, &Meter::disabled());
    let is = InterestSearch::new(&q, &lca, &engine);
    let (mut max, mut total) = (0u64, 0u64);
    for &e in &spine[1..] {
        let meter = Meter::enabled();
        is.arms(e, &meter);
        let c = meter.get(CostKind::CutQuery);
        max = max.max(c);
        total += c;
    }
    (max, total as f64 / spine[1..].len() as f64)
}

const LEVELS: [usize; 6] = [6, 7, 8, 9, 10, 11];

fn n_of(levels: usize) -> f64 {
    (3 * (1usize << levels) - 2) as f64
}

#[test]
fn centroid_descent_is_logarithmic() {
    let mut prev_max = None;
    for levels in LEVELS {
        let (max, avg) = arm_query_stats(levels, InterestStrategy::Centroid);
        let lg = n_of(levels).log2();
        // (1) Ratio bound vs log n.
        assert!(
            (max as f64) <= 3.5 * lg,
            "levels={levels}: centroid max {max} exceeds 3.5·log₂n = {:.1}",
            3.5 * lg
        );
        assert!(avg <= max as f64);
        // (2) Additive growth per doubling: an O(log n) curve gains a
        // constant per level; a log² curve's increments grow with n and
        // already exceed this bound at these sizes (a heavy-path descent
        // gains ~levels per doubling here).
        if let Some(p) = prev_max {
            assert!(
                max.saturating_sub(p) <= 6,
                "levels={levels}: centroid increment {} not additive-constant",
                max - p
            );
        }
        prev_max = Some(max);
    }
}
