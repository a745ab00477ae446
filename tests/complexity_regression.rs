//! Metered complexity regression: DESIGN.md §2's asymptotic claim as
//! an executable check.
//!
//! On the fishbone workload (`pmc_graph::generators::fishbone`) every
//! spine edge's interesting path spans the whole spine, and each spine
//! step is a light edge heading a fresh heavy chain. Heavy-path descent
//! therefore pays a chain binary search per level — `Θ(log² n)` cut
//! queries per edge — while centroid descent (Claim 4.13) re-anchors
//! with `O(1)` queries per centroid level, `O(log n)` per edge. The
//! assertions below pin:
//!
//! 1. an absolute ratio bound `max queries ≤ 3.5 · log₂ n` for the
//!    centroid strategy (measured slope ≈ 2.5, margin documented);
//! 2. *additive* growth per doubling for centroid descent (a `log² n`
//!    curve grows by `Θ(log n)` per doubling, which the bound excludes
//!    at these sizes — heavy-path's increments already exceed it);
//! 3. strict superiority over heavy-path at the largest size, with a
//!    1.5× margin (measured ≈ 2.4×).
//!
//! Counts are deterministic (the workload and both descents are), so
//! this runs as a regular test; CI also runs it under `--release`
//! where the larger sizes are cheap.

use parallel_mincut::prelude::*;
use pmc_mincut::{CutQuery, InterestEngine, InterestSearch};
use pmc_tree::RootedTree;

/// Per-spine-edge cut-query statistics of `arms()` for one strategy.
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
        // already exceed this bound at these sizes (heavy-path gains
        // ~levels per doubling here).
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

#[test]
fn heavy_path_descent_is_not_logarithmic_here() {
    // Guard the guard: the workload really does drive heavy-path into
    // its quadratic regime, so the comparison below means something.
    // The measured curve sits at ≈ 0.47·log²n; requiring ≥ 0.3·log²n
    // (and growth faster than any 3.5·log n at the top size) keeps the
    // test meaningful without over-pinning constants.
    let levels = *LEVELS.last().unwrap();
    let (max, _) = arm_query_stats(levels, InterestStrategy::HeavyPath);
    let lg = n_of(levels).log2();
    assert!(
        (max as f64) >= 0.3 * lg * lg,
        "heavy-path max {max} unexpectedly cheap (< 0.3·log²n = {:.1})",
        0.3 * lg * lg
    );
    assert!((max as f64) > 3.5 * lg, "heavy-path stayed within the centroid budget");
}

#[test]
fn centroid_descent_beats_heavy_path_at_scale() {
    let levels = *LEVELS.last().unwrap();
    let (heavy_max, heavy_avg) = arm_query_stats(levels, InterestStrategy::HeavyPath);
    let (centroid_max, centroid_avg) = arm_query_stats(levels, InterestStrategy::Centroid);
    assert!(
        (centroid_max as f64) * 1.5 <= heavy_max as f64,
        "centroid max {centroid_max} not clearly below heavy-path max {heavy_max}"
    );
    assert!(
        centroid_avg * 1.5 <= heavy_avg,
        "centroid avg {centroid_avg:.1} not clearly below heavy-path avg {heavy_avg:.1}"
    );
}
