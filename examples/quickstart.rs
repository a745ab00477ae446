//! Quickstart: build a weighted graph, compute its minimum cut with the
//! parallel pipeline, and cross-check against the sequential oracle.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use parallel_mincut::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A graph with a planted minimum cut: two dense communities of 50
    // vertices joined by three light bridges.
    let mut rng = StdRng::seed_from_u64(7);
    let g = generators::planted_bisection(
        100,  // vertices
        600,  // random internal edges per side
        3,    // bridge edges
        20,   // max internal weight
        2,    // bridge weight
        &mut rng,
    );
    println!("graph: n = {}, m = {}, total weight = {}", g.n(), g.m(), g.total_weight());

    // The parallel pipeline (Theorem 4.1): approximate, sparsify, pack
    // trees, then find the best 2-respecting cut per tree. The
    // approximation lambda~ <= lambda comes from Matula's (2+eps) bracket.
    let result = exact_mincut(&g, &ExactParams::default());
    println!("parallel min-cut value : {}", result.cut.value);
    println!("cut side (|S| = {}): {:?} ...", result.cut.side.len(), &result.cut.side[..8.min(result.cut.side.len())]);
    println!(
        "pipeline stats: lambda~ = {}, skeleton p = {:.4}, skeleton m = {}, packed trees = {}",
        result.stats.lambda_estimate,
        result.stats.skeleton_p,
        result.stats.skeleton_edges,
        result.stats.num_trees
    );

    // Verify the reported side realizes the value and matches the oracle.
    let mut side = vec![false; g.n()];
    for &v in &result.cut.side {
        side[v as usize] = true;
    }
    assert_eq!(cut_of_partition(&g, &side), result.cut.value, "side must realize the value");
    let oracle = stoer_wagner_mincut(&g);
    assert_eq!(result.cut.value, oracle.value, "must match Stoer–Wagner");
    println!("verified against Stoer–Wagner: {}", oracle.value);

    // The planted bridges are the minimum cut.
    assert_eq!(result.cut.value, 6, "3 bridges x weight 2");
    println!("planted cut recovered.");
}
