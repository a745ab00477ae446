//! A downstream-user scenario: graph partitioning by repeated minimum
//! cuts. Splits a noisy two-community network at its sparsest point and
//! measures how well the planted structure is recovered, checking the
//! parallel pipeline's cut and time against the Stoer–Wagner oracle.
//!
//! ```sh
//! cargo run --release --example community_split
//! ```

use parallel_mincut::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn recovery_score(side: &[u32], n: usize, half: usize) -> f64 {
    // Fraction of vertices classified consistently with the planted
    // halves (up to side swap).
    let mut in_side = vec![false; n];
    for &v in side {
        in_side[v as usize] = true;
    }
    let agree = (0..n).filter(|&v| in_side[v] == (v < half)).count();
    let score = agree as f64 / n as f64;
    score.max(1.0 - score)
}

fn main() {
    let n = 120;
    let mut rng = StdRng::seed_from_u64(31);
    let g = generators::planted_bisection(n, 900, 4, 12, 1, &mut rng);
    println!("two planted communities of {} vertices, 4 unit bridges", n / 2);
    println!("n = {}, m = {}, total weight = {}\n", g.n(), g.m(), g.total_weight());

    // Parallel pipeline.
    let t0 = std::time::Instant::now();
    let exact = exact_mincut(&g, &ExactParams::default());
    let t_exact = t0.elapsed();
    let score = recovery_score(&exact.cut.side, g.n(), n / 2);
    println!("parallel pipeline : cut = {}, recovery = {:.1}%, {:?}", exact.cut.value, score * 100.0, t_exact);

    // Oracle.
    let t0 = std::time::Instant::now();
    let sw = stoer_wagner_mincut(&g);
    let t_sw = t0.elapsed();
    let sw_score = recovery_score(&sw.side, g.n(), n / 2);
    println!("stoer–wagner      : cut = {}, recovery = {:.1}%, {:?}", sw.value, sw_score * 100.0, t_sw);

    assert_eq!(exact.cut.value, sw.value, "pipeline must be exact");
    assert_eq!(exact.cut.value, 4, "the four planted bridges");
    assert!(score > 0.99, "perfect community recovery expected");
    println!("\ncommunities recovered exactly; the cut is the planted bridge set.");

    // Split recursively once more to show library composition: cut each
    // side's induced subgraph.
    let mut in_side = vec![false; g.n()];
    for &v in &exact.cut.side {
        in_side[v as usize] = true;
    }
    for (label, keep) in [("A", true), ("B", false)] {
        let ids: Vec<u32> = (0..g.n() as u32).filter(|&v| in_side[v as usize] == keep).collect();
        let index_of: std::collections::HashMap<u32, u32> =
            ids.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect();
        let sub_edges: Vec<(u32, u32, u64)> = g
            .edges()
            .iter()
            .filter(|e| in_side[e.u as usize] == keep && in_side[e.v as usize] == keep)
            .map(|e| (index_of[&e.u], index_of[&e.v], e.w))
            .collect();
        let sub = Graph::from_edges(ids.len(), sub_edges);
        let cut = exact_mincut(&sub, &ExactParams::default());
        println!("community {label}: n = {}, internal min-cut = {}", sub.n(), cut.cut.value);
    }
}
