//! Karger skeletons (Theorem 2.4) with capped weights (Observation 4.22).
//!
//! A skeleton of a weighted graph samples each unweighted copy of each
//! edge independently with probability `p`; the resulting weight of edge
//! `e` is `B(w(e), p)`. Observation 4.22 lets the sampler stop at a cap
//! of `O(log n / ε²)` because heavier skeleton edges can never cross the
//! skeleton's (small) minimum cut — this is what makes the whole phase
//! `O(m log n)` work instead of `O(W)`.
//!
//! Sampling is parallel over edges with per-edge deterministic RNG
//! streams, so results are reproducible regardless of thread schedule.

use crate::binomial::binomial_capped;
use pmc_graph::{Graph, GraphBuilder};
use pmc_parallel::meter::{CostKind, Meter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Theorem 2.4's sampling probability `p = c · ln n / (ε² λ̃)`, clamped
/// to `(0, 1]`. `lambda_hint` is the (under)estimate of the min-cut.
pub fn skeleton_probability(n: usize, eps: f64, lambda_hint: u64, c: f64) -> f64 {
    assert!(eps > 0.0 && lambda_hint > 0);
    let p = c * (n.max(2) as f64).ln() / (eps * eps * lambda_hint as f64);
    p.min(1.0)
}

/// Observation 4.22's skeleton weight cap, `8 · ⌈c · ln n / ε²⌉`: the
/// `cap` the solver passes to [`skeleton`].
pub fn skeleton_cap(n: usize, eps: f64, c: f64) -> u64 {
    (8.0 * (c * (n.max(2) as f64).ln() / (eps * eps)).ceil()) as u64
}

/// Build a skeleton: edge `e` receives weight `min(B(w(e), p), cap)`.
///
/// Pass `cap = u64::MAX` for the uncapped Theorem 2.4 skeleton; the
/// exact pipeline passes the Observation 4.22 cap. Zero-weight sampled
/// edges are dropped. Deterministic in `seed`.
pub fn skeleton(g: &Graph, p: f64, cap: u64, seed: u64, meter: &Meter) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    meter.add(CostKind::Sample, g.m() as u64);
    if p >= 1.0 {
        // Identity sampling; still apply the cap.
        let mut b = GraphBuilder::new(g.n());
        for e in g.edges() {
            b.add_edge(e.u, e.v, e.w.min(cap));
        }
        return b.build();
    }
    let sampled: Vec<(u32, u32, u64)> = g
        .edges()
        .par_iter()
        .enumerate()
        .map(|(i, e)| {
            // Independent deterministic stream per edge.
            let mut rng = StdRng::seed_from_u64(
                seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            (e.u, e.v, binomial_capped(e.w, p, cap, &mut rng))
        })
        .collect();
    let mut b = GraphBuilder::new(g.n());
    for (u, v, w) in sampled {
        b.add_edge(u, v, w);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_graph::generators;
    use pmc_graph::stoer_wagner_mincut;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probability_formula() {
        let p = skeleton_probability(1000, 1.0, 1000, 3.0);
        assert!((p - 3.0 * (1000f64).ln() / 1000.0).abs() < 1e-12);
        assert_eq!(skeleton_probability(1000, 1.0, 1, 100.0), 1.0);
    }

    #[test]
    fn cap_formula() {
        for (n, eps, c) in [(0, 1.0, 3.0), (1, 0.5, 3.0), (2, 1.0, 3.0), (150, 0.5, 3.0), (800, 0.2, 24.0)] {
            let scale = (c * (n.max(2) as f64).ln() / (eps * eps)).ceil();
            assert_eq!(skeleton_cap(n, eps, c), (8.0 * scale) as u64, "n={n} eps={eps} c={c}");
        }
        assert_eq!(skeleton_cap(150, 0.5, 3.0), 8 * 61);
    }

    #[test]
    fn deterministic_in_seed() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::gnm_connected(50, 200, 1000, &mut rng);
        let a = skeleton(&g, 0.01, u64::MAX, 42, &Meter::disabled());
        let b = skeleton(&g, 0.01, u64::MAX, 42, &Meter::disabled());
        let c = skeleton(&g, 0.01, u64::MAX, 43, &Meter::disabled());
        assert_eq!(a.edges(), b.edges());
        assert_ne!(a.total_weight(), c.total_weight());
    }

    #[test]
    fn identity_when_p_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::gnm_connected(20, 40, 9, &mut rng);
        let s = skeleton(&g, 1.0, u64::MAX, 7, &Meter::disabled());
        assert_eq!(s.total_weight(), g.total_weight());
        let capped = skeleton(&g, 1.0, 3, 7, &Meter::disabled());
        assert!(capped.edges().iter().all(|e| e.w <= 3));
    }

    #[test]
    fn expected_weight_scales_with_p() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::gnm_connected(30, 100, 10_000, &mut rng);
        let p = 0.01;
        let s = skeleton(&g, p, u64::MAX, 99, &Meter::disabled());
        let expect = g.total_weight() as f64 * p;
        let got = s.total_weight() as f64;
        assert!(
            (got / expect - 1.0).abs() < 0.1,
            "total {got} vs expected {expect}"
        );
    }

    #[test]
    fn cap_binds() {
        let g = Graph::from_edges(2, [(0, 1, 1_000_000)]);
        let s = skeleton(&g, 0.5, 10, 5, &Meter::disabled());
        assert_eq!(s.m(), 1);
        assert_eq!(s.edge(0).w, 10);
    }

    #[test]
    fn skeleton_min_cut_concentrates() {
        // Theorem 2.4 experimentally: sample a graph with known min-cut
        // lambda at p = c log n / lambda; skeleton min-cut close to p*lambda.
        // dumbbell(12, 2000, 10_000): bridge 10_000 < vertex isolation
        // 11 * 2000, so lambda = 10_000.
        let g = generators::dumbbell(12, 2000, 10_000);
        let lambda = 10_000u64;
        let p = skeleton_probability(g.n(), 1.0, lambda, 12.0);
        let expected = p * lambda as f64;
        let mut ok = 0;
        for seed in 0..5 {
            let s = skeleton(&g, p, u64::MAX, seed, &Meter::disabled());
            let cut = stoer_wagner_mincut(&s).value as f64;
            if (cut / expected - 1.0).abs() < 0.5 {
                ok += 1;
            }
        }
        assert!(ok >= 4, "skeleton min-cut concentrated in only {ok}/5 runs");
    }

    use pmc_graph::Graph;
}
