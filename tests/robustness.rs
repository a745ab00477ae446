//! Failure injection and robustness: wrong hints, hostile parameters,
//! extreme weights, thread-count independence.

use parallel_mincut::prelude::*;
use pmc_graph::generators;
use pmc_mincut::PackingParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn wildly_overestimated_lambda_hint_recovers() {
    // A huge underestimate-turned-overestimate makes the skeleton far
    // too sparse (it disconnects); the pipeline must detect this and
    // re-densify rather than return garbage.
    let mut rng = StdRng::seed_from_u64(7001);
    let g = generators::gnm_connected(30, 90, 8, &mut rng);
    let expect = stoer_wagner_mincut(&g).value;
    for bad_hint in [10_000u64, 1_000_000, u64::MAX / 4] {
        let params = ExactParams { lambda_hint: Some(bad_hint), ..ExactParams::default() };
        let r = exact_mincut(&g, &params);
        assert_eq!(r.cut.value, expect, "hint {bad_hint}");
    }
}

#[test]
fn underestimated_lambda_hint_still_exact() {
    // A hint of 1 forces p = 1 (no sparsification): slow but exact.
    let mut rng = StdRng::seed_from_u64(7002);
    let g = generators::gnm_connected(20, 60, 50, &mut rng);
    let expect = stoer_wagner_mincut(&g).value;
    let params = ExactParams { lambda_hint: Some(1), ..ExactParams::default() };
    assert_eq!(exact_mincut(&g, &params).cut.value, expect);
}

#[test]
fn tiny_packing_budget_still_sound() {
    // Starved packing (2 iterations, 2 trees) may miss optimality but
    // must still return a genuine cut (never below the true minimum).
    let mut rng = StdRng::seed_from_u64(7003);
    let g = generators::gnm_connected(25, 80, 9, &mut rng);
    let expect = stoer_wagner_mincut(&g).value;
    let params = ExactParams {
        packing: PackingParams {
            iterations_factor: 0.0,
            min_iterations: 2,
            max_iterations: 2,
            trees_factor: 0.0,
            min_trees: 2,
        },
        ..ExactParams::default()
    };
    let got = exact_mincut(&g, &params).cut.value;
    assert!(got >= expect, "output {got} below true minimum {expect}");
    // And the side always realizes the reported value.
    let r = exact_mincut(&g, &params);
    let mut side = vec![false; g.n()];
    for &v in &r.cut.side {
        side[v as usize] = true;
    }
    assert_eq!(cut_of_partition(&g, &side), r.cut.value);
}

#[test]
fn extreme_weights_no_overflow() {
    // Weights near 2^40: cut arithmetic must stay in u64 without
    // overflow (total weight ~2^45).
    let w = 1u64 << 40;
    let g = Graph::from_edges(
        6,
        [
            (0, 1, w),
            (1, 2, w),
            (2, 0, w),
            (3, 4, w),
            (4, 5, w),
            (5, 3, w),
            (0, 3, 7),
        ],
    );
    let r = exact_mincut(&g, &ExactParams::default());
    assert_eq!(r.cut.value, 7);
}

/// A triangle of total weight 1.5·2^63 fits in `u64` but not in the
/// solver's weight domain: construction refuses it, naming the limit,
/// instead of a later `i64` coverage pass panicking mid-solve.
#[test]
#[should_panic(expected = "TOTAL_WEIGHT_LIMIT")]
fn graphs_at_the_weight_limit_are_refused_at_construction() {
    let w = 1u64 << 62;
    let _ = Graph::from_edges(3, [(0, 1, w), (1, 2, w), (0, 2, w)]);
}

/// A total weight of `TOTAL_WEIGHT_LIMIT - 1`, the largest accepted,
/// solves to Stoer–Wagner's value on a triangle and on a random graph.
#[test]
fn largest_accepted_total_weight_solves_exactly() {
    let top = pmc_graph::TOTAL_WEIGHT_LIMIT - 1;
    let triangle = Graph::from_edges(3, [(0, 1, 1 << 61), (1, 2, 1 << 60), (0, 2, (1 << 60) - 1)]);
    let mut rng = StdRng::seed_from_u64(7005);
    let small = generators::gnm_connected(14, 40, 9, &mut rng);
    let scale = top / small.total_weight();
    let mut edges: Vec<(u32, u32, u64)> =
        small.edges().iter().map(|e| (e.u, e.v, e.w * scale)).collect();
    edges[0].2 += top - scale * small.total_weight();
    let scaled = Graph::from_edges(14, edges);
    for g in [triangle, scaled] {
        assert_eq!(g.total_weight(), top);
        let expect = stoer_wagner_mincut(&g).value;
        assert_eq!(exact_mincut(&g, &ExactParams::default()).cut.value, expect);
    }
}

#[test]
fn weight_one_unweighted_graphs() {
    let mut rng = StdRng::seed_from_u64(7004);
    for _ in 0..5 {
        let g = generators::gnm_connected(22, 70, 1, &mut rng);
        let expect = stoer_wagner_mincut(&g).value;
        assert_eq!(exact_mincut(&g, &ExactParams::default()).cut.value, expect);
    }
}

#[test]
fn thread_count_does_not_change_answers() {
    let mut rng = StdRng::seed_from_u64(7005);
    let g = generators::gnm_connected(28, 90, 12, &mut rng);
    let run_with = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| exact_mincut(&g, &ExactParams::default()).cut.value)
    };
    let expect = stoer_wagner_mincut(&g).value;
    assert_eq!(run_with(1), expect);
    assert_eq!(run_with(2), expect);
    assert_eq!(run_with(4), expect);
}

#[test]
fn star_and_path_degenerate_trees() {
    // Extreme tree shapes through the full pipeline.
    let star = generators::star(40, 6);
    assert_eq!(exact_mincut(&star, &ExactParams::default()).cut.value, 6);
    let path = generators::path(60, 9);
    assert_eq!(exact_mincut(&path, &ExactParams::default()).cut.value, 9);
}

#[test]
fn two_bridges_in_series() {
    // Two bridges with different weights: the lighter one is the cut.
    let mut edges = Vec::new();
    // clique A: 0..5, clique B: 5..10, clique C: 10..15
    for base in [0u32, 5, 10] {
        for i in 0..5 {
            for j in i + 1..5 {
                edges.push((base + i, base + j, 20));
            }
        }
    }
    edges.push((0, 5, 4)); // bridge A-B
    edges.push((5, 10, 3)); // bridge B-C
    let g = Graph::from_edges(15, edges);
    let r = exact_mincut(&g, &ExactParams::default());
    assert_eq!(r.cut.value, 3);
}

#[test]
fn repeated_runs_are_stable_over_100_seeds() {
    // High-volume seed sweep on one small graph: the w.h.p. machinery
    // with practical constants must not flake.
    let mut rng = StdRng::seed_from_u64(7006);
    let g = generators::gnm_connected(14, 40, 6, &mut rng);
    let expect = stoer_wagner_mincut(&g).value;
    for seed in 0..100 {
        let params = ExactParams { seed, ..ExactParams::default() };
        assert_eq!(exact_mincut(&g, &params).cut.value, expect, "seed {seed}");
    }
}

#[test]
fn approx_on_disconnected_and_trivial() {
    let params = ApproxParams::default();
    let empty = Graph::from_edges(0, []);
    assert_eq!(approx_mincut(&empty, &params, &Meter::disabled()).lambda, u64::MAX);
    let single = Graph::from_edges(1, []);
    assert_eq!(approx_mincut(&single, &params, &Meter::disabled()).lambda, u64::MAX);
    let disc = Graph::from_edges(5, [(0, 1, 3), (2, 3, 3)]);
    assert_eq!(approx_mincut(&disc, &params, &Meter::disabled()).lambda, 0);
}

#[test]
fn dense_multigraph_with_many_parallels() {
    let mut rng = StdRng::seed_from_u64(7007);
    let g = generators::gnm_multi(10, 200, 5, &mut rng);
    if g.is_connected() {
        let expect = stoer_wagner_mincut(&g).value;
        assert_eq!(exact_mincut(&g, &ExactParams::default()).cut.value, expect);
    }
}
