//! The paper-faithful constant presets and degenerate tree-shape stress
//! tests for the full pipeline.

use parallel_mincut::prelude::*;
use pmc_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn paper_preset_small_graphs_take_exact_path() {
    // With 500-log-n-scale constants, laptop-sized graphs sit far below
    // the hierarchy window; the approximation must detect this and be
    // exact via the layer-0 certificate.
    let g = generators::dumbbell(8, 10, 3);
    let params = ApproxParams::paper(1);
    let a = approx_mincut(&g, &params, &Meter::disabled());
    assert!(a.below_window);
    assert_eq!(a.lambda, 3);
}

#[test]
fn paper_preset_pipeline_is_exact() {
    let mut rng = StdRng::seed_from_u64(42);
    for trial in 0..4 {
        let g = generators::gnm_connected(18, 60, 9, &mut rng);
        let expect = stoer_wagner_mincut(&g).value;
        let params = ExactParams::paper(trial);
        assert_eq!(exact_mincut(&g, &params).cut.value, expect, "trial {trial}");
    }
}

#[test]
fn caterpillar_trees_stress() {
    // Caterpillar spanning trees (a long spine with legs) exercise the
    // heavy-path decomposition's worst-ish case: one long path plus many
    // singleton paths.
    use pmc_tree::RootedTree;
    let mut rng = StdRng::seed_from_u64(43);
    let spine = 30u32;
    let mut edges: Vec<(u32, u32)> = (1..spine).map(|i| (i - 1, i)).collect();
    let mut next = spine;
    for s in 0..spine {
        edges.push((s, next));
        next += 1;
    }
    let n = next as usize;
    let tree = RootedTree::from_edge_list(n, &edges, 0);
    // Graph = tree + random chords.
    let mut gb = pmc_graph::GraphBuilder::new(n);
    for &(u, v) in &edges {
        gb.add_edge(u, v, 3);
    }
    use rand::Rng;
    for _ in 0..120 {
        let u = rng.random_range(0..n as u32);
        let v = rng.random_range(0..n as u32);
        if u != v {
            gb.add_edge(u, v, rng.random_range(1..5));
        }
    }
    let g = gb.build();
    let naive = naive_two_respecting(&g, &tree, 0.4, &Meter::disabled());
    let fast = two_respecting_mincut(&g, &tree, &TwoRespectParams::default(), &Meter::disabled());
    assert_eq!(fast.cut.value, naive.cut.value);
}

#[test]
fn broom_tree_stress() {
    // A path ending in a star ("broom"): deep chain + one high-degree
    // vertex, the two extremes the children-interval binary search and
    // the heavy-chain binary search must handle together.
    use pmc_tree::RootedTree;
    let depth = 25u32;
    let leaves = 25u32;
    let mut edges: Vec<(u32, u32)> = (1..depth).map(|i| (i - 1, i)).collect();
    for l in 0..leaves {
        edges.push((depth - 1, depth + l));
    }
    let n = (depth + leaves) as usize;
    let tree = RootedTree::from_edge_list(n, &edges, 0);
    let mut gb = pmc_graph::GraphBuilder::new(n);
    for &(u, v) in &edges {
        gb.add_edge(u, v, 2);
    }
    let mut rng = StdRng::seed_from_u64(44);
    use rand::Rng;
    for _ in 0..150 {
        let u = rng.random_range(0..n as u32);
        let v = rng.random_range(0..n as u32);
        if u != v {
            gb.add_edge(u, v, rng.random_range(1..4));
        }
    }
    let g = gb.build();
    let naive = naive_two_respecting(&g, &tree, 0.4, &Meter::disabled());
    let fast = two_respecting_mincut(&g, &tree, &TwoRespectParams::default(), &Meter::disabled());
    assert_eq!(fast.cut.value, naive.cut.value);
}

#[test]
fn matula_band_against_pipeline() {
    // Matula's sequential (2+ε) approximation sits within its band of
    // the pipeline's exact value on every workload family.
    let mut rng = StdRng::seed_from_u64(45);
    let graphs = vec![
        generators::gnm_connected(20, 70, 9, &mut rng),
        generators::ring_of_cliques(4, 4, 6, 2),
        generators::grid(5, 5, 2),
    ];
    for (i, g) in graphs.into_iter().enumerate() {
        let exact = exact_mincut(&g, &ExactParams::default()).cut.value;
        let approx = matula_approx(&g, 0.25);
        assert!(approx >= exact, "graph {i}");
        assert!(approx as f64 <= 2.25 * exact as f64 + 1.0, "graph {i}");
    }
}
