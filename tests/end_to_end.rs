//! Cross-crate integration tests: the full pipeline against the
//! sequential oracles over a matrix of workloads and seeds.

use parallel_mincut::prelude::*;
use pmc_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_realizes(g: &Graph, cut: &CutResult, label: &str) {
    let mut side = vec![false; g.n()];
    for &v in &cut.side {
        side[v as usize] = true;
    }
    assert_eq!(cut_of_partition(g, &side), cut.value, "{label}: side/value mismatch");
    assert!(!cut.side.is_empty() && cut.side.len() < g.n(), "{label}: degenerate side");
}

#[test]
fn exact_matches_stoer_wagner_generator_matrix() {
    let mut rng = StdRng::seed_from_u64(9001);
    let mut graphs: Vec<(String, Graph)> = Vec::new();
    for seed in 0..4u64 {
        graphs.push((
            format!("gnm-{seed}"),
            generators::gnm_connected(14 + seed as usize * 5, 50, 9, &mut rng),
        ));
        graphs.push((
            format!("planted-{seed}"),
            generators::planted_bisection(16, 40, 2 + seed as usize, 8, 1, &mut rng),
        ));
        graphs.push((
            format!("multi-{seed}"),
            generators::gnm_multi(12, 50, 6, &mut rng),
        ));
    }
    graphs.push(("dumbbell".into(), generators::dumbbell(7, 9, 4)));
    graphs.push(("ring".into(), generators::ring_of_cliques(5, 4, 7, 2)));
    graphs.push(("grid".into(), generators::grid(4, 7, 3)));
    graphs.push(("hypercube".into(), generators::hypercube(4, 5)));
    graphs.push(("wheel-ish".into(), generators::star(15, 4)));

    for (label, g) in graphs {
        if !g.is_connected() {
            continue;
        }
        let expect = stoer_wagner_mincut(&g).value;
        let got = exact_mincut(&g, &ExactParams::default());
        assert_eq!(got.cut.value, expect, "{label}");
        assert_realizes(&g, &got.cut, &label);
    }
}

#[test]
fn exact_is_deterministic_per_seed() {
    let mut rng = StdRng::seed_from_u64(9002);
    let g = generators::gnm_connected(30, 100, 20, &mut rng);
    let p1 = ExactParams { seed: 5, ..ExactParams::default() };
    let a = exact_mincut(&g, &p1);
    let b = exact_mincut(&g, &p1);
    assert_eq!(a.cut.value, b.cut.value);
    assert_eq!(a.cut.side, b.cut.side);
    assert_eq!(a.stats.skeleton_edges, b.stats.skeleton_edges);
}

#[test]
fn exact_robust_across_pipeline_seeds() {
    // The answer must not depend on the sampling seed (w.h.p. machinery,
    // checked across ten seeds).
    let mut rng = StdRng::seed_from_u64(9003);
    let g = generators::gnm_connected(24, 90, 50, &mut rng);
    let expect = stoer_wagner_mincut(&g).value;
    for seed in 0..10 {
        let params = ExactParams { seed, ..ExactParams::default() };
        assert_eq!(exact_mincut(&g, &params).cut.value, expect, "seed {seed}");
    }
}

#[test]
fn pipeline_agrees_with_stoer_wagner() {
    let mut rng = StdRng::seed_from_u64(9004);
    for trial in 0..5 {
        let g = generators::gnm_connected(18, 60, 7, &mut rng);
        let sw = stoer_wagner_mincut(&g).value;
        let ex = exact_mincut(&g, &ExactParams::default()).cut.value;
        assert_eq!(sw, ex, "trial {trial} pipeline");
    }
}

#[test]
fn approx_constant_factor_on_heavy_graphs() {
    let mut rng = StdRng::seed_from_u64(9005);
    for trial in 0..3 {
        let g = generators::heavy_cycle_with_chords(12, 18, 2500, 60, &mut rng);
        let expect = stoer_wagner_mincut(&g).value as f64;
        let a = approx_mincut(&g, &ApproxParams::default(), &Meter::disabled());
        let ratio = a.lambda as f64 / expect;
        assert!((0.4..=2.5).contains(&ratio), "trial {trial}: ratio {ratio}");
    }
}

#[test]
fn approx_exact_below_window() {
    let g = generators::dumbbell(9, 6, 4);
    let a = approx_mincut(&g, &ApproxParams::default(), &Meter::disabled());
    assert!(a.below_window);
    assert_eq!(a.lambda, 4);
}

#[test]
fn eps_refinement_brackets_truth() {
    let g = generators::dumbbell(10, 1500, 4000);
    let refined =
        approx_mincut_eps(&g, 0.25, &ApproxParams::default(), 3, &Meter::disabled());
    let expect = 4000f64;
    assert!(
        (refined as f64) >= expect * 0.55 && (refined as f64) <= expect * 1.45,
        "refined {refined}"
    );
}

#[test]
fn two_respect_agrees_with_naive_on_packed_trees() {
    // Cross-module: trees produced by the real packing, solved by both
    // solvers.
    use pmc_mincut::{greedy_tree_packing, PackingParams};
    use pmc_tree::RootedTree;
    let mut rng = StdRng::seed_from_u64(9006);
    let g = generators::gnm_connected(20, 70, 6, &mut rng);
    let trees =
        greedy_tree_packing(&g.coalesced(), &PackingParams::default(), &Meter::disabled());
    assert!(!trees.is_empty());
    for (i, edges) in trees.iter().enumerate().take(6) {
        let tree = RootedTree::from_edge_list(g.n(), edges, 0);
        let fast = two_respecting_mincut(&g, &tree, &TwoRespectParams::default(), &Meter::disabled());
        let naive = naive_two_respecting(&g, &tree, 0.3, &Meter::disabled());
        assert_eq!(fast.cut.value, naive.cut.value, "packed tree {i}");
    }
}

#[test]
fn work_separation_filtered_vs_naive() {
    // The headline ablation as an invariant: on a non-sparse graph the
    // filtered solver issues asymptotically fewer cut queries.
    use pmc_parallel::CostKind;
    use pmc_tree::RootedTree;
    let mut rng = StdRng::seed_from_u64(9007);
    let g = generators::non_sparse(400, 0.5, 8, &mut rng);
    let forest = pmc_parallel::spanning_forest::spanning_forest(&g, &Meter::disabled());
    let edges: Vec<(u32, u32)> =
        forest.iter().map(|&i| (g.edge(i as usize).u, g.edge(i as usize).v)).collect();
    let tree = RootedTree::from_edge_list(g.n(), &edges, 0);

    let m1 = Meter::enabled();
    let fast = two_respecting_mincut(&g, &tree, &TwoRespectParams::default(), &m1);
    let m2 = Meter::enabled();
    let naive = naive_two_respecting(&g, &tree, 0.25, &m2);
    assert_eq!(fast.cut.value, naive.cut.value);
    let fast_q = m1.report().work_of(CostKind::CutQuery);
    let naive_q = m2.report().work_of(CostKind::CutQuery);
    assert!(
        fast_q * 2 < naive_q,
        "filtered solver should need far fewer queries: {fast_q} vs {naive_q}"
    );
}

#[test]
fn meters_populate_work_and_depth() {
    let mut rng = StdRng::seed_from_u64(9008);
    let g = generators::gnm_connected(40, 160, 12, &mut rng);
    let meter = Meter::enabled();
    let r = pmc_mincut::exact::exact_mincut_metered(&g, &ExactParams::default(), &meter);
    assert!(r.cut.value > 0);
    let rep = meter.report();
    assert!(rep.total_work() > 0);
    assert!(rep.work_of(pmc_parallel::CostKind::CutQuery) > 0);
    assert!(rep.depth.contains_key("packing:iterations"));
    assert!(rep.depth.contains_key("cutquery:range_height"));
    assert!(rep.total_depth() > 0);
    assert!(!rep.render().is_empty());
}

#[test]
fn io_round_trip_preserves_mincut() {
    let mut rng = StdRng::seed_from_u64(9009);
    let g = generators::gnm_connected(16, 50, 9, &mut rng);
    let text = pmc_graph::io::write_graph(&g);
    let g2 = pmc_graph::io::parse_graph(&text).unwrap();
    assert_eq!(
        exact_mincut(&g, &ExactParams::default()).cut.value,
        exact_mincut(&g2, &ExactParams::default()).cut.value
    );
}
