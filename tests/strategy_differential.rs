//! Differential tests for the interest search and the solver built on
//! it.
//!
//! The arm endpoints of `Π(e)` are uniquely determined (the deepest
//! vertex of each arm), so the centroid descent must agree *exactly*
//! with the brute-force endpoints ([`InterestSearch::brute_arms`]) on
//! every tree edge of every workload. On top of the structural
//! agreement, the full pipeline must match Stoer–Wagner, and the
//! 2-respecting solver the all-pairs oracle.

use parallel_mincut::prelude::*;
use pmc_mincut::{CutQuery, InterestEngine, InterestSearch};
use pmc_tree::RootedTree;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn spanning_tree(g: &Graph, root: u32) -> std::sync::Arc<RootedTree> {
    let forest = pmc_parallel::spanning_forest::spanning_forest(g, &Meter::disabled());
    let edges: Vec<(u32, u32)> =
        forest.iter().map(|&i| (g.edge(i as usize).u, g.edge(i as usize).v)).collect();
    std::sync::Arc::new(RootedTree::from_edge_list(g.n(), &edges, root))
}

/// The differential workloads the issue pins down: ring-of-cliques,
/// non-sparse random, near-uniform weights — plus the fishbone
/// adversary for good measure.
fn workloads() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    out.push(("ring_of_cliques".into(), pmc_graph::generators::ring_of_cliques(6, 5, 3, 2)));
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for n in [24usize, 40, 56] {
        // Non-sparse: m ≈ n^1.5, near-uniform weights in {1, 2, 3}.
        let m = ((n as f64).powf(1.5).ceil() as usize).saturating_sub(n - 1);
        out.push((
            format!("non_sparse_{n}"),
            pmc_graph::generators::gnm_connected(n, m, 3, &mut rng),
        ));
    }
    let (fish, _, _) = pmc_graph::generators::fishbone(5, 8);
    out.push(("fishbone".into(), fish));
    out
}

/// For every tree edge: the centroid descent's `arms()` and the
/// brute-force interesting set must tell one consistent story.
#[test]
fn arms_agree_with_each_other_and_with_brute_force() {
    for (name, g) in workloads() {
        let t = spanning_tree(&g, 0);
        let lca = LcaEngine::build(&t, LcaStrategy::default(), &Meter::disabled());
        let q = CutQuery::build(&g, &t, &lca, 0.4, &Meter::disabled());
        let m = Meter::disabled();
        let engine = InterestEngine::build(&t, InterestStrategy::default(), &m);
        let is = InterestSearch::new(&q, &lca, &engine);
        for e in (0..g.n() as u32).filter(|&v| v != t.root()) {
            let arms = is.arms(e, &m);
            // The arm endpoints are exactly the deepest interesting
            // descendant and the deepest interesting incomparable edge
            // (or e itself).
            assert_eq!(arms, is.brute_arms(e, &m), "{name}: arms differ from brute force, e={e}");
            // And every interesting edge lies on a root-path of an arm
            // endpoint (the guarantee the tuple generation consumes).
            for f in is.brute_interesting_set(e, &m) {
                let covered = t.is_ancestor(f, arms.de) || t.is_ancestor(f, arms.ce);
                assert!(covered, "{name}: interesting edge {f} outside both arms of e={e}");
            }
        }
    }
}

/// `exact_mincut` equals Stoer–Wagner on every differential workload.
#[test]
fn exact_pipeline_matches_stoer_wagner_under_both_strategies() {
    for (name, g) in workloads() {
        let expect = stoer_wagner_mincut(&g).value;
        let got = exact_mincut(&g, &ExactParams { seed: 0xABCD, ..ExactParams::default() });
        assert_eq!(got.cut.value, expect, "{name}: exact_mincut disagrees with Stoer–Wagner");
        // The reported side must realize the reported value.
        let mut side = vec![false; g.n()];
        for &v in &got.cut.side {
            side[v as usize] = true;
        }
        assert_eq!(cut_of_partition(&g, &side), got.cut.value, "{name} side");
    }
}

/// The solver returns bit-identical cut values AND witness pairs under
/// forced 1/2/4-thread pools. LCAs are unique and SMAWK pins the
/// leftmost argmin, so the pool width must not move a single bit of
/// output.
#[test]
fn substrate_strategies_are_bit_identical_across_pools() {
    let mut rng = StdRng::seed_from_u64(0x5AB5);
    for trial in 0..4u32 {
        let n = 24 + 8 * trial as usize;
        let g = pmc_graph::generators::gnm_connected(n, 3 * n, 5, &mut rng);
        let t = spanning_tree(&g, 0);
        let m = Meter::disabled();
        let mut reference: Option<(u64, (u32, u32))> = None;
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
            let out =
                pool.install(|| two_respecting_mincut(&g, &t, &TwoRespectParams::default(), &m));
            let label = format!("trial {trial} @ {threads} threads");
            match reference {
                None => reference = Some((out.cut.value, out.pair)),
                Some((v, pair)) => {
                    assert_eq!(out.cut.value, v, "{label}: cut value moved");
                    assert_eq!(out.pair, pair, "{label}: witness pair moved");
                }
            }
        }
    }
}

/// The naive 2-respecting oracle agrees with the filtered solver on
/// randomized trees (different roots shift which configurations the
/// arms hit).
#[test]
fn two_respecting_matches_oracle_under_both_strategies() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for trial in 0..6u32 {
        let n = 18 + 4 * trial as usize;
        let g = pmc_graph::generators::gnm_connected(n, 4 * n, 3, &mut rng);
        let t = spanning_tree(&g, trial % n as u32);
        let m = Meter::disabled();
        let reference = naive_two_respecting(&g, &t, 0.4, &m).cut.value;
        let out = two_respecting_mincut(&g, &t, &TwoRespectParams::default(), &m);
        assert_eq!(out.cut.value, reference, "trial {trial}");
    }
}
