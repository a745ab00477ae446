//! Differential tests for the pluggable interest-search strategies.
//!
//! The arm endpoints of `Π(e)` are uniquely determined (the deepest
//! vertex of each arm), so heavy-path descent and centroid descent must
//! agree *exactly* — with each other, and with the brute-force
//! interesting set — on every tree edge of every workload. On top of
//! the structural agreement, the full pipeline must match Stoer–Wagner
//! under both strategies: swapping the default descent can never change
//! an answer, only the query count.

use parallel_mincut::prelude::*;
use pmc_mincut::{CutQuery, InterestEngine, InterestSearch};
use pmc_tree::RootedTree;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BOTH: [InterestStrategy; 2] = [InterestStrategy::HeavyPath, InterestStrategy::Centroid];

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

/// For every tree edge: heavy-path `arms()`, centroid `arms()`, and the
/// brute-force interesting set must tell one consistent story.
#[test]
fn arms_agree_with_each_other_and_with_brute_force() {
    for (name, g) in workloads() {
        let t = spanning_tree(&g, 0);
        let lca = LcaEngine::build(&t, LcaStrategy::default(), &Meter::disabled());
        let q = CutQuery::build(&g, &t, &lca, 0.4, &Meter::disabled());
        let m = Meter::disabled();
        let heavy_engine = InterestEngine::build(&t, InterestStrategy::HeavyPath, &m);
        let heavy = InterestSearch::new(&q, &lca, &heavy_engine);
        let centroid_engine = InterestEngine::build(&t, InterestStrategy::Centroid, &m);
        let centroid = InterestSearch::new(&q, &lca, &centroid_engine);
        for e in (0..g.n() as u32).filter(|&v| v != t.root()) {
            let ah = heavy.arms(e, &m);
            let ac = centroid.arms(e, &m);
            assert_eq!(ah, ac, "{name}: strategies disagree at e={e}");
            // Brute-force agreement: the arm endpoints are exactly the
            // deepest interesting edges of each region (or e itself).
            let set = heavy.brute_interesting_set(e, &m);
            let deepest = |pred: &dyn Fn(u32) -> bool| -> Option<u32> {
                set.iter().copied().filter(|&f| pred(f)).max_by_key(|&f| t.depth(f))
            };
            let de = deepest(&|f| f != e && t.is_ancestor(e, f)).unwrap_or(e);
            let ce = deepest(&|f| !t.is_ancestor(e, f) && !t.is_ancestor(f, e)).unwrap_or(e);
            assert_eq!(ah.de, de, "{name}: de not the deepest interesting descendant, e={e}");
            assert_eq!(ah.ce, ce, "{name}: ce not the deepest incomparable edge, e={e}");
            // And every interesting edge lies on a root-path of an arm
            // endpoint (the guarantee the tuple generation consumes).
            for &f in &set {
                let covered = t.is_ancestor(f, ah.de) || t.is_ancestor(f, ah.ce);
                assert!(covered, "{name}: interesting edge {f} outside both arms of e={e}");
            }
        }
    }
}

/// `exact_mincut` equals Stoer–Wagner under both strategies on every
/// differential workload.
#[test]
fn exact_pipeline_matches_stoer_wagner_under_both_strategies() {
    for (name, g) in workloads() {
        let expect = stoer_wagner_mincut(&g).value;
        for strategy in BOTH {
            let params = ExactParams {
                interest_strategy: strategy,
                seed: 0xABCD,
                ..ExactParams::default()
            };
            let got = exact_mincut(&g, &params);
            assert_eq!(
                got.cut.value, expect,
                "{name}: exact_mincut under {strategy:?} disagrees with Stoer–Wagner"
            );
            // The reported side must realize the reported value.
            let mut side = vec![false; g.n()];
            for &v in &got.cut.side {
                side[v as usize] = true;
            }
            assert_eq!(cut_of_partition(&g, &side), got.cut.value, "{name} {strategy:?} side");
        }
    }
}

/// The O(1)-query substrate acceptance check: every `LcaStrategy`
/// returns bit-identical cut values AND witness pairs, under forced
/// 1/2/4-thread pools. LCAs are unique and SMAWK pins the leftmost
/// argmin, so swapping the substrate (or the pool width) must not move
/// a single bit of output.
#[test]
fn substrate_strategies_are_bit_identical_across_pools() {
    let mut rng = StdRng::seed_from_u64(0x5AB5);
    for trial in 0..4u32 {
        let n = 24 + 8 * trial as usize;
        let g = pmc_graph::generators::gnm_connected(n, 3 * n, 5, &mut rng);
        let t = spanning_tree(&g, 0);
        let m = Meter::disabled();
        let mut reference: Option<(u64, (u32, u32))> = None;
        for lca_strategy in [LcaStrategy::Lifting, LcaStrategy::SparseTable] {
            for threads in [1usize, 2, 4] {
                let pool =
                    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
                let out = pool.install(|| {
                    let params = TwoRespectParams { lca_strategy, ..TwoRespectParams::default() };
                    two_respecting_mincut(&g, &t, &params, &m)
                });
                let label = format!("trial {trial} {lca_strategy:?} @ {threads} threads");
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
}

/// The naive 2-respecting oracle agrees with the filtered solver under
/// both strategies on randomized trees (different roots shift which
/// configurations the arms hit).
#[test]
fn two_respecting_matches_oracle_under_both_strategies() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for trial in 0..6u32 {
        let n = 18 + 4 * trial as usize;
        let g = pmc_graph::generators::gnm_connected(n, 4 * n, 3, &mut rng);
        let t = spanning_tree(&g, trial % n as u32);
        let m = Meter::disabled();
        let reference = naive_two_respecting(&g, &t, 0.4, &m).cut.value;
        for strategy in BOTH {
            let params =
                TwoRespectParams { interest_strategy: strategy, ..TwoRespectParams::default() };
            let out = two_respecting_mincut(&g, &t, &params, &m);
            assert_eq!(out.cut.value, reference, "trial {trial} {strategy:?}");
        }
    }
}
