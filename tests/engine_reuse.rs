//! Engine-reuse contract: solving through reused two-level contexts
//! ([`GraphContext`] / [`TreeContext`]) returns bit-identical
//! `CutResult`s to the one-shot free functions — across seeds,
//! workloads (including the fishbone adversary), repeated solves on one
//! context, and forced 1- vs 4-thread pools.
//!
//! This is the guarantee that makes the engine safe to put behind a
//! serving layer: context reuse is an optimization, never a behavioral
//! change.

use parallel_mincut::prelude::*;
use pmc_tree::RootedTree;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn with_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(op)
}

/// The workload matrix of the suite: structured graphs, random graphs
/// over several seeds, and the fishbone adversary.
fn workloads() -> Vec<(String, Graph)> {
    let mut out = vec![
        ("dumbbell".to_string(), generators::dumbbell(8, 10, 3)),
        ("ring_of_cliques".to_string(), generators::ring_of_cliques(4, 5, 6, 2)),
        ("grid".to_string(), generators::grid(5, 6, 4)),
        ("cycle".to_string(), generators::cycle(24, 7)),
    ];
    for seed in [901u64, 902, 903] {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 14 + (seed % 3) as usize * 4;
        out.push((format!("gnm seed {seed}"), generators::gnm_connected(n, 3 * n, 9, &mut rng)));
    }
    let (fish, _, _) = generators::fishbone(5, 8);
    out.push(("fishbone".to_string(), fish));
    out
}

/// One-shot vs reused-context exact solves must be bit-identical
/// (value, side, and stats-bearing value), including on the second and
/// third solve from the same context.
#[test]
fn exact_reuse_is_bit_identical_across_workloads() {
    let m = Meter::disabled();
    for (name, g) in workloads() {
        let params = ExactParams::default();
        let one_shot = exact_mincut(&g, &params);
        let ctx = GraphContext::build(&g, &m);
        let first = exact_mincut_in(&ctx, &params, &m);
        let second = exact_mincut_in(&ctx, &params, &m);
        assert_eq!(first.cut, one_shot.cut, "{name}: ctx vs one-shot");
        assert_eq!(first.cut, second.cut, "{name}: first vs second solve on one ctx");
        assert_eq!(first.stats.num_trees, second.stats.num_trees, "{name}: stats drift");
    }
}

/// The same contract under forced 1- and 4-thread pools: every
/// combination (one-shot / reused, 1 / 4 threads) returns the same cut.
#[test]
fn exact_reuse_invariant_across_thread_counts() {
    for (name, g) in workloads() {
        let params = ExactParams::default();
        let reference = exact_mincut(&g, &params).cut;
        for threads in [1usize, 4] {
            let (one_shot, reused_a, reused_b) = with_pool(threads, || {
                let m = Meter::enabled();
                let ctx = GraphContext::build(&g, &m);
                (
                    exact_mincut(&g, &params).cut,
                    exact_mincut_in(&ctx, &params, &m).cut,
                    exact_mincut_in(&ctx, &params, &m).cut,
                )
            });
            assert_eq!(one_shot, reference, "{name}: one-shot at {threads} threads");
            assert_eq!(reused_a, reference, "{name}: reused ctx at {threads} threads");
            assert_eq!(reused_b, reference, "{name}: repeat solve at {threads} threads");
        }
    }
}

/// TreeContext reuse for the 2-respecting solver: one-shot free
/// function vs prebuilt context vs repeated solves, across thread
/// counts, on a fixed spanning tree.
#[test]
fn tree_context_reuse_matches_free_function() {
    let m = Meter::disabled();
    for (name, g) in workloads() {
        let forest = parallel_mincut::parallel::spanning_forest::spanning_forest(&g, &m);
        let edges: Vec<(u32, u32)> =
            forest.iter().map(|&i| (g.edge(i as usize).u, g.edge(i as usize).v)).collect();
        let tree = Arc::new(RootedTree::from_edge_list(g.n(), &edges, 0));
        let params = TwoRespectParams::default();
        let reference = two_respecting_mincut(&g, &tree, &params, &m);
        for threads in [1usize, 4] {
            let (a, b) = with_pool(threads, || {
                let ctx = TreeContext::build(&g, Arc::clone(&tree), &params, &m);
                (ctx.solve(&m), ctx.solve(&m))
            });
            assert_eq!(a.cut, reference.cut, "{name}: ctx solve at {threads} threads");
            assert_eq!(a.pair, b.pair, "{name}: repeated solves disagree on the witness");
            assert_eq!(a.cut, b.cut, "{name}: repeated solves disagree");
        }
    }
}

/// mincut_small through an attached context: identical to the free
/// function, including on hierarchy-style repeated calls.
#[test]
fn mincut_small_reuse_matches() {
    let m = Meter::disabled();
    let mut rng = StdRng::seed_from_u64(907);
    for trial in 0..4 {
        let g = generators::gnm_connected(15, 45, 6, &mut rng);
        let tr = TwoRespectParams::default();
        let pk = pmc_mincut::PackingParams::default();
        let free = mincut_small(&g, &tr, &pk, &m);
        let ctx = GraphContext::attach(&g, &m);
        let a = mincut_small_in(&ctx, &tr, &pk, &m);
        let b = mincut_small_in(&ctx, &tr, &pk, &m);
        assert_eq!(a, free, "trial {trial}");
        assert_eq!(a, b, "trial {trial} reuse");
    }
}

/// The deterministic symmetric join: the 2-respecting witness pair (not
/// just the value) and the metered cut-query, interest-query and Monge
/// entry counts are identical across thread counts and repeated runs —
/// the property the old HashMap-ordered join could not give.
///
/// The n = 26 graphs keep every join below the rayon shim's 4,096-element
/// sequential sort cutoff; the n = 2000 graph's largest join has 5,326
/// tuples, so at 2 and 4 threads the join sort also runs the parallel
/// merge.
#[test]
fn cross_path_witness_deterministic_across_thread_counts() {
    let counted = [CostKind::CutQuery, CostKind::InterestQuery, CostKind::MongeEntry];
    for (seed, n, extra) in [(911u64, 26, 80), (912, 26, 80), (913, 26, 80), (915, 2000, 6000)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnm_connected(n, extra, 8, &mut rng);
        let forest =
            parallel_mincut::parallel::spanning_forest::spanning_forest(&g, &Meter::disabled());
        let edges: Vec<(u32, u32)> =
            forest.iter().map(|&i| (g.edge(i as usize).u, g.edge(i as usize).v)).collect();
        let tree = Arc::new(RootedTree::from_edge_list(g.n(), &edges, 0));
        let params = TwoRespectParams::default();
        let metered_solve = |threads: usize| {
            let m = Meter::enabled();
            let out = with_pool(threads, || two_respecting_mincut(&g, &tree, &params, &m));
            (out, counted.map(|kind| m.get(kind)))
        };
        let (reference, reference_counts) = metered_solve(1);
        for threads in [1usize, 2, 4] {
            for _rep in 0..2 {
                let (out, counts) = metered_solve(threads);
                assert_eq!(out.cut, reference.cut, "seed {seed} threads {threads}");
                assert_eq!(
                    out.pair, reference.pair,
                    "seed {seed} threads {threads}: witness pair must be deterministic"
                );
                assert_eq!(
                    counts, reference_counts,
                    "seed {seed} threads {threads}: CutQuery/InterestQuery/MongeEntry counts"
                );
            }
        }
    }
}

/// Degenerate inputs through the shared trivial-cut accessor: the
/// engine and the one-shot wrappers agree.
#[test]
fn trivial_inputs_agree() {
    let m = Meter::disabled();
    let params = ExactParams::default();
    let g1 = Graph::from_edges(1, []);
    let g3 = Graph::from_edges(4, [(0, 1, 2), (2, 3, 2)]);
    for g in [&g1, &g3] {
        let ctx = GraphContext::build(g, &m);
        assert_eq!(exact_mincut_in(&ctx, &params, &m).cut, exact_mincut(g, &params).cut);
        assert_eq!(
            mincut_small_in(
                &ctx,
                &TwoRespectParams::default(),
                &pmc_mincut::PackingParams::default(),
                &m
            ),
            mincut_small(g, &TwoRespectParams::default(), &pmc_mincut::PackingParams::default(), &m)
        );
    }
}
