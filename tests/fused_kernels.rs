//! Bit-identity of the batched query path (DESIGN.md §13):
//! `cut_batch_into` must return exactly the per-pair `cut` answers, and
//! the coverage array must not move, across 1/2/4-thread pools.

use parallel_mincut::prelude::*;
use pmc_bench::workloads::graph_with_tree;
use pmc_mincut::engine::TreeContext;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn with_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(op)
}

fn context_for<'g>(g: &'g Graph, tree_edges: &[(u32, u32)]) -> TreeContext<'g> {
    TreeContext::from_edges(g, tree_edges, 0, &TwoRespectParams::default(), &Meter::disabled())
}

/// Request mix of hot duplicates, `e == f` degenerates, and nested and
/// disjoint pairs.
fn request_mix(n: usize, rng: &mut StdRng) -> Vec<(u32, u32)> {
    let hot: Vec<(u32, u32)> = (0..40)
        .map(|_| (rng.random_range(1..n as u32), rng.random_range(1..n as u32)))
        .collect();
    let mut pairs: Vec<(u32, u32)> =
        (0..900).map(|_| hot[rng.random_range(0..hot.len())]).collect();
    pairs.extend((1..n as u32).step_by(7).map(|e| (e, e)));
    pairs
}

#[test]
fn fused_cut_batch_is_bit_identical_across_pools_and_strategies() {
    let mut rng = StdRng::seed_from_u64(501);
    let n = 220;
    let (g, tree_edges) = graph_with_tree(n, 0.5, 501);
    let pairs = request_mix(n, &mut rng);

    // Baseline: per-query probes, 1 thread.
    let m = Meter::disabled();
    let (expect_cut, expect_cov) = with_pool(1, || {
        let ctx = context_for(&g, &tree_edges);
        let q = ctx.cut_query();
        let cuts: Vec<u64> = pairs.iter().map(|&(e, f)| q.cut(e, f, &m)).collect();
        (cuts, q.cov_all().to_vec())
    });

    for threads in [1usize, 2, 4] {
        let (got_cut, got_cov, again) = with_pool(threads, || {
            let ctx = context_for(&g, &tree_edges);
            let mut out = Vec::new();
            ctx.cut_batch_into(&pairs, &mut out, &m);
            let first = out.clone();
            // Second round into the now warm buffer.
            ctx.cut_batch_into(&pairs, &mut out, &m);
            (first, ctx.cut_query().cov_all().to_vec(), out)
        });
        assert_eq!(got_cut, expect_cut, "{threads} threads");
        assert_eq!(got_cov, expect_cov, "{threads} threads");
        assert_eq!(again, expect_cut, "{threads} threads: warm round");
    }
}

/// 100 consecutive solves through one context return the identical
/// outcome — the serving-layer reuse contract.
#[test]
fn one_context_pool_serves_100_consecutive_solves() {
    let n = 90;
    let (g, tree_edges) = graph_with_tree(n, 0.5, 503);
    let ctx = context_for(&g, &tree_edges);
    let m = Meter::disabled();
    let first = ctx.solve(&m);
    for round in 0..99 {
        let again = ctx.solve(&m);
        assert_eq!(again.cut.value, first.cut.value, "round {round}");
        assert_eq!(again.pair, first.pair, "round {round}");
        assert_eq!(again.cut.side, first.cut.side, "round {round}");
    }
}
