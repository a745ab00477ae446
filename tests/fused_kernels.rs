//! Bit-identity of the batched query path (DESIGN.md §13): the grouped
//! `cut_batch` path, which probes each distinct pair once and scatters
//! its value to every requester, must return exactly the per-query
//! answers — across 1/2/4-thread pools, both [`LcaStrategy`]
//! substrates, and arbitrarily recycled scratch workspaces. Grouping
//! and reuse are optimizations, never behavioral inputs.

use parallel_mincut::prelude::*;
use pmc_bench::workloads::graph_with_tree;
use pmc_mincut::engine::TreeContext;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn with_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(op)
}

fn context_for<'g>(
    g: &'g Graph,
    tree_edges: &[(u32, u32)],
    strategy: LcaStrategy,
) -> TreeContext<'g> {
    let params = TwoRespectParams { lca_strategy: strategy, ..TwoRespectParams::default() };
    TreeContext::from_edges(g, tree_edges, 0, &params, &Meter::disabled())
}

/// Request mix exercising every grouping case: hot duplicates, `e == f`
/// degenerates, nested and disjoint pairs.
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
    let es: Vec<u32> = (0..500).map(|_| rng.random_range(1..n as u32)).collect();

    // Baseline: per-query probes, 1 thread, lifting LCA.
    let m = Meter::disabled();
    let (expect_cut, expect_cov) = with_pool(1, || {
        let ctx = context_for(&g, &tree_edges, LcaStrategy::Lifting);
        let cuts: Vec<u64> = pairs.iter().map(|&(e, f)| ctx.cut(e, f, &m)).collect();
        let covs: Vec<u64> = es.iter().map(|&e| ctx.cov(e)).collect();
        (cuts, covs)
    });

    for threads in [1usize, 2, 4] {
        for strategy in [LcaStrategy::Lifting, LcaStrategy::SparseTable] {
            let (got_cut, got_cov, again) = with_pool(threads, || {
                let ctx = context_for(&g, &tree_edges, strategy);
                let mut cut_out = Vec::new();
                let mut cov_out = Vec::new();
                ctx.cut_batch_into(&pairs, &mut cut_out, &m);
                ctx.cov_batch_into(&es, &mut cov_out);
                // Second round on this thread's (now warm) workspace.
                let mut second = Vec::new();
                ctx.cut_batch_into(&pairs, &mut second, &m);
                (cut_out, cov_out, second)
            });
            assert_eq!(got_cut, expect_cut, "{threads} threads / {strategy:?}");
            assert_eq!(got_cov, expect_cov, "{threads} threads / {strategy:?}");
            assert_eq!(again, expect_cut, "{threads} threads / {strategy:?}: warm round");
        }
    }
}

/// One recycled workspace serving 100 consecutive batches of varying
/// shapes returns exactly what a fresh workspace returns for each.
#[test]
fn one_scratch_serves_100_consecutive_batches() {
    let mut rng = StdRng::seed_from_u64(502);
    let n = 150;
    let (g, tree_edges) = graph_with_tree(n, 0.4, 502);
    let ctx = context_for(&g, &tree_edges, LcaStrategy::SparseTable);
    let q = ctx.cut_query();
    let m = Meter::disabled();

    let mut scratch = Scratch::default();
    let mut out = Vec::new();
    for round in 0..100usize {
        // Vary the batch size, with and without duplicates, so the
        // recycled workspace is regrown and reused at mixed shapes.
        let len = [3, 200, 70, 1, 500, 64, 63][round % 7];
        let pairs: Vec<(u32, u32)> = (0..len)
            .map(|_| (rng.random_range(1..n as u32), rng.random_range(1..n as u32)))
            .collect();
        q.cut_batch_with(&pairs, &mut scratch, &mut out, &m);
        let mut fresh_out = Vec::new();
        q.cut_batch_with(&pairs, &mut Scratch::default(), &mut fresh_out, &m);
        assert_eq!(out, fresh_out, "round {round} (len {len})");
    }
}

/// 100 consecutive solves through one context (on one thread's
/// recycled workspace) return the identical outcome — the
/// serving-layer reuse contract extended to the scratch arenas.
#[test]
fn one_context_pool_serves_100_consecutive_solves() {
    let n = 90;
    let (g, tree_edges) = graph_with_tree(n, 0.5, 503);
    let ctx = context_for(&g, &tree_edges, LcaStrategy::SparseTable);
    let m = Meter::disabled();
    let first = ctx.solve(&m);
    for round in 0..99 {
        let again = ctx.solve(&m);
        assert_eq!(again.cut.value, first.cut.value, "round {round}");
        assert_eq!(again.pair, first.pair, "round {round}");
        assert_eq!(again.cut.side, first.cut.side, "round {round}");
    }
}
