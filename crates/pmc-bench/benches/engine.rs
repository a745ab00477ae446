//! Criterion bench for the two-level engine: per-tree context
//! construction time vs pure query time on a prebuilt context.
//!
//! `tree_context_build` is the cost `TreeContext::build` amortizes per
//! packed tree (LCA + cut-query structure + path decomposition +
//! interest engine, forked under `rayon::join`); `cut_batch_into`
//! (into a warm buffer) and `solve_prebuilt` are query-only — no
//! construction in the loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pmc_bench::workloads::graph_with_tree;
use pmc_mincut::{GraphContext, TreeContext, TwoRespectParams};
use pmc_parallel::Meter;
use pmc_tree::RootedTree;
use std::hint::black_box;
use std::sync::Arc;

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    let meter = Meter::disabled();
    let params = TwoRespectParams::default();
    for n in [256usize, 1024] {
        let (g, edges) = graph_with_tree(n, 0.5, 4242);
        let tree = Arc::new(RootedTree::from_edge_list(g.n(), &edges, 0));

        group.bench_with_input(BenchmarkId::new("graph_context_build", n), &n, |b, _| {
            b.iter(|| black_box(GraphContext::build(&g, &meter)))
        });
        group.bench_with_input(BenchmarkId::new("tree_context_build", n), &n, |b, _| {
            b.iter(|| black_box(TreeContext::build(&g, Arc::clone(&tree), &params, &meter)))
        });

        let ctx = TreeContext::build(&g, Arc::clone(&tree), &params, &meter);
        // A deterministic pair slice: every non-root edge against a
        // stride of partners.
        let root = ctx.tree().root();
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .filter(|&e| e != root)
            .flat_map(|e| {
                (0..n as u32)
                    .step_by(7)
                    .filter(move |&f| f != root && f != e)
                    .map(move |f| (e, f))
            })
            .collect();
        let mut out = Vec::with_capacity(pairs.len());
        group.bench_with_input(BenchmarkId::new("cut_batch_into", n), &n, |b, _| {
            b.iter(|| {
                ctx.cut_batch_into(&pairs, &mut out, &meter);
                black_box(out.as_slice());
            })
        });
        group.bench_with_input(BenchmarkId::new("solve_prebuilt", n), &n, |b, _| {
            b.iter(|| black_box(ctx.solve(&meter)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
