//! Criterion ablations: ε and the interest filter — all on one fixed
//! 2-respecting solve.

use criterion::{criterion_group, criterion_main, Criterion};
use pmc_bench::workloads::graph_with_tree;
use pmc_mincut::{naive_two_respecting, two_respecting_mincut, TwoRespectParams};
use pmc_parallel::Meter;
use pmc_tree::RootedTree;
use std::hint::black_box;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    let (g, edges) = graph_with_tree(512, 0.5, 777);
    let tree = RootedTree::from_edge_list(g.n(), &edges, 0);
    let m = Meter::disabled();

    let variants: Vec<(&str, TwoRespectParams)> = vec![
        ("default", TwoRespectParams::default()),
        ("eps_0.1", TwoRespectParams { eps: 0.1, ..TwoRespectParams::default() }),
        ("eps_0.75", TwoRespectParams { eps: 0.75, ..TwoRespectParams::default() }),
    ];
    for (name, params) in variants {
        group.bench_function(name, |b| {
            b.iter(|| black_box(two_respecting_mincut(&g, &tree, &params, &m)))
        });
    }
    group.bench_function("naive_no_filter", |b| {
        b.iter(|| black_box(naive_two_respecting(&g, &tree, 0.25, &m)))
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
