//! Criterion benches for the substrate layers: tree decompositions
//! (Lemma 4.4/4.12), LCA engines, spanning forests, the certificate
//! construction (Theorem 2.6) and greedy tree packing (Theorem 4.18).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pmc_bench::workloads;
use pmc_graph::generators;
use pmc_mincut::{greedy_tree_packing, PackingParams};
use pmc_parallel::spanning_forest::spanning_forest;
use pmc_parallel::Meter;
use pmc_sparsify::k_certificate;
use pmc_tree::{
    CentroidDecomposition, LcaTable, PathDecomposition, PathStrategy, RootedTree, SparseLca,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_tree(n: u32, seed: u64) -> RootedTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let parent: Vec<u32> =
        (0..n).map(|v| if v == 0 { 0 } else { rng.random_range(0..v) }).collect();
    RootedTree::from_parents(0, &parent)
}

fn bench_decompositions(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_decomposition");
    let t = random_tree(100_000, 7);
    let m = Meter::disabled();
    group.bench_function("heavy_path", |b| {
        b.iter(|| black_box(PathDecomposition::build(&t, PathStrategy::default(), &m)))
    });
    group.bench_function("centroid", |b| {
        b.iter(|| black_box(CentroidDecomposition::build(&t, &m)))
    });
    group.finish();
}

fn bench_lca(c: &mut Criterion) {
    let mut group = c.benchmark_group("lca");
    let t = random_tree(100_000, 8);
    let lifting = LcaTable::build(&t);
    let sparse = SparseLca::build(&t, &Meter::disabled());
    let mut rng = StdRng::seed_from_u64(9);
    let queries: Vec<(u32, u32)> = (0..4096)
        .map(|_| (rng.random_range(0..100_000), rng.random_range(0..100_000)))
        .collect();
    group.bench_function("binary_lifting", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(x, y) in &queries {
                acc = acc.wrapping_add(lifting.lca(x, y) as u64);
            }
            black_box(acc)
        })
    });
    group.bench_function("sparse_table", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(x, y) in &queries {
                acc = acc.wrapping_add(sparse.lca(x, y) as u64);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_certificates(c: &mut Criterion) {
    let mut group = c.benchmark_group("certificates");
    group.sample_size(10);
    let w = workloads::non_sparse(512, 10);
    let m = Meter::disabled();
    for k in [4u64, 16] {
        group.bench_with_input(BenchmarkId::new("forest", k), &k, |b, &k| {
            b.iter(|| black_box(k_certificate(&w.graph, k, &m)))
        });
    }
    group.finish();
}

fn bench_forest(c: &mut Criterion) {
    let mut group = c.benchmark_group("spanning_forest");
    group.sample_size(10);
    for n in [1024usize, 8192] {
        let w = workloads::non_sparse(n, 11);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(spanning_forest(&w.graph, &Meter::disabled())))
        });
    }
    group.finish();
}

/// Greedy tree packing (Theorem 4.18) on dense and sparse inputs, at
/// the default iteration count.
fn bench_packing(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_tree_packing");
    group.sample_size(10);
    let graphs = [
        // perfbench's `nearclique-150` graph.
        ("nearclique-150", generators::near_clique(150, 0.15, 48, &mut StdRng::seed_from_u64(1))),
        ("nearclique-400", workloads::near_clique(400, 1).graph),
        (
            "planted-400",
            generators::planted_bisection(400, 20_000, 150, 200, 40, &mut StdRng::seed_from_u64(1)),
        ),
        ("powerlaw-800", workloads::power_law(800, 1).graph.coalesced()),
    ];
    let params = PackingParams::default();
    for (name, g) in &graphs {
        group.bench_with_input(BenchmarkId::from_parameter(name), g, |b, g| {
            b.iter(|| black_box(greedy_tree_packing(g, &params, &Meter::disabled())))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_decompositions,
    bench_lca,
    bench_certificates,
    bench_forest,
    bench_packing
);
criterion_main!(benches);
