//! Criterion bench for Theorem 4.1/4.26: the whole exact pipeline, in
//! the sparse and non-sparse regimes, against the sequential baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pmc_bench::workloads;
use pmc_graph::stoer_wagner_mincut;
use pmc_mincut::{exact_mincut, ExactParams};
use std::hint::black_box;

fn bench_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_mincut");
    group.sample_size(10);
    for (name, w) in [
        ("nonsparse-256", workloads::non_sparse(256, 21)),
        ("sparse-1024", workloads::sparse(1024, 22)),
        ("planted-256", workloads::planted(256, 4, 23)),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| black_box(exact_mincut(&w.graph, &ExactParams::default())))
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    let w = workloads::non_sparse(128, 24);
    group.bench_function("stoer_wagner-128", |b| {
        b.iter(|| black_box(stoer_wagner_mincut(&w.graph)))
    });
    group.bench_function("exact_pipeline-128", |b| {
        b.iter(|| black_box(exact_mincut(&w.graph, &ExactParams::default())))
    });
    group.finish();
}

criterion_group!(benches, bench_exact, bench_baselines);
criterion_main!(benches);
