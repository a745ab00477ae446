//! Criterion bench for the fused batch kernel (DESIGN.md §13): the
//! single-sweep `sum_rects` against the per-rect peel loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pmc_parallel::Meter;
use pmc_range::{Point2, RangeTree2D};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn points2(m: usize, universe: u32, seed: u64) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| Point2 {
            x: rng.random_range(0..universe),
            y: rng.random_range(0..universe),
            w: rng.random_range(1..16),
        })
        .collect()
}

fn rects(count: usize, universe: u32, seed: u64) -> Vec<(u32, u32, u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let a = rng.random_range(0..universe);
            let b = rng.random_range(0..universe);
            let c = rng.random_range(0..universe);
            let d = rng.random_range(0..universe);
            (a.min(b), a.max(b), c.min(d), c.max(d))
        })
        .collect()
}

fn bench_sum_rects(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_sum_rects");
    group.sample_size(10);
    let m = 100_000;
    let tree = RangeTree2D::build(points2(m, m as u32, 11), m, 0.3, &Meter::disabled());
    let meter = Meter::disabled();
    for count in [64usize, 512, 4096] {
        let rs = rects(count, m as u32, count as u64);
        group.bench_with_input(BenchmarkId::new("per_rect", count), &count, |b, _| {
            b.iter(|| {
                let mut acc = 0u64;
                for &(x1, x2, y1, y2) in &rs {
                    acc = acc.wrapping_add(tree.sum_rect(x1, x2, y1, y2, &meter));
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("fused", count), &count, |b, _| {
            b.iter(|| black_box(tree.sum_rects(&rs, &meter)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sum_rects);
criterion_main!(benches);
