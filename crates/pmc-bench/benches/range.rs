//! Criterion bench for Lemma 4.25: range-tree build and query across
//! the ε knob.

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

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("range2d_build");
    group.sample_size(10);
    let m = 100_000;
    let pts = points2(m, m as u32, 1);
    for eps in [0.1f64, 0.3, 0.6, 1.0] {
        group.bench_with_input(BenchmarkId::from_parameter(eps), &eps, |b, &eps| {
            b.iter(|| black_box(RangeTree2D::build(pts.clone(), m, eps, &Meter::disabled())))
        });
    }
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("range2d_query");
    let m = 100_000;
    let pts = points2(m, m as u32, 2);
    let mut rng = StdRng::seed_from_u64(3);
    let rects: Vec<(u32, u32, u32, u32)> = (0..256)
        .map(|_| {
            let a = rng.random_range(0..m as u32);
            let b = rng.random_range(0..m as u32);
            let c_ = rng.random_range(0..m as u32);
            let d = rng.random_range(0..m as u32);
            (a.min(b), a.max(b), c_.min(d), c_.max(d))
        })
        .collect();
    for eps in [0.1f64, 0.3, 0.6, 1.0] {
        let tree = RangeTree2D::build(pts.clone(), m, eps, &Meter::disabled());
        group.bench_with_input(BenchmarkId::from_parameter(eps), &eps, |b, _| {
            b.iter(|| {
                let mut acc = 0u64;
                for &(x1, x2, y1, y2) in &rects {
                    acc = acc.wrapping_add(tree.sum_rect(x1, x2, y1, y2, &Meter::disabled()));
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_query);
criterion_main!(benches);
