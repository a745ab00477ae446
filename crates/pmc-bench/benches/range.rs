//! Criterion bench for Lemma 4.25: range-tree build and query across
//! the ε knob.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pmc_parallel::Meter;
use pmc_range::{Point2, RangeTree2D};
use pmc_tree::RootedTree;
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
    // One packed tree's build at each perfbench workload's shape: 2m
    // points over the n-vertex grid at the solver's default ε = 1/4.
    for (workload, points, n) in [("nearclique-150", 19_138, 150), ("powerlaw-800", 17_382, 800)] {
        let pts = points2(points, n as u32, 4);
        group.bench_with_input(BenchmarkId::new(workload, points), &n, |b, &n| {
            b.iter(|| black_box(RangeTree2D::build(pts.clone(), n, 0.25, &Meter::disabled())))
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
    let run = |b: &mut criterion::Bencher, tree: &RangeTree2D, rects: &[(u32, u32, u32, u32)]| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(x1, x2, y1, y2) in rects {
                acc = acc.wrapping_add(tree.sum_rect(x1, x2, y1, y2, &Meter::disabled()));
            }
            black_box(acc)
        })
    };
    for eps in [0.1f64, 0.3, 0.6, 1.0] {
        let tree = RangeTree2D::build(pts.clone(), m, eps, &Meter::disabled());
        let id = BenchmarkId::from_parameter(eps);
        group.bench_with_input(id, &eps, |b, _| run(b, &tree, &rects));
    }
    // The cut query's rectangles at each perfbench workload's shape:
    // 2m points over the n-vertex grid at ε = 1/4, probed with the
    // subtree intervals `[start(e), post(e)] x [start(f), post(f)]` of
    // random edges of a random recursive tree on the same n vertices.
    for (workload, points, n) in [("nearclique-150", 19_138, 150), ("powerlaw-800", 17_382, 800)] {
        let tree = RangeTree2D::build(points2(points, n as u32, 4), n, 0.25, &Meter::disabled());
        let parents: Vec<u32> =
            (0..n as u32).map(|v| if v == 0 { 0 } else { rng.random_range(0..v) }).collect();
        let t = RootedTree::from_parents(0, &parents);
        let rects: Vec<(u32, u32, u32, u32)> = (0..256)
            .map(|_| {
                let (e, f) = (rng.random_range(1..n as u32), rng.random_range(1..n as u32));
                (t.start(e), t.post(e), t.start(f), t.post(f))
            })
            .collect();
        let id = BenchmarkId::new(workload, points);
        group.bench_with_input(id, &n, |b, _| run(b, &tree, &rects));
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_query);
criterion_main!(benches);
