//! Lemma 4.25: the two-level `n^ε`-degree range tree on the grid.
//!
//! First level: a complete d-ary tree over the points sorted by `x`.
//! Second level: for every node of every level, the points below it
//! sorted by `y` with prefix-summed weights (the paper's auxiliary
//! arrays `A_aux(u)`; interval sums over them play the role of the
//! auxiliary trees `T_aux(u)` — binary search never exceeds the lemma's
//! `O(n^ε/ε)` aux-query cost for admissible `ε`, see DESIGN.md).
//!
//! A rectangle query `[x1,x2] x [y1,y2]` finds the canonical cover of
//! the x-interval — `O(d)` nodes per level, `O(1/ε)` levels — and sums
//! one y-interval per covered node: `O(n^ε/ε)` node visits, each with a
//! logarithmic-cost aux lookup, matching the query profile the
//! ε-crossover experiment (E-4.26) sweeps.

// lint: hotpath-module
use crate::{degree_for_eps, Point2};
use pmc_parallel::meter::{CostKind, Meter};

/// Static 2-D range-sum structure over weighted grid points.
///
/// Every level stores the x-sorted points re-sorted by `(node, y)` plus
/// chunk-local prefix weights. All levels are concatenated into flat
/// CSR-style arenas — `ys` and `prefix` hold exactly `len()` entries
/// per level (level `k` occupies `[k*len(), (k+1)*len())`), while the
/// variable-width per-node totals carry an explicit offsets vector —
/// so a query's level walk stays inside three contiguous buffers
/// instead of hopping across per-level allocations.
#[derive(Debug, Clone)]
pub struct RangeTree2D {
    degree: usize,
    /// Points sorted by x (leaf order); `xs[i]` is the x of leaf `i`.
    xs: Vec<u32>,
    /// Leaf width of one node at each level (`degree^level`).
    widths: Vec<usize>,
    /// Per-level y-keys sorted within each node chunk, levels
    /// concatenated (each level is `len()` entries).
    ys: Vec<u32>,
    /// Prefix weights *within each node chunk*: at level `k`,
    /// `prefix[k*len() + i]` = sum of weights of that chunk's points
    /// before in-chunk index `i`; the chunk's total sits at its last
    /// slot + weight (handled in query).
    prefix: Vec<u64>,
    /// Total weight per node (needed because prefix is chunk-local);
    /// level `k` occupies
    /// `node_total[node_total_offsets[k]..node_total_offsets[k + 1]]`.
    node_total: Vec<u64>,
    node_total_offsets: Vec<usize>,
}

impl RangeTree2D {
    /// Build with degree `max(2, ceil(universe^eps))`.
    pub fn build(points: Vec<Point2>, universe: usize, eps: f64, meter: &Meter) -> Self {
        Self::with_degree(points, degree_for_eps(universe, eps), meter)
    }

    /// Build with an explicit branching factor (`degree >= 2`).
    ///
    /// Sorts once and scatters once per level. A stable counting sort
    /// puts the points in y-order; a second, by x, over that order
    /// numbers the leaves. Both take `O(m + U)` work and `O(U)` space for
    /// `U` = the largest coordinate + 1 (the grid side `n` for cut
    /// queries). Each level is then one `O(m)` pass over the y-ordered
    /// points that appends every point to its node's chunk — Lemma
    /// 4.25's per-level merge as a stable scatter — so each chunk comes
    /// out y-sorted with its prefix weights, written straight into the
    /// flat arenas.
    pub fn with_degree(points: Vec<Point2>, degree: usize, meter: &Meter) -> Self {
        assert!(degree >= 2);
        let m = points.len();
        meter.add(CostKind::RangeNode, m as u64);
        let universe = points.iter().map(|p| p.x.max(p.y) as usize + 1).max().unwrap_or(0);

        // y-order: one stable counting sort by y.
        let mut next = bucket_starts(points.iter().map(|p| p.y), universe);
        // HOTPATH: warmup — build-time arrays, allocated once per tree.
        let mut by_y = vec![Point2::default(); m];
        for p in &points {
            by_y[next[p.y as usize]] = *p;
            next[p.y as usize] += 1;
        }
        // Leaf order: a stable counting sort by x over the y-order, so
        // leaves run by (x, y) and equal points keep their input order.
        // `leaf[j]` is the leaf of the `j`-th point in y-order.
        let mut next = bucket_starts(points.iter().map(|p| p.x), universe);
        // HOTPATH: warmup — build-time arrays, allocated once per tree.
        let (mut xs, mut leaf) = (vec![0u32; m], vec![0u32; m]);
        for (p, leaf) in by_y.iter().zip(&mut leaf) {
            let i = next[p.x as usize];
            next[p.x as usize] += 1;
            xs[i] = p.x;
            *leaf = i as u32;
        }

        // HOTPATH: warmup — build-time arenas, allocated once per tree.
        let widths: Vec<usize> =
            std::iter::successors(Some(1), |&w| (w < m).then(|| w * degree)).collect();
        let (mut ys, mut prefix) = (vec![0u32; m * widths.len()], vec![0u64; m * widths.len()]);
        let mut node_total = Vec::with_capacity(2 * m + widths.len());
        let mut node_total_offsets = vec![0usize];
        // Per-node write cursor into the level's chunk.
        let mut cursor = vec![0usize; m.max(1)];
        for (lvl, &width) in widths.iter().enumerate() {
            let num_nodes = m.div_ceil(width).max(1);
            let (ys, prefix) = (&mut ys[lvl * m..][..m], &mut prefix[lvl * m..][..m]);
            let total = node_total.len();
            node_total.resize(total + num_nodes, 0);
            let node_total = &mut node_total[total..];
            for (nd, c) in cursor[..num_nodes].iter_mut().enumerate() {
                *c = nd * width;
            }
            for (p, &leaf) in by_y.iter().zip(&leaf) {
                let nd = leaf as usize / width;
                let c = cursor[nd];
                cursor[nd] += 1;
                ys[c] = p.y;
                prefix[c] = node_total[nd];
                node_total[nd] += p.w;
            }
            node_total_offsets.push(total + num_nodes);
            meter.add(CostKind::RangeNode, m as u64);
        }
        RangeTree2D { degree, xs, widths, ys, prefix, node_total, node_total_offsets }
    }

    pub fn len(&self) -> usize {
        self.xs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    pub fn degree(&self) -> usize {
        self.degree
    }

    pub fn height(&self) -> usize {
        self.widths.len()
    }

    pub fn total(&self) -> u64 {
        // The top level has exactly one node; its total is the last
        // entry of the flat per-node-total arena.
        self.node_total.last().copied().unwrap_or(0)
    }

    /// Total weight over a batch of rectangles `(x1, x2, y1, y2)` —
    /// the slice-submission form of [`RangeTree2D::sum_rect`]. Callers
    /// that decompose one logical query into several rectangles (the
    /// complement slabs of a nested cut query, for instance) submit the
    /// whole batch in one call. Allocation free: each rectangle runs
    /// the per-rect peel loop.
    pub fn sum_rects(&self, rects: &[(u32, u32, u32, u32)], meter: &Meter) -> u64 {
        rects.iter().map(|&(x1, x2, y1, y2)| self.sum_rect(x1, x2, y1, y2, meter)).sum()
    }

    /// Total weight of points in `[x1, x2] x [y1, y2]` (inclusive).
    pub fn sum_rect(&self, x1: u32, x2: u32, y1: u32, y2: u32, meter: &Meter) -> u64 {
        if x1 > x2 || y1 > y2 || self.xs.is_empty() {
            return 0;
        }
        let lo = self.xs.partition_point(|&x| x < x1);
        let hi = self.xs.partition_point(|&x| x <= x2);
        self.sum_leaf_range(lo, hi, y1, y2, meter)
    }

    /// Sum over leaves `[lo, hi)` with y in `[y1, y2]`: canonical cover
    /// of the leaf interval, one aux interval-sum per covered node.
    ///
    /// Bottom-up peeling: entering level `l`, both ends are aligned to
    /// that level's node width; peel nodes off each end until both ends
    /// align to the next level's width. At most `degree - 1` nodes per
    /// end per level, i.e. the lemma's `O(n^ε)` nodes per level.
    fn sum_leaf_range(&self, mut lo: usize, mut hi: usize, y1: u32, y2: u32, meter: &Meter) -> u64 {
        let mut sum = 0u64;
        for lvl in 0..self.widths.len() {
            if lo >= hi {
                break;
            }
            let width = self.widths[lvl];
            let next = width * self.degree;
            debug_assert!(lo.is_multiple_of(width) && hi.is_multiple_of(width));
            while !lo.is_multiple_of(next) && lo < hi {
                sum += self.aux_sum(lvl, lo / width, y1, y2, meter);
                lo += width;
            }
            while !hi.is_multiple_of(next) && lo < hi {
                sum += self.aux_sum(lvl, hi / width - 1, y1, y2, meter);
                hi -= width;
            }
        }
        debug_assert!(lo >= hi, "cover incomplete: [{lo},{hi})");
        sum
    }

    /// Interval sum `y in [y1, y2]` inside one node's y-sorted chunk.
    fn aux_sum(&self, lvl: usize, node: usize, y1: u32, y2: u32, meter: &Meter) -> u64 {
        let m = self.xs.len();
        let base = lvl * m; // level `lvl` starts here in `ys`/`prefix`
        let lo = node * self.widths[lvl];
        let hi = ((node + 1) * self.widths[lvl]).min(m);
        let ys = &self.ys[base + lo..base + hi];
        meter.add(CostKind::RangeNode, (usize::BITS - ys.len().leading_zeros()) as u64 + 1);
        let a = ys.partition_point(|&y| y < y1);
        let b = ys.partition_point(|&y| y <= y2);
        if a >= b {
            return 0;
        }
        let upper = if lo + b == hi {
            self.node_total[self.node_total_offsets[lvl] + node]
        } else {
            self.prefix[base + lo + b]
        };
        upper - self.prefix[base + lo + a]
    }
}

/// Exclusive start of every key's bucket in a stable counting sort of
/// `keys` over `[0, universe)`: `starts[k]` counts the keys below `k`.
fn bucket_starts(keys: impl Iterator<Item = u32>, universe: usize) -> Vec<usize> {
    // HOTPATH: warmup — build-time arrays, allocated once per tree.
    let mut starts = vec![0usize; universe + 1];
    for k in keys {
        starts[k as usize + 1] += 1;
    }
    for k in 1..=universe {
        starts[k] += starts[k - 1];
    }
    starts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute(points: &[Point2], x1: u32, x2: u32, y1: u32, y2: u32) -> u64 {
        points
            .iter()
            .filter(|p| p.x >= x1 && p.x <= x2 && p.y >= y1 && p.y <= y2)
            .map(|p| p.w)
            .sum()
    }

    /// `(widths, ys, prefix, node_total)`, levels concatenated.
    type Arenas = (Vec<usize>, Vec<u32>, Vec<u64>, Vec<u64>);

    /// Reference arenas: leaves by a stable sort on `(x, y)`, then per
    /// level (widths `1, d, d², …` up to the first `≥ m`) a stable sort
    /// of the leaf order by `(leaf / width, y)` with naive chunk-local
    /// prefix sums.
    fn reference_arenas(points: &[Point2], degree: usize) -> Arenas {
        let m = points.len();
        let mut leaves = points.to_vec();
        leaves.sort_by_key(|p| (p.x, p.y));
        let mut widths = vec![1];
        while *widths.last().unwrap() < m {
            widths.push(widths.last().unwrap() * degree);
        }
        let (mut ys, mut prefix, mut node_total) = (Vec::new(), Vec::new(), Vec::new());
        for &width in &widths {
            let mut level: Vec<(usize, Point2)> = leaves.iter().copied().enumerate().collect();
            level.sort_by_key(|&(leaf, p)| (leaf / width, p.y));
            if m == 0 {
                node_total.push(0);
            }
            // Node `nd` holds leaves `[nd * width, (nd + 1) * width)`.
            for chunk in level.chunks(width) {
                let mut acc = 0u64;
                for &(_, p) in chunk {
                    ys.push(p.y);
                    prefix.push(acc);
                    acc += p.w;
                }
                node_total.push(acc);
            }
        }
        (widths, ys, prefix, node_total)
    }

    /// Check one build against [`reference_arenas`]: `ys` and
    /// `node_total` match exactly; `prefix` matches at every chunk start
    /// and wherever y changes inside a chunk (the only entries a
    /// `partition_point` boundary reads — ties on y may reorder the
    /// rest); the enabled meter charges `m` per level plus `m` up front.
    fn assert_matches_reference(points: &[Point2], t: &RangeTree2D, meter: &Meter, what: &str) {
        let m = points.len();
        let (widths, ys, prefix, node_total) = reference_arenas(points, t.degree());
        let mut xs: Vec<u32> = points.iter().map(|p| p.x).collect();
        xs.sort_unstable();
        assert_eq!(t.xs, xs, "{what}: leaf order");
        assert_eq!(t.widths, widths, "{what}: widths");
        assert_eq!(t.ys, ys, "{what}: ys");
        assert_eq!(t.node_total, node_total, "{what}: node_total");
        assert_eq!(t.node_total_offsets.len(), t.height() + 1, "{what}: offsets");
        assert_eq!(t.node_total_offsets.last(), Some(&node_total.len()), "{what}: offsets");
        for (lvl, &width) in t.widths.iter().enumerate() {
            for i in 0..m {
                let at = lvl * m + i;
                if i % width == 0 || ys[at] != ys[at - 1] {
                    assert_eq!(t.prefix[at], prefix[at], "{what}: prefix level {lvl} index {i}");
                }
            }
        }
        assert_eq!(meter.get(CostKind::RangeNode), (m * (t.height() + 1)) as u64, "{what}: meter");
    }

    #[test]
    fn arena_matches_per_level_sort_reference() {
        let mut rng = StdRng::seed_from_u64(18);
        for degree in [2usize, 3, 4, 17, 1024] {
            let dk = (1..).map(|k| degree.pow(k)).find(|&p| p >= 256).unwrap();
            for m in [0, 1, dk - 1, dk, dk + 1] {
                // A small grid forces duplicate x, duplicate y and
                // duplicate points with different weights.
                for universe in [4u32, 64] {
                    let pts: Vec<Point2> = (0..m)
                        .map(|_| Point2 {
                            x: rng.random_range(0..universe),
                            y: rng.random_range(0..universe),
                            w: rng.random_range(1..1000),
                        })
                        .collect();
                    let meter = Meter::enabled();
                    let t = RangeTree2D::with_degree(pts.clone(), degree, &meter);
                    let what = format!("degree={degree} m={m} universe={universe}");
                    assert_matches_reference(&pts, &t, &meter, &what);
                }
            }
        }
        // The benchmark's per-tree shape: 19,138 points (both
        // orientations of each edge) over the 150-vertex grid at ε = 1/4.
        let pts: Vec<Point2> = (0..19_138 / 2)
            .flat_map(|_| {
                let (u, v) = (rng.random_range(0..150u32), rng.random_range(0..150u32));
                let w = rng.random_range(1..100);
                [Point2 { x: u, y: v, w }, Point2 { x: v, y: u, w }]
            })
            .collect();
        let meter = Meter::enabled();
        let t = RangeTree2D::build(pts.clone(), 150, 0.25, &meter);
        assert_eq!(t.degree(), 4);
        assert_matches_reference(&pts, &t, &meter, "workload shape");
    }

    #[test]
    fn sum_rects_matches_individual_sums() {
        let mut rng = StdRng::seed_from_u64(77);
        let pts: Vec<Point2> = (0..200)
            .map(|_| Point2 { x: rng.random_range(0..40), y: rng.random_range(0..40), w: rng.random_range(1..9) })
            .collect();
        let t = RangeTree2D::build(pts.clone(), 40, 0.4, &Meter::disabled());
        let m = Meter::disabled();
        let rects = [(0u32, 10u32, 5u32, 39u32), (11, 39, 0, 4), (3, 3, 3, 3)];
        let batched = t.sum_rects(&rects, &m);
        let singles: u64 =
            rects.iter().map(|&(x1, x2, y1, y2)| t.sum_rect(x1, x2, y1, y2, &m)).sum();
        assert_eq!(batched, singles);
        assert_eq!(t.sum_rects(&[], &m), 0);
    }

    #[test]
    fn small_fixed() {
        let pts = vec![
            Point2 { x: 0, y: 0, w: 1 },
            Point2 { x: 1, y: 2, w: 2 },
            Point2 { x: 2, y: 1, w: 4 },
            Point2 { x: 2, y: 1, w: 8 },
            Point2 { x: 3, y: 3, w: 16 },
        ];
        let m = Meter::disabled();
        let t = RangeTree2D::with_degree(pts.clone(), 2, &m);
        assert_eq!(t.total(), 31);
        assert_eq!(t.sum_rect(0, 3, 0, 3, &m), 31);
        assert_eq!(t.sum_rect(2, 2, 1, 1, &m), 12);
        assert_eq!(t.sum_rect(1, 2, 0, 2, &m), 14);
        assert_eq!(t.sum_rect(4, 9, 0, 9, &m), 0);
        assert_eq!(t.sum_rect(3, 1, 0, 9, &m), 0);
    }

    #[test]
    fn empty_and_single() {
        let m = Meter::disabled();
        let t = RangeTree2D::with_degree(vec![], 3, &m);
        assert_eq!(t.total(), 0);
        assert_eq!(t.sum_rect(0, 100, 0, 100, &m), 0);
        let t1 = RangeTree2D::with_degree(vec![Point2 { x: 5, y: 7, w: 3 }], 3, &m);
        assert_eq!(t1.sum_rect(5, 5, 7, 7, &m), 3);
        assert_eq!(t1.sum_rect(5, 5, 8, 9, &m), 0);
    }

    #[test]
    fn random_vs_bruteforce_across_degrees() {
        let mut rng = StdRng::seed_from_u64(41);
        let points: Vec<Point2> = (0..800)
            .map(|_| Point2 {
                x: rng.random_range(0..64),
                y: rng.random_range(0..64),
                w: rng.random_range(1..16),
            })
            .collect();
        let m = Meter::disabled();
        for degree in [2usize, 3, 5, 8, 64, 1024] {
            let t = RangeTree2D::with_degree(points.clone(), degree, &m);
            assert_eq!(t.total(), points.iter().map(|p| p.w).sum::<u64>());
            for _ in 0..400 {
                let a = rng.random_range(0..70u32);
                let b = rng.random_range(0..70u32);
                let c = rng.random_range(0..70u32);
                let d = rng.random_range(0..70u32);
                let (x1, x2) = (a.min(b), a.max(b));
                let (y1, y2) = (c.min(d), c.max(d));
                assert_eq!(
                    t.sum_rect(x1, x2, y1, y2, &m),
                    brute(&points, x1, x2, y1, y2),
                    "degree={degree} rect=[{x1},{x2}]x[{y1},{y2}]"
                );
            }
        }
    }

    #[test]
    fn eps_parameterization() {
        let mut rng = StdRng::seed_from_u64(42);
        let points: Vec<Point2> = (0..2048)
            .map(|_| Point2 {
                x: rng.random_range(0..2048),
                y: rng.random_range(0..2048),
                w: 1,
            })
            .collect();
        let m = Meter::disabled();
        let flat = RangeTree2D::build(points.clone(), 2048, 0.9, &m);
        let tall = RangeTree2D::build(points.clone(), 2048, 1.0 / 11.0, &m);
        assert!(flat.height() < tall.height());
        for _ in 0..100 {
            let a = rng.random_range(0..2100u32);
            let b = rng.random_range(0..2100u32);
            let c = rng.random_range(0..2100u32);
            let d = rng.random_range(0..2100u32);
            let (x1, x2) = (a.min(b), a.max(b));
            let (y1, y2) = (c.min(d), c.max(d));
            assert_eq!(flat.sum_rect(x1, x2, y1, y2, &m), tall.sum_rect(x1, x2, y1, y2, &m));
        }
    }

    #[test]
    fn duplicate_coordinates_sum() {
        let pts: Vec<Point2> = (0..100).map(|i| Point2 { x: 7, y: 9, w: i % 3 + 1 }).collect();
        let total: u64 = pts.iter().map(|p| p.w).sum();
        let m = Meter::disabled();
        let t = RangeTree2D::with_degree(pts, 4, &m);
        assert_eq!(t.sum_rect(7, 7, 9, 9, &m), total);
        assert_eq!(t.sum_rect(0, 6, 0, 100, &m), 0);
    }

    #[test]
    fn stripe_queries() {
        // Full x-range, partial y-range (the cut-query shape).
        let mut rng = StdRng::seed_from_u64(43);
        let points: Vec<Point2> = (0..500)
            .map(|i| Point2 { x: i as u32, y: rng.random_range(0..32), w: 1 })
            .collect();
        let m = Meter::disabled();
        let t = RangeTree2D::with_degree(points.clone(), 4, &m);
        for y in 0..32u32 {
            assert_eq!(t.sum_rect(0, 499, y, y, &m), brute(&points, 0, 499, y, y));
        }
    }
}
