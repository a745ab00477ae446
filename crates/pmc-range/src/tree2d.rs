//! Lemma 4.25: the two-level `n^ε`-degree range tree on the grid.
//!
//! First level: a complete d-ary tree over the `U` grid columns (`U = n`
//! for cut queries), so `⌈log_d U⌉ + 1 = O(1/ε)` levels whatever the
//! number of points. Second level: for every node of every level, the
//! points in its columns sorted by `y`, with prefix-summed weights (the
//! paper's auxiliary arrays `A_aux(u)`; interval sums over them play
//! the role of the auxiliary trees `T_aux(u)` — binary search never
//! exceeds the lemma's `O(n^ε/ε)` aux-query cost for admissible `ε`,
//! see DESIGN.md).
//!
//! A rectangle query `[x1,x2] x [y1,y2]` is the column interval
//! `[x1, x2 + 1)`. Its canonical cover takes `O(d)` nodes per level,
//! `O(1/ε)` levels, and sums one y-interval per covered node: `O(n^ε/ε)`
//! node visits, each with a logarithmic-cost aux lookup, matching the
//! query profile the ε-crossover experiment (E-4.26) sweeps.

// lint: hotpath-module
use crate::{degree_for_eps, Point2};
use pmc_parallel::meter::{CostKind, Meter};

/// Static 2-D range-sum structure over weighted grid points.
///
/// Leaves are the grid columns `0..U`. Level `k` holds the points
/// grouped by `x / d^k` (node order), y-sorted inside each group, so
/// node `v`'s chunk is `[col_start[v·w], col_start[min((v+1)·w, U)])`
/// for width `w = d^k` at every level. All levels are concatenated into
/// two flat arenas: `ys` holds `len()` y-keys per level and `prefix`
/// one level-wide running weight of `len() + 1` entries per level, so
/// a chunk's interval sum is the difference of two `prefix` entries
/// and a query's level walk stays inside three contiguous buffers.
#[derive(Debug, Clone)]
pub struct RangeTree2D {
    degree: usize,
    /// `col_start[x]` = number of points with x-coordinate below `x`,
    /// for `x` in `0..=U`.
    col_start: Vec<usize>,
    /// Column width of one node at each level (`degree^level`), up to
    /// the first width `≥ U`.
    widths: Vec<usize>,
    /// Per-level y-keys in node order, y-sorted within each node;
    /// level `k` occupies `[k*len(), (k+1)*len())`.
    ys: Vec<u32>,
    /// Per-level running weights: `prefix[k*(len()+1) + i]` is the
    /// weight of level `k`'s first `i` points.
    prefix: Vec<u64>,
}

impl RangeTree2D {
    /// Build with degree `max(2, ceil(universe^eps))` over the columns
    /// `0..U`, `U` = `universe` (widened to cover every coordinate).
    pub fn build(points: Vec<Point2>, universe: usize, eps: f64, meter: &Meter) -> Self {
        let universe = universe.max(coord_bound(&points));
        Self::over_columns(&points, universe, degree_for_eps(universe, eps), meter)
    }

    /// Build with an explicit branching factor (`degree >= 2`) over the
    /// columns `0..U`, `U` = the largest coordinate + 1.
    pub fn with_degree(points: Vec<Point2>, degree: usize, meter: &Meter) -> Self {
        Self::over_columns(&points, coord_bound(&points), degree, meter)
    }

    /// Sorts once and scatters once per level. A stable counting sort
    /// puts the points in y-order; counting the x-coordinates gives
    /// `col_start`. Both take `O(m + U)` work and `O(U)` space. Each
    /// level is then one `O(m)` pass over the y-ordered points that
    /// appends every point to its node's chunk — Lemma 4.25's per-level
    /// merge as a stable scatter — so each chunk comes out y-sorted,
    /// written straight into the flat arenas, and one running sum over
    /// the level fills its `prefix`.
    fn over_columns(points: &[Point2], universe: usize, degree: usize, meter: &Meter) -> Self {
        assert!(degree >= 2);
        let m = points.len();
        meter.add(CostKind::RangeNode, m as u64);
        let col_start = bucket_starts(points.iter().map(|p| p.x), universe);

        // y-order: one stable counting sort by y.
        let mut next = bucket_starts(points.iter().map(|p| p.y), universe);
        // HOTPATH: warmup — build-time arrays, allocated once per tree.
        let mut by_y = vec![Point2::default(); m];
        for p in points {
            by_y[next[p.y as usize]] = *p;
            next[p.y as usize] += 1;
        }

        // HOTPATH: warmup — build-time arenas, allocated once per tree.
        let widths: Vec<usize> =
            std::iter::successors(Some(1), |&w| (w < universe).then(|| w * degree)).collect();
        let h = widths.len();
        let (mut ys, mut prefix) = (vec![0u32; m * h], vec![0u64; (m + 1) * h]);
        // `next` becomes each node's write cursor (its `U + 1` entries
        // cover any level); `node_of` spares a division per point.
        let mut node_of = vec![0u32; universe];
        for (lvl, &width) in widths.iter().enumerate() {
            let (ys, prefix) = (&mut ys[lvl * m..][..m], &mut prefix[lvl * (m + 1)..][..m + 1]);
            for (nd, cols) in node_of.chunks_mut(width).enumerate() {
                next[nd] = col_start[nd * width];
                cols.fill(nd as u32);
            }
            for p in &by_y {
                let nd = node_of[p.x as usize] as usize;
                let c = next[nd];
                next[nd] += 1;
                ys[c] = p.y;
                prefix[c + 1] = p.w;
            }
            let mut acc = 0;
            for w in &mut prefix[1..] {
                acc += *w;
                *w = acc;
            }
            meter.add(CostKind::RangeNode, m as u64);
        }
        RangeTree2D { degree, col_start, widths, ys, prefix }
    }

    pub fn len(&self) -> usize {
        self.col_start[self.col_start.len() - 1]
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn degree(&self) -> usize {
        self.degree
    }

    pub fn height(&self) -> usize {
        self.widths.len()
    }

    pub fn total(&self) -> u64 {
        // Every level's running weight ends at the total.
        self.prefix.last().copied().unwrap_or(0)
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
        let universe = self.col_start.len() - 1;
        if x1 > x2 || y1 > y2 || x1 as usize >= universe {
            return 0;
        }
        // A range that runs to the last column extends to the top
        // node's width: the columns past `U` are empty, and the high
        // end is then aligned at every level.
        let hi = x2 as usize + 1;
        let hi = if hi >= universe { self.widths[self.widths.len() - 1] } else { hi };
        self.sum_columns(x1 as usize, hi, y1, y2, meter)
    }

    /// Sum over columns `[lo, hi)` with y in `[y1, y2]`: canonical cover
    /// of the column interval, one aux interval-sum per covered node.
    ///
    /// Bottom-up peeling: entering level `l`, both ends are aligned to
    /// that level's node width; peel nodes off each end until both ends
    /// align to the next level's width. At most `degree - 1` nodes per
    /// end per level, i.e. the lemma's `O(n^ε)` nodes per level.
    fn sum_columns(&self, mut lo: usize, mut hi: usize, y1: u32, y2: u32, meter: &Meter) -> u64 {
        let (m, universe) = (self.len(), self.col_start.len() - 1);
        let mut sum = 0u64;
        for (lvl, &width) in self.widths.iter().enumerate() {
            if lo >= hi {
                break;
            }
            let (ys, prefix) = (&self.ys[lvl * m..][..m], &self.prefix[lvl * (m + 1)..][..m + 1]);
            // Interval sum `y in [y1, y2]` over the node on columns
            // `[c, c + width)`, clipped to the grid.
            let aux = |c: usize| {
                let [a, b] = [c, c + width].map(|c| self.col_start[c.min(universe)]);
                if a == b {
                    return 0;
                }
                let ys = &ys[a..b];
                meter.add(CostKind::RangeNode, (usize::BITS - ys.len().leading_zeros()) as u64 + 1);
                let lo = a + ys.partition_point(|&y| y < y1);
                let hi = lo + ys[lo - a..].partition_point(|&y| y <= y2);
                prefix[hi] - prefix[lo]
            };
            let next = width * self.degree;
            debug_assert!(lo.is_multiple_of(width) && hi.is_multiple_of(width));
            // Two divisions per level, not one per peeled node.
            let lo_end = lo.next_multiple_of(next).min(hi);
            while lo < lo_end {
                sum += aux(lo);
                lo += width;
            }
            let hi_end = (hi - hi % next).max(lo);
            while hi > hi_end {
                hi -= width;
                sum += aux(hi);
            }
        }
        debug_assert!(lo >= hi, "cover incomplete: [{lo},{hi})");
        sum
    }
}

/// One more than the largest coordinate of any point (0 for none).
fn coord_bound(points: &[Point2]) -> usize {
    points.iter().map(|p| p.x.max(p.y) as usize + 1).max().unwrap_or(0)
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

    /// `(widths, col_start, ys, prefix)`, levels concatenated.
    type Arenas = (Vec<usize>, Vec<usize>, Vec<u32>, Vec<u64>);

    /// Reference arenas over `universe` columns: widths `1, d, d², …`
    /// up to the first `≥ universe`; per level a stable sort of the
    /// input by `(x / width, y)` with one level-wide running prefix.
    fn reference_arenas(points: &[Point2], universe: usize, degree: usize) -> Arenas {
        let mut widths = vec![1];
        while *widths.last().unwrap() < universe {
            widths.push(widths.last().unwrap() * degree);
        }
        let col_start =
            (0..=universe).map(|x| points.iter().filter(|p| (p.x as usize) < x).count()).collect();
        let (mut ys, mut prefix) = (Vec::new(), Vec::new());
        for &width in &widths {
            let mut level = points.to_vec();
            level.sort_by_key(|p| (p.x as usize / width, p.y));
            let mut acc = 0u64;
            prefix.push(acc);
            for p in &level {
                ys.push(p.y);
                acc += p.w;
                prefix.push(acc);
            }
        }
        (widths, col_start, ys, prefix)
    }

    /// Check one build over `universe` columns against
    /// [`reference_arenas`], arena for arena; the enabled meter charges
    /// `m` per level plus `m` up front.
    fn assert_matches_reference(
        points: &[Point2],
        universe: usize,
        t: &RangeTree2D,
        meter: &Meter,
        what: &str,
    ) {
        let (widths, col_start, ys, prefix) = reference_arenas(points, universe, t.degree());
        assert_eq!(t.col_start, col_start, "{what}: col_start");
        assert_eq!(t.widths, widths, "{what}: widths");
        assert_eq!(t.ys, ys, "{what}: ys");
        assert_eq!(t.prefix, prefix, "{what}: prefix");
        let m = points.len();
        assert_eq!(meter.get(CostKind::RangeNode), (m * (t.height() + 1)) as u64, "{what}: meter");
    }

    #[test]
    fn arena_matches_per_level_sort_reference() {
        let mut rng = StdRng::seed_from_u64(18);
        for degree in [2usize, 3, 4, 17, 1024] {
            for m in [0, 1, 2, 255, 256, 257] {
                // A small grid forces duplicate x, duplicate y and
                // duplicate points with different weights; 150 is no
                // power of any degree here.
                for universe in [4u32, 64, 150] {
                    let pts: Vec<Point2> = (0..m)
                        .map(|_| Point2 {
                            x: rng.random_range(0..universe),
                            y: rng.random_range(0..universe),
                            w: rng.random_range(1..1000),
                        })
                        .collect();
                    let what = format!("degree={degree} m={m} universe={universe}");
                    let meter = Meter::enabled();
                    let t = RangeTree2D::with_degree(pts.clone(), degree, &meter);
                    assert_matches_reference(&pts, coord_bound(&pts), &t, &meter, &what);
                    let meter = Meter::enabled();
                    let t = RangeTree2D::build(pts.clone(), universe as usize, 0.5, &meter);
                    assert_matches_reference(&pts, universe as usize, &t, &meter, &what);
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
        assert_eq!((t.degree(), t.height()), (4, 5));
        assert_matches_reference(&pts, 150, &t, &meter, "workload shape");
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

    /// Every rectangle over `[0, universe + 3)²`, including those with
    /// `x2 ≥ U` or `x1` past the last column, against brute force.
    fn assert_all_rects(points: &[Point2], t: &RangeTree2D, universe: u32, what: &str) {
        let m = Meter::disabled();
        for x1 in 0..universe + 3 {
            for x2 in x1..universe + 3 {
                for (y1, y2) in [(0, u32::MAX), (0, universe / 2), (universe / 3, universe - 1)] {
                    assert_eq!(
                        t.sum_rect(x1, x2, y1, y2, &m),
                        brute(points, x1, x2, y1, y2),
                        "{what}: rect=[{x1},{x2}]x[{y1},{y2}]"
                    );
                }
            }
            let to_end = brute(points, x1, u32::MAX, 0, u32::MAX);
            assert_eq!(t.sum_rect(x1, u32::MAX, 0, u32::MAX, &m), to_end, "{what}: [{x1}, ∞)");
        }
    }

    #[test]
    fn column_layout_edge_cases() {
        let mut rng = StdRng::seed_from_u64(25);
        let mut pts = |m: usize, universe: u32, cols: &[u32]| -> Vec<Point2> {
            (0..m)
                .map(|_| Point2 {
                    x: cols[rng.random_range(0..cols.len())],
                    y: rng.random_range(0..universe),
                    w: rng.random_range(1..50),
                })
                .collect()
        };
        // Empty columns: only every third column and the last one hold
        // points, so whole nodes at every level are empty.
        let sparse: Vec<u32> = (0..50).filter(|x| x % 3 == 0).chain([49]).collect();
        let p = pts(300, 50, &sparse);
        for degree in [2, 3, 7] {
            let t = RangeTree2D::with_degree(p.clone(), degree, &Meter::disabled());
            assert_all_rects(&p, &t, 50, &format!("empty columns, degree={degree}"));
        }
        // A universe that is no power of the degree: 150 columns at
        // degree 4 (top width 256) and degree 6 (top width 216), so the
        // height is ⌈log_d 150⌉ + 1.
        let all: Vec<u32> = (0..150).collect();
        let p = pts(600, 150, &all);
        for (eps, degree, height) in [(0.25, 4, 5), (0.35, 6, 4)] {
            let t = RangeTree2D::build(p.clone(), 150, eps, &Meter::disabled());
            assert_eq!((t.degree(), t.height()), (degree, height));
            assert_all_rects(&p, &t, 150, &format!("universe 150, degree {}", t.degree()));
        }
        // Degree ≥ universe: one leaf level and the root.
        let p = pts(200, 20, &all[..20]);
        for degree in [20, 21, 1024] {
            let t = RangeTree2D::with_degree(p.clone(), degree, &Meter::disabled());
            assert_eq!(t.height(), 2);
            assert_all_rects(&p, &t, 20, &format!("degree={degree} ≥ universe"));
        }
        // m = 0 over a nonempty universe.
        let t = RangeTree2D::build(vec![], 40, 0.5, &Meter::disabled());
        assert_eq!((t.len(), t.total(), t.height()), (0, 0, 3));
        assert_all_rects(&[], &t, 40, "m = 0");
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
