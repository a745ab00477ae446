//! The cut-query structure (Lemma A.1 / A.2).
//!
//! Tree edges are identified by their lower endpoint `v` (the child of
//! the edge `(v, parent(v))`). Every graph edge `(a, b, w)` becomes two
//! grid points `(post(a), post(b))` and `(post(b), post(a))`, so for
//! disjoint postorder intervals `X, Y` the rectangle sum over `X x Y`
//! counts each `X`–`Y` edge exactly once.
//!
//! We work with the *coverage* formulation (GMW'21 style, equivalent to
//! the paper's three-case Lemma A.2; the equivalence is spelled out in
//! DESIGN.md and verified by brute force in the tests):
//!
//! * `cov(e)`   — weight of graph edges whose tree path uses `e`; equals
//!   the paper's `w(Te)` and is precomputed for all edges in `O(m log n
//!   + n)` by the LCA difference trick.
//! * `cov(e,f)` — weight of graph edges whose tree path uses both:
//!   `w(Te, Tf)` when the subtrees are disjoint, `w(T_low, T \ T_high)`
//!   when nested — one or two rectangle sums either way.
//! * `cut(e,f) = cov(e) + cov(f) - 2 cov(e,f)` in *every* configuration.

// lint: hotpath-module
use pmc_graph::Graph;
use pmc_parallel::meter::{CostKind, Meter};
use pmc_range::{Point2, RangeTree2D};
use pmc_tree::{LcaEngine, RootedTree};
use std::sync::Arc;

/// The grid answers rectangles from a dense prefix table when
/// `n² ≤ TABLE_CELLS_PER_EDGE · m`, and from Lemma 4.25's range tree
/// otherwise. At 16 the table's `8(n + 1)²` bytes stay within about
/// 128 B per edge, near the range tree's footprint, while a larger
/// factor raised peak memory 1.4–2.6× (DESIGN.md §5, "Dense grids").
const TABLE_CELLS_PER_EDGE: usize = 16;

/// `RangeNode` charge of one non-empty rectangle on the prefix table:
/// one per table load.
const TABLE_RECT_COST: u64 = 4;

/// How [`CutQuery::rect`] sums a rectangle of the `[n] × [n]` grid.
enum Grid {
    /// The `(n + 1)²` 2-D prefix table: `prefix[x·side + y]` is the
    /// weight of the points in `[0, x) × [0, y)`, `side = n + 1`.
    Table { side: usize, prefix: Vec<u64> },
    /// Lemma 4.25's `n^ε`-degree range tree.
    Tree(RangeTree2D),
}

impl Grid {
    /// The prefix table over both orientations of every edge: scatter
    /// each weight into cell `(x + 1, y + 1)`, then one running sum
    /// along every row and one down every column. Charges one
    /// `RangeNode` per point scattered and one per table cell.
    fn table(g: &Graph, tree: &RootedTree, meter: &Meter) -> Self {
        let side = tree.n() + 1;
        // HOTPATH: warmup — build-time table, allocated once per tree.
        let mut prefix = vec![0u64; side * side];
        for e in g.edges() {
            let (x, y) = (tree.post(e.u) as usize + 1, tree.post(e.v) as usize + 1);
            prefix[x * side + y] += e.w;
            prefix[y * side + x] += e.w;
        }
        for row in prefix.chunks_exact_mut(side) {
            let mut acc = 0;
            for c in row {
                acc += *c;
                *c = acc;
            }
        }
        for x in 1..side {
            let (above, row) = prefix[(x - 1) * side..][..2 * side].split_at_mut(side);
            for (c, a) in row.iter_mut().zip(above) {
                *c += *a;
            }
        }
        meter.add(CostKind::RangeNode, 2 * g.m() as u64 + (side * side) as u64);
        Grid::Table { side, prefix }
    }

    /// Lemma 4.25's range tree over both orientations of every edge.
    fn tree(g: &Graph, tree: &RootedTree, eps: f64, meter: &Meter) -> Self {
        let mut pts = Vec::with_capacity(g.m() * 2);
        for e in g.edges() {
            let (pu, pv) = (tree.post(e.u), tree.post(e.v));
            pts.push(Point2 { x: pu, y: pv, w: e.w });
            pts.push(Point2 { x: pv, y: pu, w: e.w });
        }
        Grid::Tree(RangeTree2D::build(pts, tree.n().max(2), eps, meter))
    }

    /// Sum over `[x1, x2] × [y1, y2]` (inclusive; empty if inverted).
    /// Always inlined, so a cut query on the tree calls `sum_rect`
    /// directly and one on the table does its four loads in place.
    #[inline(always)]
    fn rect(&self, x1: u32, x2: u32, y1: u32, y2: u32, meter: &Meter) -> u64 {
        match self {
            Grid::Table { side, prefix } => {
                let side = *side;
                let (x1, y1) = (x1 as usize, y1 as usize);
                let (x2, y2) = ((x2 as usize + 1).min(side - 1), (y2 as usize + 1).min(side - 1));
                if x1 >= x2 || y1 >= y2 {
                    return 0;
                }
                meter.add(CostKind::RangeNode, TABLE_RECT_COST);
                let at = |x: usize, y: usize| prefix[x * side + y];
                // Two row strips `[0, x) × [y1, y2]`, each non-negative,
                // the first containing the second: no step underflows.
                (at(x2, y2) - at(x2, y1)) - (at(x1, y2) - at(x1, y1))
            }
            Grid::Tree(t) => t.sum_rect(x1, x2, y1, y2, meter),
        }
    }

    /// 1 for the table, whose build is two independent prefix passes;
    /// the range tree's level count otherwise.
    fn height(&self) -> usize {
        match self {
            Grid::Table { .. } => 1,
            Grid::Tree(t) => t.height(),
        }
    }
}

/// Cut queries for a fixed spanning tree of a fixed graph.
///
/// The tree is held through an [`Arc`] so the structure can live inside
/// a tree-lifetime context ([`crate::engine::TreeContext`]) alongside
/// the other per-tree structures without borrowing across fields.
pub struct CutQuery<'a> {
    g: &'a Graph,
    tree: Arc<RootedTree>,
    grid: Grid,
    /// `cov[v]` = `w(T_{e_v})` for the tree edge below `v`; 0 at the root.
    cov: Vec<u64>,
    /// Largest valid coordinate (`n - 1`).
    max_coord: u32,
}

impl<'a> CutQuery<'a> {
    /// Preprocess the grid of Lemma 4.25. A dense grid, `n² ≤ C·m`
    /// with `C` = 16, becomes the `(n + 1)²` prefix table, `O(n² + m) =
    /// O(m)` work and four loads per rectangle; any other grid gets the
    /// `n^eps`-degree range tree. `eps` only shapes the range tree:
    /// close to `1/log n` it gives the binary-tree profile, and larger
    /// `eps` trades query fan-out for height (Theorem 4.26's knob).
    ///
    /// The two halves of the build are independent given the LCA table —
    /// the grid points only need postorder numbers, the coverage array
    /// only the LCA difference trick — so they fork under `rayon::join`
    /// (DESIGN.md §8).
    ///
    /// The coverage pass issues one LCA query *per graph edge* — the
    /// single largest LCA volume in the solver — so it goes through
    /// [`LcaEngine::lca_metered`] and the
    /// [`pmc_parallel::meter::CostKind::LcaStep`] gauge records whether
    /// those `m` queries cost `O(1)` or `O(log n)` probes each.
    pub fn build(
        g: &'a Graph,
        tree: &Arc<RootedTree>,
        lca: &LcaEngine,
        eps: f64,
        meter: &Meter,
    ) -> Self {
        let n = tree.n();
        assert_eq!(g.n(), n, "graph and tree must share the vertex set");
        let (grid, cov) = rayon::join(
            || {
                if n * n <= TABLE_CELLS_PER_EDGE * g.m() {
                    Grid::table(g, tree, meter)
                } else {
                    Grid::tree(g, tree, eps, meter)
                }
            },
            || {
                // cov via the LCA difference trick: +w at both endpoints,
                // -2w at the LCA; subtree sums in postorder.
                // HOTPATH: warmup — build-time array, once per tree.
                let mut diff = vec![0i64; n];
                for e in g.edges() {
                    let l = lca.lca_metered(e.u, e.v, meter);
                    diff[e.u as usize] += e.w as i64;
                    diff[e.v as usize] += e.w as i64;
                    diff[l as usize] -= 2 * e.w as i64;
                }
                meter.add(CostKind::TreeOp, g.m() as u64 + n as u64);
                // HOTPATH: warmup — build-time array, once per tree.
                let mut cov_acc = vec![0i64; n];
                for idx in 0..n as u32 {
                    let v = tree.vertex_at_post(idx);
                    let mut acc = diff[v as usize];
                    for &c in tree.children(v) {
                        acc += cov_acc[c as usize];
                    }
                    cov_acc[v as usize] = acc;
                }
                // HOTPATH: warmup — the coverage arena itself.
                cov_acc
                    .into_iter()
                    .map(|x| u64::try_from(x).expect("coverage must be non-negative"))
                    .collect::<Vec<u64>>()
            },
        );
        meter.record_depth("cutquery:range_height", grid.height() as u64);
        CutQuery {
            g,
            tree: Arc::clone(tree),
            grid,
            cov,
            max_coord: (n as u32).saturating_sub(1),
        }
    }

    #[inline]
    pub fn graph(&self) -> &Graph {
        self.g
    }

    #[inline]
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }

    /// Height of the underlying 2-D range tree (depth accounting); 1
    /// when a dense grid is answered from the prefix table.
    #[inline]
    pub fn range_height(&self) -> usize {
        self.grid.height()
    }

    /// `w(Te)` for the edge below `v` — the 1-respecting cut value.
    #[inline]
    pub fn cov(&self, v: u32) -> u64 {
        self.cov[v as usize]
    }

    /// The whole coverage array, indexed by lower endpoint (`cov[root]`
    /// is 0) — the batched form of [`CutQuery::cov`]: stages that scan
    /// every 1-respecting value read one slice instead of probing vertex
    /// by vertex.
    #[inline]
    pub fn cov_all(&self) -> &[u64] {
        &self.cov
    }

    /// Rectangle sum over `[x1,x2] x [y1,y2]` (inclusive; empty if
    /// inverted).
    #[inline]
    pub fn rect(&self, x1: u32, x2: u32, y1: u32, y2: u32, meter: &Meter) -> u64 {
        self.grid.rect(x1, x2, y1, y2, meter)
    }

    /// The grid rectangles whose sum is `cov(e, f)`, for distinct
    /// non-root `e` and `f`: `T_e × T_f` for disjoint subtrees; for
    /// nested ones, the lower subtree against each slab of the
    /// complement of the upper subtree's postorder interval. A slot
    /// with nothing to sum holds an inverted (empty) rectangle.
    #[inline]
    pub fn cov2_rects(&self, e: u32, f: u32) -> [(u32, u32, u32, u32); 2] {
        const EMPTY: (u32, u32, u32, u32) = (1, 0, 1, 0);
        let t = &self.tree;
        let (hi, lo) = if t.is_ancestor(e, f) {
            (e, f)
        } else if t.is_ancestor(f, e) {
            (f, e)
        } else {
            return [(t.start(e), t.post(e), t.start(f), t.post(f)), EMPTY];
        };
        let (x1, x2) = (t.start(lo), t.post(lo));
        let (hs, hp) = (t.start(hi), t.post(hi));
        [
            if hs > 0 { (x1, x2, 0, hs - 1) } else { EMPTY },
            if hp < self.max_coord { (x1, x2, hp + 1, self.max_coord) } else { EMPTY },
        ]
    }

    /// `cov(e, f)`: weight of graph edges covering both tree edges.
    /// `e` and `f` are lower endpoints; must be distinct non-roots.
    pub fn cov2(&self, e: u32, f: u32, meter: &Meter) -> u64 {
        debug_assert_ne!(e, f);
        meter.bump(CostKind::CutQuery);
        // Inlined, the empty slot of a disjoint pair is a constant and
        // its filter folds away: no call is made for it.
        self.cov2_rects(e, f)
            .iter()
            .filter(|&&(x1, x2, y1, y2)| x1 <= x2 && y1 <= y2)
            .map(|&(x1, x2, y1, y2)| self.rect(x1, x2, y1, y2, meter))
            .sum()
    }

    /// The 2-respecting cut value determined by tree edges `e` and `f`
    /// (Lemma A.2): `cov(e) + cov(f) - 2 cov(e, f)`.
    pub fn cut(&self, e: u32, f: u32, meter: &Meter) -> u64 {
        if e == f {
            return self.cov(e);
        }
        self.cov(e) + self.cov(f) - 2 * self.cov2(e, f, meter)
    }

    /// The vertex side realizing `cut(e, f)` (for result extraction):
    /// nested: `T_high \ T_low`; disjoint: `T_e ∪ T_f`.
    pub fn cut_side(&self, e: u32, f: u32) -> Vec<u32> {
        let t = &self.tree;
        let interval = |v: u32| (t.start(v), t.post(v));
        if e == f {
            let (s, p) = interval(e);
            // HOTPATH: warmup — result extraction, once per solve.
            return (s..=p).map(|i| t.vertex_at_post(i)).collect();
        }
        if t.is_ancestor(e, f) || t.is_ancestor(f, e) {
            let (hi, lo) = if t.is_ancestor(e, f) { (e, f) } else { (f, e) };
            let (hs, hp) = interval(hi);
            let (ls, lp) = interval(lo);
            // HOTPATH: warmup — result extraction, once per solve.
            (hs..=hp).filter(|&i| i < ls || i > lp).map(|i| t.vertex_at_post(i)).collect()
        } else {
            let (es, ep) = interval(e);
            let (fs, fp) = interval(f);
            // HOTPATH: warmup — result extraction, once per solve.
            (es..=ep).chain(fs..=fp).map(|i| t.vertex_at_post(i)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_graph::graph::cut_of_partition;
    use pmc_graph::{generators, Graph};
    use pmc_parallel::spanning_forest::spanning_forest;
    use pmc_tree::LcaStrategy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn spanning_tree_of(g: &Graph, root: u32) -> Arc<RootedTree> {
        let forest = spanning_forest(g, &Meter::disabled());
        let edges: Vec<(u32, u32)> =
            forest.iter().map(|&i| (g.edge(i as usize).u, g.edge(i as usize).v)).collect();
        Arc::new(RootedTree::from_edge_list(g.n(), &edges, root))
    }

    fn lca_of(t: &RootedTree) -> LcaEngine {
        LcaEngine::build(t, LcaStrategy::default(), &Meter::disabled())
    }

    /// Brute-force cov(e): edges with exactly one endpoint below v.
    fn brute_cov(g: &Graph, t: &RootedTree, v: u32) -> u64 {
        g.edges()
            .iter()
            .filter(|e| t.is_ancestor(v, e.u) != t.is_ancestor(v, e.v))
            .map(|e| e.w)
            .sum()
    }

    /// Brute-force cut(e, f) from the explicit vertex partition.
    fn brute_cut(g: &Graph, t: &RootedTree, e: u32, f: u32) -> u64 {
        let mut side = vec![false; g.n()];
        if t.is_ancestor(e, f) || t.is_ancestor(f, e) {
            let (hi, lo) = if t.is_ancestor(e, f) { (e, f) } else { (f, e) };
            for v in 0..g.n() as u32 {
                side[v as usize] = t.is_ancestor(hi, v) && !t.is_ancestor(lo, v);
            }
        } else {
            for v in 0..g.n() as u32 {
                side[v as usize] = t.is_ancestor(e, v) || t.is_ancestor(f, v);
            }
        }
        cut_of_partition(g, &side)
    }

    #[test]
    fn cov_matches_bruteforce() {
        let mut rng = StdRng::seed_from_u64(101);
        for trial in 0..10 {
            let g = generators::gnm_connected(30, 60, 9, &mut rng);
            let t = spanning_tree_of(&g, trial % 30);
            let lca = lca_of(&t);
            let meter = Meter::enabled();
            let q = CutQuery::build(&g, &t, &lca, 0.3, &meter);
            for v in 0..30u32 {
                if v == t.root() {
                    continue;
                }
                assert_eq!(q.cov(v), brute_cov(&g, &t, v), "trial {trial} vertex {v}");
            }
            // The coverage pass probes each graph edge once, one step per
            // sparse-table probe.
            assert_eq!(meter.get(CostKind::LcaStep), g.m() as u64, "trial {trial}");
        }
    }

    #[test]
    fn cut_matches_bruteforce_all_pairs() {
        let mut rng = StdRng::seed_from_u64(102);
        for trial in 0..6 {
            let g = generators::gnm_connected(18, 40, 7, &mut rng);
            let t = spanning_tree_of(&g, 0);
            let lca = lca_of(&t);
            let q = CutQuery::build(&g, &t, &lca, 0.5, &Meter::disabled());
            let m = Meter::disabled();
            for e in 1..18u32 {
                for f in 1..18u32 {
                    if e == f || e == t.root() || f == t.root() {
                        continue;
                    }
                    assert_eq!(
                        q.cut(e, f, &m),
                        brute_cut(&g, &t, e, f),
                        "trial {trial} pair ({e},{f})"
                    );
                }
            }
        }
    }

    #[test]
    fn cov2_symmetric() {
        let mut rng = StdRng::seed_from_u64(103);
        let g = generators::gnm_connected(25, 70, 5, &mut rng);
        let t = spanning_tree_of(&g, 0);
        let lca = lca_of(&t);
        let q = CutQuery::build(&g, &t, &lca, 0.4, &Meter::disabled());
        let m = Meter::disabled();
        for e in 1..25u32 {
            for f in e + 1..25u32 {
                assert_eq!(q.cov2(e, f, &m), q.cov2(f, e, &m), "pair ({e},{f})");
            }
        }
    }

    #[test]
    fn cut_side_realizes_value() {
        let mut rng = StdRng::seed_from_u64(104);
        let g = generators::gnm_connected(16, 35, 6, &mut rng);
        let t = spanning_tree_of(&g, 0);
        let lca = lca_of(&t);
        let q = CutQuery::build(&g, &t, &lca, 0.5, &Meter::disabled());
        let m = Meter::disabled();
        for e in 1..16u32 {
            for f in 1..16u32 {
                if e == f {
                    continue;
                }
                let side_vs = q.cut_side(e, f);
                let mut side = vec![false; 16];
                for &v in &side_vs {
                    side[v as usize] = true;
                }
                assert_eq!(
                    cut_of_partition(&g, &side),
                    q.cut(e, f, &m),
                    "pair ({e},{f})"
                );
                assert!(!side_vs.is_empty() && side_vs.len() < 16, "proper side");
            }
        }
    }

    #[test]
    fn one_respecting_equals_cov() {
        let mut rng = StdRng::seed_from_u64(105);
        let g = generators::gnm_connected(20, 50, 4, &mut rng);
        let t = spanning_tree_of(&g, 0);
        let lca = lca_of(&t);
        let q = CutQuery::build(&g, &t, &lca, 0.5, &Meter::disabled());
        for v in 1..20u32 {
            // cut(e, e) degenerates to the 1-respecting cut.
            assert_eq!(q.cut(v, v, &Meter::disabled()), q.cov(v));
            // And the side is the subtree.
            let side_vs = q.cut_side(v, v);
            assert_eq!(side_vs.len() as u32, t.size(v));
        }
    }

    /// Two range trees of different degree answer alike. The graph is
    /// sparse enough (`n² > 16·m`) that neither build takes the table.
    #[test]
    fn eps_variants_agree() {
        let mut rng = StdRng::seed_from_u64(106);
        let g = generators::gnm_connected(60, 90, 8, &mut rng);
        let t = spanning_tree_of(&g, 0);
        let lca = lca_of(&t);
        let m = Meter::disabled();
        let q1 = CutQuery::build(&g, &t, &lca, 0.12, &m);
        let q2 = CutQuery::build(&g, &t, &lca, 0.9, &m);
        assert!(q1.range_height() > q2.range_height() && q2.range_height() > 1);
        for e in 1..60u32 {
            for f in (e + 1..60u32).step_by(3) {
                assert_eq!(q1.cut(e, f, &m), q2.cut(e, f, &m));
            }
        }
    }

    /// All-pairs `cut(e, f)` against the explicit partition on graphs
    /// on both sides of the `n² ≤ 16·m` threshold, with the path each
    /// build took read from `range_height()`: 1 on the prefix table,
    /// more on the range tree.
    #[test]
    fn cut_matches_bruteforce_on_both_grid_paths() {
        let mut rng = StdRng::seed_from_u64(109);
        let cases = [
            ("complete", generators::complete(14, 3), true),
            ("near_clique", generators::near_clique(24, 0.3, 9, &mut rng), true),
            ("gnm 20/60", generators::gnm_connected(20, 60, 5, &mut rng), true),
            ("cycle", generators::cycle(30, 4), false),
            ("gnm 40/40", generators::gnm_connected(40, 40, 7, &mut rng), false),
        ];
        for (name, g, on_table) in cases {
            let n = g.n() as u32;
            let dense = g.n() * g.n() <= 16 * g.m();
            assert_eq!(dense, on_table, "{name}: wrong side of the threshold");
            // A spanning-forest tree and a path tree (every pair nested).
            let path: Vec<u32> = (0..n).map(|v| v.saturating_sub(1)).collect();
            for t in [spanning_tree_of(&g, n / 2), Arc::new(RootedTree::from_parents(0, &path))] {
                let lca = lca_of(&t);
                let q = CutQuery::build(&g, &t, &lca, 0.5, &Meter::disabled());
                assert_eq!(q.range_height() == 1, on_table, "{name}: height {}", q.range_height());
                let m = Meter::disabled();
                for e in (0..n).filter(|&v| v != t.root()) {
                    for f in (e + 1..n).filter(|&v| v != t.root()) {
                        assert_eq!(q.cut(e, f, &m), brute_cut(&g, &t, e, f), "{name} ({e},{f})");
                    }
                }
            }
        }
    }

    /// The prefix table's rectangle sums equal `RangeTree2D::sum_rect`
    /// over the same grid points, on random rectangles that include
    /// inverted and out-of-range ones, and the build charges one
    /// `RangeNode` per point plus one per table cell.
    #[test]
    fn table_rects_match_range_tree() {
        let mut rng = StdRng::seed_from_u64(110);
        let g = generators::near_clique(40, 0.2, 50, &mut rng);
        let t = spanning_tree_of(&g, 7);
        let lca = lca_of(&t);
        let build = Meter::enabled();
        let q = CutQuery::build(&g, &t, &lca, 0.5, &build);
        assert_eq!(q.range_height(), 1, "a near-clique takes the table");
        assert_eq!(build.get(CostKind::RangeNode), 2 * g.m() as u64 + 41 * 41);
        let pts = g
            .edges()
            .iter()
            .flat_map(|e| {
                let (x, y) = (t.post(e.u), t.post(e.v));
                [Point2 { x, y, w: e.w }, Point2 { x: y, y: x, w: e.w }]
            })
            .collect();
        let tree = RangeTree2D::build(pts, 40, 0.5, &Meter::disabled());
        let m = Meter::disabled();
        for _ in 0..2_000 {
            let [x1, x2, y1, y2] = [(); 4].map(|_| rng.random_range(0..45u32));
            assert_eq!(
                q.rect(x1, x2, y1, y2, &m),
                tree.sum_rect(x1, x2, y1, y2, &m),
                "[{x1},{x2}] x [{y1},{y2}]"
            );
        }
        let per_rect = Meter::enabled();
        let _ = q.rect(0, 39, 0, 39, &per_rect);
        let _ = q.rect(5, 4, 0, 39, &per_rect);
        assert_eq!(per_rect.get(CostKind::RangeNode), TABLE_RECT_COST, "empty rects are free");
    }

    /// A complete graph whose total weight is the largest `parse_graph`
    /// accepts: the table's cells reach `2W < 2^63`, and every cut still
    /// matches the explicit partition, so the `u64` prefix arithmetic
    /// cannot overflow on any accepted input.
    #[test]
    fn table_handles_the_largest_accepted_weight() {
        use pmc_graph::io::parse_graph;
        use pmc_graph::TOTAL_WEIGHT_LIMIT;
        let n = 9u32;
        let pairs: Vec<(u32, u32)> =
            (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect();
        let total = TOTAL_WEIGHT_LIMIT - 1;
        let (each, rest) = (total / pairs.len() as u64, total % pairs.len() as u64);
        let mut text = format!("p {n} {}\n", pairs.len());
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let w = if i == 0 { each + rest } else { each };
            text += &format!("e {u} {v} {w}\n");
        }
        let g = parse_graph(&text).expect("total weight is below the limit");
        assert_eq!(g.edges().iter().map(|e| e.w).sum::<u64>(), total);
        let path: Vec<u32> = (0..n).map(|v| v.saturating_sub(1)).collect();
        for t in [spanning_tree_of(&g, 4), Arc::new(RootedTree::from_parents(0, &path))] {
            let lca = lca_of(&t);
            let q = CutQuery::build(&g, &t, &lca, 0.5, &Meter::disabled());
            assert_eq!(q.range_height(), 1, "a complete graph takes the table");
            let m = Meter::disabled();
            for e in (0..n).filter(|&v| v != t.root()) {
                assert_eq!(q.cut(e, e, &m), brute_cov(&g, &t, e), "edge {e}");
                for f in (e + 1..n).filter(|&v| v != t.root()) {
                    assert_eq!(q.cut(e, f, &m), brute_cut(&g, &t, e, f), "pair ({e},{f})");
                }
            }
        }
    }

    #[test]
    fn path_graph_cuts() {
        // On a path graph with a path tree, cut(e_i, e_j) severs the
        // middle segment: exactly the two tree edges (no non-tree edges).
        let g = generators::path(10, 5);
        let parent: Vec<u32> = (0..10u32).map(|v| v.saturating_sub(1)).collect();
        let t = Arc::new(RootedTree::from_parents(0, &parent));
        let lca = lca_of(&t);
        let q = CutQuery::build(&g, &t, &lca, 0.5, &Meter::disabled());
        let m = Meter::disabled();
        for e in 1..10u32 {
            assert_eq!(q.cov(e), 5, "each edge is a 1-cut of weight 5");
            for f in e + 1..10u32 {
                assert_eq!(q.cut(e, f, &m), 10, "two path edges sever 10");
            }
        }
    }

    /// `TreeContext::cut_batch_into` answers a batch of duplicates,
    /// `e == f` degenerates, nested and disjoint pairs with the per-pair
    /// `cut` values in request order, and charges exactly the per-pair
    /// `CutQuery` and `RangeNode` totals, on both grid paths.
    #[test]
    fn cut_batch_matches_per_pair_probes_on_both_grid_paths() {
        use crate::engine::TreeContext;
        use crate::two_respect::TwoRespectParams;
        let mut rng = StdRng::seed_from_u64(108);
        // n² ≤ 16·m on the first graph (prefix table), not on the second.
        let cases = [
            (generators::gnm_connected(30, 80, 6, &mut rng), true),
            (generators::gnm_connected(60, 90, 6, &mut rng), false),
        ];
        for (g, on_table) in cases {
            let n = g.n() as u32;
            let (params, off) = (TwoRespectParams::default(), Meter::disabled());
            let ctx = TreeContext::build(&g, spanning_tree_of(&g, 0), &params, &off);
            let (t, q) = (ctx.tree(), ctx.cut_query());
            assert_eq!(q.range_height() == 1, on_table, "n {n}: height {}", q.range_height());
            let edges: Vec<u32> = (0..n).filter(|&v| v != t.root()).collect();
            let distinct = edges.iter().flat_map(|&e| edges.iter().map(move |&f| (e, f)));
            let nested = |&(e, f): &(u32, u32)| t.is_ancestor(e, f) || t.is_ancestor(f, e);
            let mut pairs: Vec<(u32, u32)> =
                distinct.clone().filter(|p| p.0 != p.1 && nested(p)).take(40).collect();
            pairs.extend(distinct.filter(|p| !nested(p)).take(40));
            assert_eq!(pairs.len(), 80, "n {n}: 40 nested and 40 disjoint pairs");
            pairs.extend(edges.iter().step_by(5).map(|&e| (e, e)));
            let hot: Vec<(u32, u32)> =
                (0..200).map(|_| pairs[rng.random_range(0..pairs.len())]).collect();
            pairs.extend(hot);

            let (batched, probed) = (Meter::enabled(), Meter::enabled());
            let mut out = vec![u64::MAX; 5];
            ctx.cut_batch_into(&pairs, &mut out, &batched);
            let expect: Vec<u64> = pairs.iter().map(|&(e, f)| q.cut(e, f, &probed)).collect();
            assert_eq!(out, expect, "n {n}");
            assert!(probed.get(CostKind::CutQuery) > 0);
            for kind in [CostKind::CutQuery, CostKind::RangeNode] {
                assert_eq!(batched.get(kind), probed.get(kind), "n {n}: {kind:?}");
            }
        }
    }

    #[test]
    fn meter_counts_queries() {
        let mut rng = StdRng::seed_from_u64(107);
        let g = generators::gnm_connected(12, 25, 3, &mut rng);
        let t = spanning_tree_of(&g, 0);
        let lca = lca_of(&t);
        let q = CutQuery::build(&g, &t, &lca, 0.5, &Meter::disabled());
        let meter = Meter::enabled();
        let _ = q.cut(1, 2, &meter);
        let _ = q.cut(3, 4, &meter);
        assert_eq!(meter.get(CostKind::CutQuery), 2);
        assert!(meter.get(CostKind::RangeNode) > 0);
    }
}
