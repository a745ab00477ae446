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
use pmc_fault::{Deadline, SolveQuality};
use pmc_graph::Graph;
use pmc_parallel::meter::{CostKind, Meter};
use pmc_parallel::scratch::{with_scratch, Scratch};
use pmc_range::{Point2, RangeTree2D};
use pmc_tree::{LcaOracle, RootedTree};
use std::sync::Arc;

/// Result of a deadline-bounded batch ([`CutQuery::cut_batch_until`]):
/// the values for the prefix of the request that completed, how long
/// that prefix is, and whether the batch ran to the end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Cut values for `pairs[..completed]`, in request order.
    pub values: Vec<u64>,
    /// How many requested pairs were answered (`values.len()`).
    pub completed: usize,
    /// [`SolveQuality::Exact`] iff every requested pair was answered.
    pub quality: SolveQuality,
}

/// Cut queries for a fixed spanning tree of a fixed graph.
///
/// The tree is held through an [`Arc`] so the structure can live inside
/// a tree-lifetime context ([`crate::engine::TreeContext`]) alongside
/// the other per-tree structures without borrowing across fields.
pub struct CutQuery<'a> {
    g: &'a Graph,
    tree: Arc<RootedTree>,
    points: RangeTree2D,
    /// `cov[v]` = `w(T_{e_v})` for the tree edge below `v`; 0 at the root.
    cov: Vec<u64>,
    /// Largest valid coordinate (`n - 1`).
    max_coord: u32,
}

impl<'a> CutQuery<'a> {
    /// Preprocess with the `n^eps`-degree range tree of Lemma 4.25.
    /// `eps` close to `1/log n` gives the binary-tree profile; larger
    /// `eps` trades query fan-out for height (Theorem 4.26's knob).
    ///
    /// The two halves of the build are independent given the LCA table —
    /// the grid points only need postorder numbers, the coverage array
    /// only the LCA difference trick — so they fork under `rayon::join`
    /// (DESIGN.md §8).
    ///
    /// Generic over the LCA substrate: the coverage pass issues one LCA
    /// query *per graph edge* — the single largest LCA volume in the
    /// solver — so it goes through [`LcaOracle::lca_metered`] and the
    /// [`pmc_parallel::meter::CostKind::LcaStep`] gauge records whether
    /// those `m` queries cost `O(1)` or `O(log n)` probes each.
    pub fn build<L: LcaOracle>(
        g: &'a Graph,
        tree: &Arc<RootedTree>,
        lca: &L,
        eps: f64,
        meter: &Meter,
    ) -> Self {
        let n = tree.n();
        assert_eq!(g.n(), n, "graph and tree must share the vertex set");
        let (points, cov) = rayon::join(
            || {
                // Grid points, both orientations.
                let mut pts = Vec::with_capacity(g.m() * 2);
                for e in g.edges() {
                    let (pu, pv) = (tree.post(e.u), tree.post(e.v));
                    pts.push(Point2 { x: pu, y: pv, w: e.w });
                    pts.push(Point2 { x: pv, y: pu, w: e.w });
                }
                RangeTree2D::build(pts, n.max(2), eps, meter)
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
        meter.record_depth("cutquery:range_height", points.height() as u64);
        CutQuery {
            g,
            tree: Arc::clone(tree),
            points,
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

    /// A shared handle on the tree (for contexts that outlive borrows).
    #[inline]
    pub fn tree_handle(&self) -> Arc<RootedTree> {
        Arc::clone(&self.tree)
    }

    /// Height of the underlying 2-D range tree (depth accounting).
    #[inline]
    pub fn range_height(&self) -> usize {
        self.points.height()
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

    /// Batched coverage lookup over a slice of tree edges — a gather
    /// from the flat coverage arena into a caller-owned buffer.
    /// Allocation free once `out` is warm: this is the steady-state
    /// serving form gated by the counting-allocator smoke.
    pub fn cov_batch_into(&self, es: &[u32], out: &mut Vec<u64>) {
        // Delay/exhaust-capable probe (inert unless a fault plan is
        // armed): lets chaos plans stall or expire a batch stage.
        pmc_fault::point("engine:cov_batch");
        out.clear();
        out.extend(es.iter().map(|&v| self.cov(v)));
    }

    /// Batched coverage lookup returning a fresh buffer — the
    /// convenience form of [`CutQuery::cov_batch_into`].
    pub fn cov_batch(&self, es: &[u32]) -> Vec<u64> {
        // HOTPATH: warmup — compat wrapper; the zero-alloc serving path
        // is `cov_batch_into` with a caller-owned buffer.
        let mut out = Vec::with_capacity(es.len());
        self.cov_batch_into(es, &mut out);
        out
    }

    /// Batched cut queries into caller-owned buffers, deterministic
    /// output order. `e == f` entries degenerate to the 1-respecting
    /// value, mirroring [`CutQuery::cut`].
    ///
    /// Large batches are grouped on the packed `(e, f)` key so
    /// duplicate pairs — common when many clients probe the same hot
    /// cuts — are evaluated once and scattered back to every requester;
    /// the meter consequently counts *distinct* queries. Small batches
    /// skip the grouping pass and map directly.
    ///
    /// All transients live in `scratch`; every distinct pair's 1–2
    /// complement rectangles are submitted to the range tree's fused
    /// single-sweep kernel ([`RangeTree2D::sum_rects_tagged`]) rather
    /// than probed pair by pair. With warm buffers the whole batch runs
    /// with **zero heap allocations** (the counting-allocator gate in
    /// `pmc-bench` pins this), and the values and meter charges are
    /// bit-identical to per-pair [`CutQuery::cut`] probes.
    pub fn cut_batch_with(
        &self,
        pairs: &[(u32, u32)],
        scratch: &mut Scratch,
        out: &mut Vec<u64>,
        meter: &Meter,
    ) {
        // Delay/exhaust-capable probe, see `cov_batch_into`.
        pmc_fault::point("engine:cut_batch");
        /// Below this size the sort costs more than duplicate probes.
        const GROUP_CUTOFF: usize = 64;
        out.clear();
        if pairs.len() < GROUP_CUTOFF {
            out.extend(pairs.iter().map(|&(e, f)| self.cut(e, f, meter)));
            return;
        }
        // Tag each pair with its slot and sort. `sort_unstable` on the
        // full `(key, slot)` tuple is in-place (no allocation) and —
        // because slots are distinct and ascending per input order —
        // produces exactly the stable-by-key order the grouping relies
        // on.
        scratch.keys.clear();
        scratch
            .keys
            .extend(pairs.iter().enumerate().map(|(i, &(e, f))| {
                (((e as u64) << 32) | f as u64, i as u32)
            }));
        scratch.keys.sort_unstable();
        scratch.runs.clear();
        scratch.vals.clear();
        scratch.rects.clear();
        let mut i = 0;
        while i < scratch.keys.len() {
            let key = scratch.keys[i].0;
            let mut j = i + 1;
            while j < scratch.keys.len() && scratch.keys[j].0 == key {
                j += 1;
            }
            let ri = scratch.runs.len() as u32;
            scratch.runs.push((i as u32, j as u32));
            // One evaluation per distinct pair: the additive part now,
            // the rectangle part deferred to the fused sweep below.
            let (e, f) = ((key >> 32) as u32, key as u32);
            if e == f {
                scratch.vals.push(self.cov(e));
            } else {
                meter.bump(CostKind::CutQuery);
                scratch.vals.push(self.cov(e) + self.cov(f));
                self.push_cov2_rects(e, f, ri, &mut scratch.rects);
            }
            i = j;
        }
        // Fused range-tree pass: every distinct pair's rectangles,
        // answered in one sorted sweep over the flat arena.
        scratch.acc.clear();
        scratch.acc.resize(scratch.runs.len(), 0);
        self.points.sum_rects_tagged(&scratch.rects, &mut scratch.acc, &mut scratch.cover, meter);
        out.resize(pairs.len(), 0);
        for (ri, &(lo, hi)) in scratch.runs.iter().enumerate() {
            let value = scratch.vals[ri] - 2 * scratch.acc[ri];
            for &(_, slot) in &scratch.keys[lo as usize..hi as usize] {
                out[slot as usize] = value;
            }
        }
    }

    /// Batched cut queries returning a fresh buffer — the convenience
    /// form of [`CutQuery::cut_batch_with`] over a pooled workspace.
    pub fn cut_batch(&self, pairs: &[(u32, u32)], meter: &Meter) -> Vec<u64> {
        // HOTPATH: warmup — compat wrapper; the zero-alloc serving path
        // is `cut_batch_with` with caller-owned buffers.
        let mut out = Vec::with_capacity(pairs.len());
        with_scratch(|s| self.cut_batch_with(pairs, s, &mut out, meter));
        out
    }

    /// The tagged complement rectangles of `cov(e, f)` for distinct
    /// `e != f` — exactly the rectangles [`CutQuery::cov2`] probes,
    /// emitted for the fused sweep instead of queried on the spot.
    fn push_cov2_rects(&self, e: u32, f: u32, tag: u32, rects: &mut Vec<(u32, u32, u32, u32, u32)>) {
        let t = &self.tree;
        // Nested: edges from T_low to outside T_high (two complement
        // slabs). Disjoint: the single between-subtrees rectangle.
        let (a, b) = if t.is_ancestor(e, f) {
            (f, e)
        } else if t.is_ancestor(f, e) {
            (e, f)
        } else {
            rects.push((t.start(e), t.post(e), t.start(f), t.post(f), tag));
            return;
        };
        let (ax1, ax2) = (t.start(a), t.post(a));
        let (bs, bp) = (t.start(b), t.post(b));
        if bs > 0 {
            rects.push((ax1, ax2, 0, bs - 1, tag));
        }
        if bp < self.max_coord {
            rects.push((ax1, ax2, bp + 1, self.max_coord, tag));
        }
    }

    /// [`CutQuery::cut_batch`] under a cooperative [`Deadline`]: the
    /// pair slice is processed in chunks, the token is consulted
    /// (non-consuming) at each chunk boundary, and on expiry the values
    /// computed so far are returned with `completed < pairs.len()` and
    /// a [`SolveQuality::Degraded`] flag. A batch that runs to the end
    /// is bit-identical to `cut_batch` and flagged
    /// [`SolveQuality::Exact`].
    pub fn cut_batch_until(
        &self,
        pairs: &[(u32, u32)],
        deadline: &Deadline,
        meter: &Meter,
    ) -> BatchOutcome {
        /// Chunk granularity: coarse enough that the per-chunk deadline
        /// probe is noise, fine enough that expiry reacts quickly.
        const CHUNK: usize = 256;
        // HOTPATH: warmup — the result buffer handed to the caller.
        let mut values = Vec::with_capacity(pairs.len());
        let mut quality = SolveQuality::Exact;
        // One workspace and one chunk buffer serve every chunk: past the
        // first chunk the loop body is allocation free.
        with_scratch(|s| {
            // HOTPATH: warmup — reused across all chunks of this batch.
            let mut chunk_out = Vec::with_capacity(CHUNK);
            for chunk in pairs.chunks(CHUNK) {
                if deadline.expired() {
                    quality = SolveQuality::Degraded(deadline.degrade_reason("cut_batch"));
                    break;
                }
                self.cut_batch_with(chunk, s, &mut chunk_out, meter);
                values.extend_from_slice(&chunk_out);
            }
        });
        BatchOutcome { completed: values.len(), values, quality }
    }

    /// Rectangle sum over `[x1,x2] x [y1,y2]` (inclusive; empty if
    /// inverted).
    pub fn rect(&self, x1: u32, x2: u32, y1: u32, y2: u32, meter: &Meter) -> u64 {
        self.points.sum_rect(x1, x2, y1, y2, meter)
    }

    /// Weight of graph edges from inside subtree(`a`) to *outside*
    /// subtree(`b`), where subtree(`a`) ⊆ subtree(`b`). The complement
    /// of `b`'s postorder interval splits into two slabs, submitted as
    /// one rectangle batch.
    fn weight_to_outside(&self, a: u32, b: u32, meter: &Meter) -> u64 {
        let (ax1, ax2) = (self.tree.start(a), self.tree.post(a));
        let (bs, bp) = (self.tree.start(b), self.tree.post(b));
        let mut rects = [(0u32, 0u32, 0u32, 0u32); 2];
        let mut k = 0;
        if bs > 0 {
            rects[k] = (ax1, ax2, 0, bs - 1);
            k += 1;
        }
        if bp < self.max_coord {
            rects[k] = (ax1, ax2, bp + 1, self.max_coord);
            k += 1;
        }
        self.points.sum_rects(&rects[..k], meter)
    }

    /// `cov(e, f)`: weight of graph edges covering both tree edges.
    /// `e` and `f` are lower endpoints; must be distinct non-roots.
    pub fn cov2(&self, e: u32, f: u32, meter: &Meter) -> u64 {
        debug_assert_ne!(e, f);
        meter.bump(CostKind::CutQuery);
        let t = &self.tree;
        if t.is_ancestor(e, f) {
            // f strictly below e: edges from T_f to outside T_e.
            self.weight_to_outside(f, e, meter)
        } else if t.is_ancestor(f, e) {
            self.weight_to_outside(e, f, meter)
        } else {
            // Disjoint subtrees: edges between them.
            self.rect(t.start(e), t.post(e), t.start(f), t.post(f), meter)
        }
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
    use pmc_tree::{LcaEngine, LcaStrategy, LcaTable};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spanning_tree_of(g: &Graph, root: u32) -> Arc<RootedTree> {
        let forest = spanning_forest(g, &Meter::disabled());
        let edges: Vec<(u32, u32)> =
            forest.iter().map(|&i| (g.edge(i as usize).u, g.edge(i as usize).v)).collect();
        Arc::new(RootedTree::from_edge_list(g.n(), &edges, root))
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
            let lca = LcaTable::build(&t);
            let q = CutQuery::build(&g, &t, &lca, 0.3, &Meter::disabled());
            for v in 0..30u32 {
                if v == t.root() {
                    continue;
                }
                assert_eq!(q.cov(v), brute_cov(&g, &t, v), "trial {trial} vertex {v}");
            }
            // Through the engine, under both strategies: same coverage,
            // and the pass probes each graph edge once — one step per
            // sparse-table probe, `levels()` per lifting probe.
            for strategy in [LcaStrategy::SparseTable, LcaStrategy::Lifting] {
                let engine = LcaEngine::build(&t, strategy, &Meter::disabled());
                let meter = Meter::enabled();
                let qe = CutQuery::build(&g, &t, &engine, 0.3, &meter);
                let steps_per_query = match strategy {
                    LcaStrategy::SparseTable => 1,
                    LcaStrategy::Lifting => engine.table().levels() as u64,
                };
                assert_eq!(
                    meter.get(CostKind::LcaStep),
                    g.m() as u64 * steps_per_query,
                    "trial {trial} {strategy:?}"
                );
                for v in 0..30u32 {
                    assert_eq!(qe.cov(v), q.cov(v), "trial {trial} {strategy:?} vertex {v}");
                }
            }
        }
    }

    #[test]
    fn cut_matches_bruteforce_all_pairs() {
        let mut rng = StdRng::seed_from_u64(102);
        for trial in 0..6 {
            let g = generators::gnm_connected(18, 40, 7, &mut rng);
            let t = spanning_tree_of(&g, 0);
            let lca = LcaTable::build(&t);
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
        let lca = LcaTable::build(&t);
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
        let lca = LcaTable::build(&t);
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
        let lca = LcaTable::build(&t);
        let q = CutQuery::build(&g, &t, &lca, 0.5, &Meter::disabled());
        for v in 1..20u32 {
            // cut(e, e) degenerates to the 1-respecting cut.
            assert_eq!(q.cut(v, v, &Meter::disabled()), q.cov(v));
            // And the side is the subtree.
            let side_vs = q.cut_side(v, v);
            assert_eq!(side_vs.len() as u32, t.size(v));
        }
    }

    #[test]
    fn eps_variants_agree() {
        let mut rng = StdRng::seed_from_u64(106);
        let g = generators::gnm_connected(40, 120, 8, &mut rng);
        let t = spanning_tree_of(&g, 0);
        let lca = LcaTable::build(&t);
        let m = Meter::disabled();
        let q1 = CutQuery::build(&g, &t, &lca, 0.12, &m);
        let q2 = CutQuery::build(&g, &t, &lca, 0.9, &m);
        for e in 1..40u32 {
            for f in (e + 1..40u32).step_by(3) {
                assert_eq!(q1.cut(e, f, &m), q2.cut(e, f, &m));
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
        let lca = LcaTable::build(&t);
        let q = CutQuery::build(&g, &t, &lca, 0.5, &Meter::disabled());
        let m = Meter::disabled();
        for e in 1..10u32 {
            assert_eq!(q.cov(e), 5, "each edge is a 1-cut of weight 5");
            for f in e + 1..10u32 {
                assert_eq!(q.cut(e, f, &m), 10, "two path edges sever 10");
            }
        }
    }

    /// Grouped batches (above the dedup cutoff, with duplicates) must
    /// return exactly the per-pair values in slot order, and evaluate
    /// duplicates once.
    #[test]
    fn cut_batch_grouping_matches_individual_probes() {
        let mut rng = StdRng::seed_from_u64(108);
        let g = generators::gnm_connected(30, 80, 6, &mut rng);
        let t = spanning_tree_of(&g, 0);
        let lca = LcaTable::build(&t);
        let q = CutQuery::build(&g, &t, &lca, 0.5, &Meter::disabled());
        let m = Meter::disabled();
        // 300 pairs cycling over 25 distinct ones: plenty of duplicates.
        let pairs: Vec<(u32, u32)> =
            (0..300u32).map(|i| (1 + (i * 7) % 25, 1 + (i * 11) % 25)).collect();
        let batch = q.cut_batch(&pairs, &m);
        for (i, &(e, f)) in pairs.iter().enumerate() {
            assert_eq!(batch[i], q.cut(e, f, &m), "slot {i} pair ({e},{f})");
        }
        // The meter sees one CutQuery per distinct (ordered) pair.
        let distinct: std::collections::HashSet<(u32, u32)> =
            pairs.iter().copied().filter(|&(e, f)| e != f).collect();
        let meter = Meter::enabled();
        let _ = q.cut_batch(&pairs, &meter);
        assert_eq!(meter.get(CostKind::CutQuery), distinct.len() as u64);
    }

    #[test]
    fn meter_counts_queries() {
        let mut rng = StdRng::seed_from_u64(107);
        let g = generators::gnm_connected(12, 25, 3, &mut rng);
        let t = spanning_tree_of(&g, 0);
        let lca = LcaTable::build(&t);
        let q = CutQuery::build(&g, &t, &lca, 0.5, &Meter::disabled());
        let meter = Meter::enabled();
        let _ = q.cut(1, 2, &meter);
        let _ = q.cut(3, 4, &meter);
        assert_eq!(meter.get(CostKind::CutQuery), 2);
        assert!(meter.get(CostKind::RangeNode) > 0);
    }
}
