//! The two-level solver engine: graph-lifetime vs tree-lifetime state.
//!
//! The Theorem 4.2 stage runs once per packed tree (`O(log n)` trees),
//! but the structures it needs split cleanly by lifetime:
//!
//! * **graph-lifetime** ([`GraphContext`]): the coalesced graph,
//!   component labels / connectivity, weighted degrees and the
//!   min-degree fallback cut. Built once per graph, valid for every
//!   packed tree and every repeated solve. Coalescing is the flat
//!   sort-and-merge of [`Graph::coalesced`] — no hash map on the build
//!   path.
//! * **tree-lifetime** ([`TreeContext`]): the rooted tree, its LCA
//!   table, the 2m-point cut-query structure of Lemma A.1, the
//!   Property 4.3 path decomposition, and the interest-search engine of
//!   Claim 4.13. Built once per packed tree; the postorder-dependent
//!   state lives here and nowhere else. The range trees underneath the
//!   cut-query structure store all levels in contiguous CSR-style
//!   arenas (flat `Vec` + offsets), so the per-query level walks touch
//!   a handful of contiguous buffers.
//!
//! Inside [`TreeContext::build`] the mutually independent sub-builds
//! fork under `rayon::join`: the LCA table feeds the coverage array
//! while the 2-D range tree, the path decomposition, and the centroid
//! (or heavy-path) decomposition need only the tree itself. Both
//! contexts expose a batched query facade (`cov_all` / `cov_batch` /
//! `cut_batch`) so callers submit query slices instead of single
//! probes — the substrate the serving/batching layers build on.
//!
//! The one-shot free functions ([`crate::exact_mincut`],
//! [`crate::mincut_small`], [`crate::two_respecting_mincut`],
//! [`crate::approx_mincut`]) remain as thin wrappers that build a
//! context and solve once, so the pre-engine API is unchanged.
//!
//! ```
//! use pmc_mincut::engine::GraphContext;
//! use pmc_mincut::{ExactParams, exact_mincut_in};
//! use pmc_parallel::Meter;
//!
//! let g = pmc_graph::generators::ring_of_cliques(4, 5, 6, 2);
//! let meter = Meter::disabled();
//! let ctx = GraphContext::build(&g, &meter);
//! // The context is reusable: repeated solves share every
//! // graph-lifetime structure and return identical results.
//! let a = exact_mincut_in(&ctx, &ExactParams::default(), &meter);
//! let b = exact_mincut_in(&ctx, &ExactParams::default(), &meter);
//! assert_eq!(a.cut.value, 4);
//! assert_eq!(a.cut, b.cut);
//! ```

use crate::cutquery::CutQuery;
use crate::interest::InterestEngine;
use crate::two_respect::{two_respecting_mincut_in, TwoRespectOutcome, TwoRespectParams};
use pmc_graph::{CutResult, Graph};
use pmc_parallel::meter::{CostKind, Meter};
use pmc_parallel::scratch::with_scratch;
use pmc_tree::{LcaEngine, PathDecomposition, RootedTree};
use rayon::prelude::*;
use std::sync::Arc;

/// `ceil(log2 x)` with the usual `x >= 2` clamp (depth gauges).
fn lg2(x: usize) -> u64 {
    (x.max(2) as f64).log2().ceil() as u64
}

/// How the context holds its graph: owning (coalesced or adopted) or
/// borrowing the caller's.
enum GraphStore<'g> {
    Owned(Graph),
    Borrowed(&'g Graph),
}

impl GraphStore<'_> {
    fn graph(&self) -> &Graph {
        match self {
            GraphStore::Owned(g) => g,
            GraphStore::Borrowed(g) => g,
        }
    }
}

/// Graph-lifetime state of the solver engine: everything derivable from
/// the graph alone, shared by every packed tree and repeated solve.
pub struct GraphContext<'g> {
    store: GraphStore<'g>,
    /// Component representative per vertex (one connectivity pass).
    labels: Vec<u32>,
    connected: bool,
    /// Weighted degree per vertex (`w(δ(v))`).
    degrees: Vec<u64>,
    /// `(argmin, min)` of the weighted degrees — the always-valid
    /// fallback cut of the pipeline.
    min_degree: (u32, u64),
}

impl<'g> GraphContext<'g> {
    /// Build from a raw input graph: coalesces parallel edges (the
    /// pipeline's canonical first step) and derives the shared state.
    pub fn build(g: &Graph, meter: &Meter) -> GraphContext<'static> {
        GraphContext::adopt(g.coalesced(), meter)
    }

    /// Take ownership of an already-clean graph (hierarchy layers,
    /// certificates, skeletons) without re-coalescing.
    pub fn adopt(g: Graph, meter: &Meter) -> GraphContext<'static> {
        GraphContext::finish(GraphStore::Owned(g), meter)
    }

    /// Borrow the caller's graph as-is (no coalescing, no copy) — the
    /// wrapper path that must preserve the exact pre-engine semantics
    /// of [`crate::mincut_small`] and [`crate::approx_mincut`].
    pub fn attach(g: &'g Graph, meter: &Meter) -> GraphContext<'g> {
        GraphContext::finish(GraphStore::Borrowed(g), meter)
    }

    fn finish(store: GraphStore<'g>, meter: &Meter) -> GraphContext<'g> {
        // Panic-capable probe: chaos plans kill the build here; the
        // unwind is absorbed by the robust entry's guard (or a job's
        // catch_unwind when the build runs inside a parallel solve).
        pmc_fault::point_panicking("engine:graph_build");
        let (labels, degrees) = {
            let g = store.graph();
            // Component labels and weighted degrees are independent
            // passes over the adjacency — fork them.
            rayon::join(
                || g.component_labels(),
                || (0..g.n() as u32).into_par_iter().map(|v| g.weighted_degree(v)).collect::<Vec<u64>>(),
            )
        };
        let connected = labels.iter().all(|&l| l == labels[0]);
        // Same `min_by_key` tie-break as `Graph::min_weighted_degree_vertex`
        // (first minimal index), so the fallback cut is bit-identical.
        let min_degree = degrees
            .iter()
            .enumerate()
            .map(|(v, &d)| (v as u32, d))
            .min_by_key(|&(_, d)| d)
            .unwrap_or((0, 0));
        {
            let g = store.graph();
            meter.add(CostKind::Misc, g.m() as u64 + g.n() as u64);
            // Construction critical path: connectivity ~ log n levels,
            // degree reduction ~ log m (documented in DESIGN.md §8).
            meter.record_depth("engine:graph_build", lg2(g.n()) + lg2(g.m().max(2)));
        }
        GraphContext { store, labels, connected, degrees, min_degree }
    }

    /// The context's graph (coalesced when built via
    /// [`GraphContext::build`]).
    #[inline]
    pub fn graph(&self) -> &Graph {
        self.store.graph()
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.graph().n()
    }

    #[inline]
    pub fn m(&self) -> usize {
        self.graph().m()
    }

    #[inline]
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Component representative per vertex (precomputed).
    #[inline]
    pub fn component_labels(&self) -> &[u32] {
        &self.labels
    }

    /// Weighted degree per vertex (precomputed).
    #[inline]
    pub fn weighted_degrees(&self) -> &[u64] {
        &self.degrees
    }

    /// The min-degree singleton cut — the pipeline's always-valid
    /// fallback candidate.
    pub fn min_degree_cut(&self) -> CutResult {
        CutResult { value: self.min_degree.1, side: vec![self.min_degree.0] }
    }

    /// The degenerate answers every solver entry point shares: `n < 2`
    /// has no cut (infinite), a disconnected graph has a zero cut with
    /// vertex 0's component as one side. `None` on a connected graph
    /// with at least one potential cut — the inputs the pipeline
    /// actually works on.
    pub fn trivial_cut(&self) -> Option<CutResult> {
        if self.n() < 2 {
            return Some(CutResult::infinite());
        }
        if !self.connected {
            let l0 = self.labels[0];
            let side =
                (0..self.n() as u32).filter(|&v| self.labels[v as usize] == l0).collect();
            return Some(CutResult { value: 0, side });
        }
        None
    }
}

/// Tree-lifetime state of the solver engine: everything that depends on
/// one packed tree's postorder. Built once per tree; solving, batched
/// queries, and repeated solves all share it.
pub struct TreeContext<'g> {
    tree: Arc<RootedTree>,
    lca: LcaEngine,
    q: CutQuery<'g>,
    decomp: PathDecomposition,
    interest: InterestEngine,
    params: TwoRespectParams,
}

impl<'g> TreeContext<'g> {
    /// Build every per-tree structure, forking the independent
    /// sub-builds (DESIGN.md §8): the LCA table (which feeds the
    /// coverage array inside [`CutQuery::build`]) runs alongside the
    /// path decomposition and the interest engine's centroid/heavy-path
    /// decomposition, and the 2-D range tree overlaps the coverage
    /// array one level further down.
    pub fn build(
        g: &'g Graph,
        tree: Arc<RootedTree>,
        params: &TwoRespectParams,
        meter: &Meter,
    ) -> Self {
        assert!(tree.n() >= 2, "need at least one tree edge");
        assert_eq!(g.n(), tree.n(), "graph and tree must share the vertex set");
        // Panic-capable probe: see `engine:graph_build`.
        pmc_fault::point_panicking("engine:tree_build");
        let ((lca, q), (decomp, interest)) = rayon::join(
            || {
                let lca = LcaEngine::build(&tree, params.lca_strategy, meter);
                let q = CutQuery::build(g, &tree, &lca, params.eps, meter);
                (lca, q)
            },
            || {
                rayon::join(
                    || PathDecomposition::build(&tree, params.strategy, meter),
                    || InterestEngine::build(&tree, params.interest_strategy, meter),
                )
            },
        );
        // Construction critical path: LCA/centroid levels ~ log n plus
        // the range-tree height, 1 when a dense grid is answered from
        // the prefix table (DESIGN.md §5, §8).
        meter.record_depth("engine:tree_build", lg2(tree.n()) + q.range_height() as u64);
        TreeContext { tree, lca, q, decomp, interest, params: *params }
    }

    /// Build from a packed tree's edge list (the Phase 5 entry point).
    pub fn from_edges(
        g: &'g Graph,
        edges: &[(u32, u32)],
        root: u32,
        params: &TwoRespectParams,
        meter: &Meter,
    ) -> Self {
        let tree = Arc::new(RootedTree::from_edge_list(g.n(), edges, root));
        Self::build(g, tree, params, meter)
    }

    #[inline]
    pub fn graph(&self) -> &Graph {
        self.q.graph()
    }

    #[inline]
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }

    /// The LCA substrate built for [`TwoRespectParams::lca_strategy`]:
    /// plain `lca` dispatches to the strategy's engine, level ancestors
    /// stay with the lifting table.
    #[inline]
    pub fn lca(&self) -> &LcaEngine {
        &self.lca
    }

    #[inline]
    pub fn cut_query(&self) -> &CutQuery<'g> {
        &self.q
    }

    #[inline]
    pub fn decomposition(&self) -> &PathDecomposition {
        &self.decomp
    }

    /// The prebuilt interest-search engine (Claim 4.13 state).
    #[inline]
    pub fn interest(&self) -> &InterestEngine {
        &self.interest
    }

    #[inline]
    pub fn params(&self) -> &TwoRespectParams {
        &self.params
    }

    /// `w(Te)` for one tree edge (1-respecting cut value).
    #[inline]
    pub fn cov(&self, e: u32) -> u64 {
        self.q.cov(e)
    }

    /// The whole coverage array as one slice (batched 1-respecting
    /// values).
    #[inline]
    pub fn cov_all(&self) -> &[u64] {
        self.q.cov_all()
    }

    /// Batched coverage lookup.
    pub fn cov_batch(&self, es: &[u32]) -> Vec<u64> {
        self.q.cov_batch(es)
    }

    /// Batched coverage lookup into a caller-owned buffer — the
    /// allocation-free steady-state serving form.
    pub fn cov_batch_into(&self, es: &[u32], out: &mut Vec<u64>) {
        self.q.cov_batch_into(es, out);
    }

    /// One 2-respecting cut value.
    #[inline]
    pub fn cut(&self, e: u32, f: u32, meter: &Meter) -> u64 {
        self.q.cut(e, f, meter)
    }

    /// Batched 2-respecting cut values: one pass over the pair slice,
    /// deterministic output order.
    pub fn cut_batch(&self, pairs: &[(u32, u32)], meter: &Meter) -> Vec<u64> {
        self.q.cut_batch(pairs, meter)
    }

    /// Batched 2-respecting cut values into a caller-owned buffer,
    /// using the calling thread's pooled workspace: with warm buffers
    /// the steady-state call performs zero heap allocations (the
    /// counting-allocator gate `tests/zero_alloc_gate.rs` pins this).
    pub fn cut_batch_into(&self, pairs: &[(u32, u32)], out: &mut Vec<u64>, meter: &Meter) {
        with_scratch(|s| self.q.cut_batch_with(pairs, s, out, meter));
    }

    /// [`TreeContext::cut_batch`] under a cooperative deadline: answers
    /// a prefix of the request and flags whether it ran to the end (see
    /// [`CutQuery::cut_batch_until`]).
    pub fn cut_batch_until(
        &self,
        pairs: &[(u32, u32)],
        deadline: &pmc_fault::Deadline,
        meter: &Meter,
    ) -> crate::cutquery::BatchOutcome {
        self.q.cut_batch_until(pairs, deadline, meter)
    }

    /// The minimum 2-respecting cut of this tree (Theorem 4.2), reusing
    /// every prebuilt structure. Repeated calls return identical
    /// results.
    pub fn solve(&self, meter: &Meter) -> TwoRespectOutcome {
        two_respecting_mincut_in(self, meter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_mincut, exact_mincut_in, ExactParams};
    use crate::two_respect::two_respecting_mincut;
    use pmc_graph::generators;
    use pmc_parallel::spanning_forest::spanning_forest;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spanning_tree_of(g: &Graph, root: u32) -> Arc<RootedTree> {
        let forest = spanning_forest(g, &Meter::disabled());
        let edges: Vec<(u32, u32)> =
            forest.iter().map(|&i| (g.edge(i as usize).u, g.edge(i as usize).v)).collect();
        Arc::new(RootedTree::from_edge_list(g.n(), &edges, root))
    }

    #[test]
    fn trivial_cut_matches_legacy_early_returns() {
        let m = Meter::disabled();
        // n < 2: no cut.
        let g1 = Graph::from_edges(1, []);
        assert_eq!(GraphContext::build(&g1, &m).trivial_cut(), Some(CutResult::infinite()));
        // Disconnected: zero cut, vertex 0's component as the side.
        let g2 = Graph::from_edges(4, [(0, 1, 2), (2, 3, 2)]);
        let t = GraphContext::build(&g2, &m).trivial_cut().expect("disconnected");
        assert_eq!(t.value, 0);
        assert_eq!(t.side, vec![0, 1]);
        // Connected: no trivial answer.
        let g3 = generators::cycle(6, 1);
        assert_eq!(GraphContext::build(&g3, &m).trivial_cut(), None);
    }

    #[test]
    fn graph_context_matches_graph_accessors() {
        let mut rng = StdRng::seed_from_u64(811);
        let g = generators::gnm_connected(20, 50, 9, &mut rng);
        let ctx = GraphContext::attach(&g, &Meter::disabled());
        assert!(ctx.is_connected());
        assert_eq!(ctx.component_labels(), &g.component_labels()[..]);
        for v in 0..g.n() as u32 {
            assert_eq!(ctx.weighted_degrees()[v as usize], g.weighted_degree(v));
        }
        let (v, d) = g.min_weighted_degree_vertex();
        assert_eq!(ctx.min_degree_cut(), CutResult { value: d, side: vec![v] });
    }

    #[test]
    fn build_coalesces_like_the_pipeline() {
        let g = Graph::from_edges(3, [(0, 1, 2), (0, 1, 3), (1, 2, 4)]);
        let ctx = GraphContext::build(&g, &Meter::disabled());
        let gc = g.coalesced();
        assert_eq!(ctx.m(), gc.m());
        assert_eq!(ctx.graph().total_weight(), gc.total_weight());
        // attach leaves the multigraph alone.
        let raw = GraphContext::attach(&g, &Meter::disabled());
        assert_eq!(raw.m(), 3);
    }

    #[test]
    fn tree_context_solve_matches_free_function() {
        let mut rng = StdRng::seed_from_u64(812);
        for trial in 0..6 {
            let g = generators::gnm_connected(18, 50, 7, &mut rng);
            let tree = spanning_tree_of(&g, 0);
            let m = Meter::disabled();
            let params = TwoRespectParams::default();
            let ctx = TreeContext::build(&g, Arc::clone(&tree), &params, &m);
            let a = ctx.solve(&m);
            let b = ctx.solve(&m); // reuse: bit-identical
            let free = two_respecting_mincut(&g, &tree, &params, &m);
            assert_eq!(a.cut, b.cut, "trial {trial} reuse");
            assert_eq!(a.pair, b.pair, "trial {trial} reuse pair");
            assert_eq!(a.cut, free.cut, "trial {trial} vs free fn");
        }
    }

    #[test]
    fn batched_queries_match_single_probes() {
        let mut rng = StdRng::seed_from_u64(814);
        let g = generators::gnm_connected(16, 40, 6, &mut rng);
        let tree = spanning_tree_of(&g, 0);
        let m = Meter::disabled();
        let ctx = TreeContext::build(&g, tree, &TwoRespectParams::default(), &m);
        let n = g.n() as u32;
        let root = ctx.tree().root();
        let es: Vec<u32> = (0..n).filter(|&v| v != root).collect();
        assert_eq!(ctx.cov_batch(&es), es.iter().map(|&e| ctx.cov(e)).collect::<Vec<_>>());
        let pairs: Vec<(u32, u32)> = es
            .iter()
            .flat_map(|&e| es.iter().map(move |&f| (e, f)))
            .filter(|&(e, f)| e < f)
            .collect();
        let batch = ctx.cut_batch(&pairs, &m);
        for (i, &(e, f)) in pairs.iter().enumerate() {
            assert_eq!(batch[i], ctx.cut(e, f, &m), "pair ({e},{f})");
        }
    }

    #[test]
    fn exact_in_reuses_context() {
        let g = generators::ring_of_cliques(4, 4, 5, 2);
        let m = Meter::disabled();
        let ctx = GraphContext::build(&g, &m);
        let params = ExactParams::default();
        let one_shot = exact_mincut(&g, &params);
        let a = exact_mincut_in(&ctx, &params, &m);
        let b = exact_mincut_in(&ctx, &params, &m);
        assert_eq!(a.cut, one_shot.cut);
        assert_eq!(a.cut, b.cut);
    }

    #[test]
    fn depth_gauges_recorded() {
        let g = generators::grid(5, 5, 3);
        let meter = Meter::enabled();
        let ctx = GraphContext::build(&g, &meter);
        let tree = spanning_tree_of(ctx.graph(), 0);
        let _tc = TreeContext::build(ctx.graph(), tree, &TwoRespectParams::default(), &meter);
        let rendered = meter.report().render();
        assert!(rendered.contains("engine:graph_build"), "{rendered}");
        assert!(rendered.contains("engine:tree_build"), "{rendered}");
    }

    use pmc_graph::Graph;
}
