//! Minimum 2-respecting cut of a spanning tree (Theorem 4.2).
//!
//! Given graph `G` and spanning tree `T`, find the minimum cut of `G`
//! crossing at most two edges of `T`:
//!
//! 1. **1-respecting** cuts are the subtree weights `cov(e)` — a single
//!    sweep.
//! 2. **Single-path** pairs (§4.1.2): decompose `T` into descending
//!    paths (Property 4.3); for each path the cut matrix restricted to
//!    `i < j` is partial Monge — supermodular orientation, as every pair
//!    on a vertical chain is nested — and [`pmc_monge::triangle_minimum`]
//!    inspects `O(ℓ log ℓ)` entries.
//! 3. **Cross-path** pairs (§4.1.3): every improving pair is mutually
//!    interesting, so the interest arms (`de`/`ce`, [`crate::interest`])
//!    over-approximate the candidate paths via Root-paths queries
//!    (Claim 4.15); the symmetric join of Lemma 4.16 produces, per path
//!    pair, the edge lists `r`/`s`. Each pair splits into at most two
//!    configuration-uniform Monge blocks (the nested prefix of `r`
//!    against `s`, and the incomparable remainder; DESIGN.md derives the
//!    split and orientations), solved by SMAWK.
//!
//! All three stages run in parallel across paths/pairs through rayon.

use crate::cutquery::CutQuery;
use crate::engine::TreeContext;
use crate::interest::{InterestEngine, InterestSearch, InterestStrategy};
use pmc_graph::{CutResult, Graph};
use pmc_monge::{monge_minimum, triangle_minimum, Orient};
use pmc_parallel::meter::Meter;
use pmc_tree::{LcaEngine, LcaStrategy, LcaTable, PathDecomposition, PathStrategy, RootedTree};
use rayon::prelude::*;
use std::sync::Arc;

/// Tuning knobs for the 2-respecting solver.
#[derive(Debug, Clone, Copy)]
pub struct TwoRespectParams {
    /// `ε` of the range structures (Lemma 4.25 / Theorem 4.26). Values
    /// near `1/log n` give the binary range tree; larger values give
    /// flatter trees with cheaper construction and costlier queries.
    /// It only shapes the range-tree path: a dense grid (`n² ≤ 16·m`)
    /// is answered from a prefix table, whatever `ε` (DESIGN.md §5).
    pub eps: f64,
    /// Which Property-4.3 decomposition to use.
    pub strategy: PathStrategy,
    /// Which decomposition traces the interest arms (Claim 4.13):
    /// centroid descent (`O(log n)` cut queries per edge, the default)
    /// or the heavy-path fallback (`O(log² n)`, DESIGN.md §2).
    ///
    /// Heeded by direct [`two_respecting_mincut`] callers; inside the
    /// exact pipeline, `ExactParams::interest_strategy` is authoritative
    /// and overwrites this field — set the knob there instead.
    pub interest_strategy: InterestStrategy,
    /// Which substrate answers plain LCA queries: binary lifting
    /// (`O(log n)` probes per query) or the Euler-tour sparse table
    /// (`O(1)`). Level-ancestor queries always stay with lifting.
    pub lca_strategy: LcaStrategy,
}

impl Default for TwoRespectParams {
    fn default() -> Self {
        TwoRespectParams {
            eps: 0.25,
            strategy: PathStrategy::HeavyPath,
            interest_strategy: InterestStrategy::default(),
            lca_strategy: LcaStrategy::default(),
        }
    }
}

impl TwoRespectParams {
    /// The paper-faithful configuration of Theorem 4.2: centroid-descent
    /// interest arms (Claim 4.13) and the O(1)-query Euler-tour LCA —
    /// the variants the complexity statements assume. (Row minima are
    /// always SMAWK, the \[RV94\] substitute of §4.1.2/§4.1.3.) `Default`
    /// currently coincides on the substrate knobs; `paper()` pins them
    /// explicitly so experiment configs stay stable if defaults move.
    pub fn paper() -> Self {
        TwoRespectParams {
            interest_strategy: InterestStrategy::Centroid,
            lca_strategy: LcaStrategy::SparseTable,
            ..TwoRespectParams::default()
        }
    }
}

/// Outcome of the 2-respecting search: the best cut value, one side of
/// the partition, and the witnessing tree edge pair.
#[derive(Debug, Clone)]
pub struct TwoRespectOutcome {
    pub cut: CutResult,
    /// `(e, f)` lower endpoints; `e == f` for a 1-respecting cut.
    pub pair: (u32, u32),
}

/// Best `(value, e, f)` triple, reduced over parallel stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Best {
    value: u64,
    e: u32,
    f: u32,
}

impl Best {
    const NONE: Best = Best { value: u64::MAX, e: u32::MAX, f: u32::MAX };
    fn min(self, other: Best) -> Best {
        if self.value <= other.value {
            self
        } else {
            other
        }
    }
}

/// # Example
///
/// ```
/// use pmc_mincut::{two_respecting_mincut, TwoRespectParams};
/// use pmc_parallel::Meter;
/// use pmc_tree::RootedTree;
///
/// // A 4-cycle with a path spanning tree: min cut = 2, realized by a
/// // pair of tree edges.
/// let g = pmc_graph::Graph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]);
/// let tree = RootedTree::from_parents(0, &[0, 0, 1, 2]);
/// let out = two_respecting_mincut(&g, &tree, &TwoRespectParams::default(), &Meter::disabled());
/// assert_eq!(out.cut.value, 2);
/// ```
/// Minimum 2-respecting cut of `tree` in `g` (Theorem 4.2).
///
/// One-shot wrapper: builds a [`TreeContext`] (parallel sub-builds) and
/// solves once. Callers that solve repeatedly — or query the same tree
/// — should build the context themselves and use
/// [`two_respecting_mincut_in`] / [`TreeContext::solve`].
pub fn two_respecting_mincut(
    g: &Graph,
    tree: &RootedTree,
    params: &TwoRespectParams,
    meter: &Meter,
) -> TwoRespectOutcome {
    let ctx = TreeContext::build(g, Arc::new(tree.clone()), params, meter);
    two_respecting_mincut_in(&ctx, meter)
}

/// [`two_respecting_mincut`] over a prebuilt [`TreeContext`]: pure
/// query work, no per-call construction.
pub fn two_respecting_mincut_in(ctx: &TreeContext<'_>, meter: &Meter) -> TwoRespectOutcome {
    let tree = ctx.tree();
    let q = ctx.cut_query();
    if meter.is_enabled() {
        meter.record_depth("two_respect:tree_height", tree.height() as u64);
    }

    // Stage 1: 1-respecting cuts — the batched coverage slice.
    let root = tree.root();
    let one = q
        .cov_all()
        .par_iter()
        .enumerate()
        .filter(|&(v, _)| v as u32 != root)
        .map(|(v, &c)| Best { value: c, e: v as u32, f: v as u32 })
        .reduce(|| Best::NONE, Best::min);

    // Stage 2: single-path partial Monge searches.
    let decomp = ctx.decomposition();
    let single = decomp
        .paths()
        .par_iter()
        .map(|p| {
            if p.len() < 2 {
                return Best::NONE;
            }
            match triangle_minimum(
                p.len(),
                Orient::Supermodular,
                |i, j| q.cut(p[i], p[j], meter),
                meter,
            ) {
                Some(loc) => Best { value: loc.value, e: p[loc.row], f: p[loc.col] },
                None => Best::NONE,
            }
        })
        .reduce(|| Best::NONE, Best::min);

    // Stage 3: cross-path pairs via interest arms.
    let cross = cross_path_minimum(q, ctx.lca(), decomp, ctx.interest(), meter);

    let best = one.min(single).min(cross);
    debug_assert_ne!(best.value, u64::MAX);
    let side = q.cut_side(best.e, best.f);
    TwoRespectOutcome {
        cut: CutResult { value: best.value, side },
        pair: (best.e, best.f),
    }
}

/// Stage 3 worker: interest arms -> tuples -> symmetric join -> Monge
/// blocks.
fn cross_path_minimum(
    q: &CutQuery<'_>,
    lca: &LcaEngine,
    decomp: &PathDecomposition,
    engine: &InterestEngine,
    meter: &Meter,
) -> Best {
    let tree = q.tree();
    let n = tree.n();
    if decomp.num_paths() < 2 {
        return Best::NONE;
    }
    let search = InterestSearch::with_engine(q, lca, engine);

    // Interest tuples (Claim 4.15): for each edge e, the decomposition
    // paths on the root-paths of its arm endpoints.
    let tuples: Vec<(u32, u32, u32)> = (0..n as u32)
        .into_par_iter()
        .filter(|&v| v != tree.root())
        .flat_map_iter(|e| {
            let arms = search.arms(e, meter);
            let p_e = decomp.path_of(e);
            let mut qs: Vec<u32> = decomp
                .root_paths(tree, arms.de)
                .into_iter()
                .chain(decomp.root_paths(tree, arms.ce))
                .filter(|&qid| qid != p_e)
                .collect();
            qs.sort_unstable();
            qs.dedup();
            qs.into_iter().map(move |qid| (p_e, qid, e)).collect::<Vec<_>>()
        })
        .collect();

    // Symmetric join (Lemma 4.16): group by unordered path pair through
    // a deterministic parallel sort — key by the packed pair id, with
    // the side (r vs s) and the in-path position as tie-breaks. Equal
    // keys cannot occur (each (p, q, e) tuple is unique and positions
    // within a path are distinct), so job order, list order, and the
    // metered query counts are identical across runs and thread counts.
    // The paper sorts here with a parallel radix sort; a comparison sort
    // of the k = O(n log n) tuples is o(m) work per tree in the
    // non-sparse regime (DESIGN.md §3, "Join sort").
    let mut keyed: Vec<(u64, u32, u32)> = tuples
        .into_par_iter()
        .map(|(p, qid, e)| {
            let (a, b, side) = if p < qid { (p, qid, 0u32) } else { (qid, p, 1u32) };
            (((a as u64) << 32) | b as u64, side, e)
        })
        .collect();
    keyed.par_sort_unstable_by_key(|&(pair, side, e)| (pair, side, decomp.pos_of(e), e));

    // Contiguous runs of one pair id = one join group.
    let mut jobs: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < keyed.len() {
        let mut j = i + 1;
        while j < keyed.len() && keyed[j].0 == keyed[i].0 {
            j += 1;
        }
        jobs.push((i, j));
        i = j;
    }

    let keyed = &keyed;
    jobs.into_par_iter()
        .map(|(lo, hi)| {
            let run = &keyed[lo..hi];
            // Entries are sorted r-side (0) before s-side (1), each
            // shallow-to-deep along its path.
            let split = run.partition_point(|&(_, side, _)| side == 0);
            let (r_run, s_run) = run.split_at(split);
            if r_run.is_empty() || s_run.is_empty() {
                return Best::NONE;
            }
            pair_minimum(q, r_run, s_run, meter)
        })
        .reduce(|| Best::NONE, Best::min)
}

/// Minimum over `r x s` where `r`, `s` are vertical chains from two
/// distinct decomposition paths, handed in as sorted join-run slices
/// (`(pair, side, edge)` tuples; only `.2` is read). Working directly on
/// the run slices means the join jobs materialize no per-pair edge
/// lists. Splits into the nested-prefix block and the incomparable
/// block (at most one side can contain ancestors of the other, and the
/// ancestor prefix is uniform across the other list — see DESIGN.md).
fn pair_minimum(
    q: &CutQuery<'_>,
    r: &[(u64, u32, u32)],
    s: &[(u64, u32, u32)],
    meter: &Meter,
) -> Best {
    let tree = q.tree();
    // Swap so that no edge of `s` is an ancestor of an edge of `r`.
    // INVARIANT: chains handed to pair_minimum are non-empty (the
    // interest search never emits an empty chain).
    let last_r = r.last().expect("non-empty chain").2;
    let (r, s) = if tree.is_ancestor(s[0].2, last_r) { (s, r) } else { (r, s) };
    // Nested prefix: r[..k] are ancestors of every edge in s.
    let k = r.partition_point(|&(_, _, e)| tree.is_ancestor(e, s[0].2));
    let mut best = Best::NONE;
    if k > 0 {
        // Nested block: supermodular orientation.
        if let Some(loc) = monge_minimum(
            k,
            s.len(),
            Orient::Supermodular,
            |i, j| q.cut(r[i].2, s[j].2, meter),
            meter,
        ) {
            best = best.min(Best { value: loc.value, e: r[loc.row].2, f: s[loc.col].2 });
        }
    }
    if k < r.len() {
        // Incomparable block: submodular orientation.
        let rr = &r[k..];
        if let Some(loc) = monge_minimum(
            rr.len(),
            s.len(),
            Orient::Submodular,
            |i, j| q.cut(rr[i].2, s[j].2, meter),
            meter,
        ) {
            best = best.min(Best { value: loc.value, e: rr[loc.row].2, f: s[loc.col].2 });
        }
    }
    best
}

/// The `O(n^2)` exhaustive 2-respecting solver: every pair of tree
/// edges via cut queries. The correctness oracle for
/// [`two_respecting_mincut`] and the "no structure" ablation baseline
/// (the work profile GG18-era algorithms pay per tree, up to logs).
pub fn naive_two_respecting(
    g: &Graph,
    tree: &RootedTree,
    eps: f64,
    meter: &Meter,
) -> TwoRespectOutcome {
    let n = tree.n();
    assert!(n >= 2);
    let tree = Arc::new(tree.clone());
    let lca = LcaTable::build(&tree);
    let q = CutQuery::build(g, &tree, &lca, eps, meter);
    let root = tree.root();
    let best = (0..n as u32)
        .into_par_iter()
        .filter(|&e| e != root)
        .map(|e| {
            let mut local = Best { value: q.cov(e), e, f: e };
            for f in e + 1..n as u32 {
                if f == root {
                    continue;
                }
                let v = q.cut(e, f, meter);
                local = local.min(Best { value: v, e, f });
            }
            local
        })
        .reduce(|| Best::NONE, Best::min);
    let side = q.cut_side(best.e, best.f);
    TwoRespectOutcome { cut: CutResult { value: best.value, side }, pair: (best.e, best.f) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_graph::graph::cut_of_partition;
    use pmc_graph::generators;
    use pmc_monge::{is_submodular, is_supermodular};
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
    fn matches_naive_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(401);
        for trial in 0..12 {
            let n = 10 + trial * 3;
            let g = generators::gnm_connected(n, 3 * n, 9, &mut rng);
            let t = spanning_tree_of(&g, (trial % n) as u32);
            let m = Meter::disabled();
            let naive = naive_two_respecting(&g, &t, 0.5, &m);
            for strategy in [PathStrategy::HeavyPath, PathStrategy::Bough] {
                for interest_strategy in
                    [InterestStrategy::HeavyPath, InterestStrategy::Centroid]
                {
                    let params = TwoRespectParams {
                        eps: 0.4,
                        strategy,
                        interest_strategy,
                        ..TwoRespectParams::default()
                    };
                    let fast = two_respecting_mincut(&g, &t, &params, &m);
                    assert_eq!(
                        fast.cut.value, naive.cut.value,
                        "trial {trial} {strategy:?}/{interest_strategy:?}: fast {} vs naive {}",
                        fast.cut.value, naive.cut.value
                    );
                }
            }
        }
    }

    #[test]
    fn matches_naive_on_structured_graphs() {
        let graphs = vec![
            generators::dumbbell(6, 4, 1),
            generators::ring_of_cliques(5, 3, 5, 1),
            generators::grid(6, 4, 3),
            generators::hypercube(4, 2),
            generators::cycle(30, 2),
            generators::star(20, 3),
        ];
        let m = Meter::disabled();
        for (gi, g) in graphs.into_iter().enumerate() {
            let t = spanning_tree_of(&g, 0);
            let naive = naive_two_respecting(&g, &t, 0.5, &m);
            let fast = two_respecting_mincut(&g, &t, &TwoRespectParams::default(), &m);
            assert_eq!(fast.cut.value, naive.cut.value, "graph {gi}");
        }
    }

    #[test]
    fn reported_side_realizes_value() {
        let mut rng = StdRng::seed_from_u64(402);
        for _ in 0..6 {
            let g = generators::gnm_connected(20, 60, 7, &mut rng);
            let t = spanning_tree_of(&g, 0);
            let out =
                two_respecting_mincut(&g, &t, &TwoRespectParams::default(), &Meter::disabled());
            let mut side = vec![false; g.n()];
            for &v in &out.cut.side {
                side[v as usize] = true;
            }
            assert_eq!(cut_of_partition(&g, &side), out.cut.value);
            assert!(!out.cut.side.is_empty() && out.cut.side.len() < g.n());
        }
    }

    #[test]
    fn single_path_matrix_is_supermodular() {
        // The orientation claim behind stage 2 (paper's partial Monge
        // inequality), checked on real cut matrices.
        let mut rng = StdRng::seed_from_u64(403);
        for _ in 0..6 {
            let g = generators::gnm_connected(22, 60, 5, &mut rng);
            let t = spanning_tree_of(&g, 0);
            let lca = LcaTable::build(&t);
            let q = CutQuery::build(&g, &t, &lca, 0.5, &Meter::disabled());
            let m = Meter::disabled();
            let decomp = PathDecomposition::build(&t, PathStrategy::HeavyPath, &m);
            for p in decomp.paths() {
                if p.len() < 3 {
                    continue;
                }
                // Strict upper triangle: check all 2x2 submatrices that
                // avoid the diagonal.
                let l = p.len();
                for i in 0..l - 1 {
                    for j in i + 2..l - 1 {
                        let a = q.cut(p[i], p[j], &m) as i128
                            + q.cut(p[i + 1], p[j + 1], &m) as i128;
                        let b = q.cut(p[i], p[j + 1], &m) as i128
                            + q.cut(p[i + 1], p[j], &m) as i128;
                        assert!(a >= b, "supermodularity violated at ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn pair_block_orientations() {
        // Nested blocks are supermodular, incomparable blocks submodular
        // — the two claims pair_minimum relies on.
        let mut rng = StdRng::seed_from_u64(404);
        for _ in 0..10 {
            let g = generators::gnm_connected(24, 70, 6, &mut rng);
            let t = spanning_tree_of(&g, 0);
            let lca = LcaTable::build(&t);
            let q = CutQuery::build(&g, &t, &lca, 0.5, &Meter::disabled());
            let m = Meter::disabled();
            // Sample vertical chains: root-to-leaf paths, then pick two
            // disjoint chains.
            let chains: Vec<Vec<u32>> = t
                .leaves()
                .into_iter()
                .map(|l| {
                    let mut c = vec![l];
                    let mut v = l;
                    while t.parent(v) != t.root() {
                        v = t.parent(v);
                        c.push(v);
                    }
                    c.reverse();
                    c
                })
                .collect();
            for a in 0..chains.len() {
                for b in a + 1..chains.len() {
                    let (ca, cb) = (&chains[a], &chains[b]);
                    // Incomparable suffixes: drop the common prefix.
                    let mut i = 0;
                    while i < ca.len() && i < cb.len() && ca[i] == cb[i] {
                        i += 1;
                    }
                    let (ra, sb) = (&ca[i..], &cb[i..]);
                    if ra.len() >= 2 && sb.len() >= 2 {
                        assert!(
                            is_submodular(ra.len(), sb.len(), |x, y| q
                                .cut(ra[x], sb[y], &m)),
                            "incomparable block not submodular"
                        );
                    }
                    // Nested: common prefix (ancestors) vs the deeper
                    // suffix of the other chain.
                    if i >= 2 && cb.len() > i + 1 {
                        let anc = &ca[..i]; // == cb[..i], ancestors of all
                        let desc = &cb[i..];
                        assert!(
                            is_supermodular(anc.len(), desc.len(), |x, y| q
                                .cut(anc[x], desc[y], &m)),
                            "nested block not supermodular"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cycle_two_respecting_value() {
        // Cycle with a path tree: min cut = 2 (any two cycle edges). The
        // value is reachable both 1-respecting (each tree edge is covered
        // by itself plus the closing chord) and 2-respecting; only the
        // value is pinned down.
        let mut edges: Vec<(u32, u32, u64)> = (0..9u32).map(|i| (i, i + 1, 1)).collect();
        edges.push((0, 9, 1)); // closes the cycle
        let g = Graph::from_edges(10, edges);
        let parent: Vec<u32> = (0..10u32).map(|v| v.saturating_sub(1)).collect();
        let t = Arc::new(RootedTree::from_parents(0, &parent));
        let m = Meter::disabled();
        let out = two_respecting_mincut(&g, &t, &TwoRespectParams::default(), &m);
        assert_eq!(out.cut.value, 2);

        // Force a genuine pair: make every single edge expensive by
        // doubling the chord weight — then cov(e) = 3 everywhere but a
        // pair of tree edges cutting the chord-free segment... on a
        // cycle every 2-respecting pair cuts {two tree edges} + maybe
        // the chord; with chord weight 2 the best pair value is
        // 1 + 1 = 2 < 3 when the chord is *not* cut: edges i and j with
        // the chord endpoints 0,9 on the same side, i.e. 1 <= i < j <= 9
        // cut edges i,j only.
        let mut edges2: Vec<(u32, u32, u64)> = (0..9u32).map(|i| (i, i + 1, 1)).collect();
        edges2.push((0, 9, 2));
        let g2 = Graph::from_edges(10, edges2);
        let out2 = two_respecting_mincut(&g2, &t, &TwoRespectParams::default(), &m);
        assert_eq!(out2.cut.value, 2);
        assert_ne!(out2.pair.0, out2.pair.1, "optimum requires a genuine pair");
    }

    #[test]
    fn star_tree_one_respecting() {
        let g = generators::star(12, 4);
        let parent: Vec<u32> = (0..12u32).map(|_| 0).collect();
        let t = Arc::new(RootedTree::from_parents(0, &parent));
        let out =
            two_respecting_mincut(&g, &t, &TwoRespectParams::default(), &Meter::disabled());
        assert_eq!(out.cut.value, 4, "isolate one leaf");
    }

    #[test]
    fn two_vertex_graph() {
        let g = Graph::from_edges(2, [(0, 1, 5)]);
        let t = Arc::new(RootedTree::from_parents(0, &[0, 0]));
        let out =
            two_respecting_mincut(&g, &t, &TwoRespectParams::default(), &Meter::disabled());
        assert_eq!(out.cut.value, 5);
        assert_eq!(out.pair, (1, 1));
    }

    #[test]
    fn eps_sweep_consistent() {
        let mut rng = StdRng::seed_from_u64(405);
        let g = generators::gnm_connected(26, 80, 8, &mut rng);
        let t = spanning_tree_of(&g, 0);
        let m = Meter::disabled();
        let reference =
            naive_two_respecting(&g, &t, 0.5, &m).cut.value;
        for eps in [0.1, 0.25, 0.5, 0.75, 1.0] {
            let params = TwoRespectParams { eps, ..TwoRespectParams::default() };
            let out = two_respecting_mincut(&g, &t, &params, &m);
            assert_eq!(out.cut.value, reference, "eps={eps}");
        }
    }

    use pmc_graph::Graph;
}
