//! The interest relation and its path endpoints (Def. 4.7, Claims
//! 4.8/4.13).
//!
//! Through the coverage form, tree edge `f` is *interesting* for `e`
//! iff `2·cov(e,f) > cov(e)` — exactly the paper's cross-/down-interest
//! unified (DESIGN.md derives the equivalence). The interesting set
//! `Π(e)` is a single tree path through `e`'s location:
//!
//! * any graph edge covering both `e` and `f` also covers every tree
//!   edge between them, so `Π(e) ∪ {e}` is connected; and
//! * two tree edges on different branches below a node have disjoint
//!   "covering" edge sets, so at most one branch can exceed half of
//!   `cov(e)` — `Π(e)` never branches.
//!
//! Hence `Π(e)` = a *down-arm* descending from `e` (ending at `de`) plus
//! an *up-arm* climbing from `e` that turns downward at most once
//! (ending at `ce`) — the paper's `de` and `ce` nodes.
//!
//! Both arms are traced by the [`InterestEngine`], the paper's Claim
//! 4.13: walk down the centroid tree maintaining the invariant that the
//! current centroid component contains the arm endpoint. Routing toward
//! a component is an `O(1)` structural lookup
//! ([`pmc_tree::CentroidDecomposition::child_toward`]); at most one
//! coverage query decides each level, so an arm costs `O(log n)` cut
//! queries on bounded-degree trees (`O(log n · log Δ)` in general, from
//! the child-locating binary searches at the `O(log n)` centroids that
//! land on the arm).
//!
//! The `tests/complexity_regression.rs` suite turns the `O(log n)` bound
//! into an executable check with metered query counts, and
//! [`InterestSearch::brute_arms`] is the tests' oracle for the
//! endpoints.

use crate::cutquery::CutQuery;
use pmc_parallel::meter::{CostKind, Meter};
use pmc_tree::{CentroidDecomposition, LcaEngine};

/// Endpoints of the interesting path of one edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arms {
    /// Deepest node of the descending arm (equals `e` when empty).
    pub de: u32,
    /// Deepest node of the up-and-over arm (equals `e` when the arm
    /// never turns into a sibling branch; pure up-arms are subsumed by
    /// the root-path of `de`).
    pub ce: u32,
}

/// Which decomposition steers the interest search.
///
/// It has one value, centroid descent. The enum stays only because
/// perfbench's trace passes it to [`InterestEngine::build`]; it goes
/// when that trace is rewritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterestStrategy {
    /// Centroid descent (the paper's Claim 4.13): `O(log n)` cut
    /// queries per edge on the workloads the theorem targets.
    #[default]
    Centroid,
}

/// A built arm-tracing engine: the tree-lifetime state of the interest
/// search. A [`crate::engine::TreeContext`] builds it once per packed
/// tree and binds it to [`InterestSearch`] views via
/// [`InterestSearch::new`] without rebuilding.
///
/// Centroid descent (Claim 4.13): `O(log n)` cut queries per arm on
/// bounded-degree trees. The arm endpoint `t` is the deepest vertex of
/// a root-down chain of vertices `v` with `t ∈ subtree(v)`, and that
/// membership is decidable with at most one coverage query
/// (`interesting(e, v)` when `v` lies strictly below the deepest
/// confirmed arm vertex; structurally otherwise). The descent walks the
/// centroid tree keeping the invariant *"the current centroid's
/// component contains `t`"*: each level either routes structurally
/// (`child_toward`, zero queries), spends one query to discover the
/// centroid is off the arm, or lands on the arm and re-anchors via the
/// unique-interesting-child search.
pub struct InterestEngine {
    cd: CentroidDecomposition,
}

impl InterestEngine {
    /// Build the tree-lifetime engine. `_strategy` has one value
    /// ([`InterestStrategy`]).
    pub fn build(tree: &pmc_tree::RootedTree, _strategy: InterestStrategy, meter: &Meter) -> Self {
        InterestEngine { cd: CentroidDecomposition::build(tree, meter) }
    }

    /// Deepest vertex of the arm of `e` descending from `start` (`start`
    /// itself when the arm is empty). `exclude` masks one child branch
    /// of `start` — the branch the up-arm arrived from.
    fn descend(
        &self,
        search: &InterestSearch<'_>,
        e: u32,
        start: u32,
        cov_e: u64,
        mut exclude: Option<u32>,
        meter: &Meter,
    ) -> u32 {
        let tree = search.q.tree();
        // Deepest confirmed arm vertex; the endpoint lies in its subtree.
        let mut a = start;
        let mut c = self.cd.top();
        loop {
            if c == a {
                // The centroid is the deepest confirmed arm vertex: extend
                // the arm by its unique interesting child, or certify that
                // the arm ends here.
                match search.interesting_child(e, a, cov_e, exclude, meter) {
                    None => return a,
                    Some(u) => {
                        exclude = None;
                        a = u;
                        c = self.cd.child_toward(c, u);
                        continue;
                    }
                }
            }
            let route_to = if tree.is_ancestor(c, a) {
                // Strictly above `a`: descend toward it (structural).
                search.lca.ancestor_at_depth(a, tree.depth(c) + 1)
            } else if tree.is_ancestor(a, c) {
                // Strictly below `a`: on the excluded branch the endpoint
                // cannot be; otherwise one query decides whether `c` is on
                // the arm.
                let masked = exclude.is_some_and(|x| tree.is_ancestor(x, c));
                if !masked && search.interesting(e, c, meter) {
                    // `c` is an arm vertex: re-anchor and resolve it as the
                    // new deepest confirmed vertex next iteration.
                    exclude = None;
                    a = c;
                    continue;
                }
                // Off the arm: the endpoint is outside subtree(c).
                tree.parent(c)
            } else {
                // Incomparable with `a`: the endpoint lives in subtree(a),
                // disjoint from subtree(c).
                tree.parent(c)
            };
            c = self.cd.child_toward(c, route_to);
        }
    }
}

/// Interest-path search over a fixed [`CutQuery`] structure, bound to a
/// prebuilt [`InterestEngine`].
///
/// Holds an [`LcaEngine`] rather than a bare lifting table: the arm
/// binary searches need its level-ancestor queries.
pub struct InterestSearch<'a> {
    q: &'a CutQuery<'a>,
    lca: &'a LcaEngine,
    engine: &'a InterestEngine,
}

impl<'a> InterestSearch<'a> {
    /// Bind the search to a prebuilt tree-lifetime engine — no per-call
    /// rebuild.
    pub fn new(q: &'a CutQuery<'a>, lca: &'a LcaEngine, engine: &'a InterestEngine) -> Self {
        InterestSearch { q, lca, engine }
    }

    /// Is `f` interesting for `e` (`2 cov(e,f) > cov(e)`)?
    pub fn interesting(&self, e: u32, f: u32, meter: &Meter) -> bool {
        meter.bump(CostKind::InterestQuery);
        2 * self.q.cov2(e, f, meter) > self.q.cov(e)
    }

    /// Compute the arm endpoints for edge `e` (a non-root vertex).
    pub fn arms(&self, e: u32, meter: &Meter) -> Arms {
        let tree = self.q.tree();
        debug_assert_ne!(e, tree.root());
        let cov_e = self.q.cov(e);
        if cov_e == 0 {
            return Arms { de: e, ce: e };
        }
        // Down-arm: descend inside subtree(e).
        let de = self.engine.descend(self, e, e, cov_e, None, meter);

        // Up-arm: highest interesting ancestor edge by binary search on
        // depth (interest decreases going up).
        let de_pth = tree.depth(e);
        let apex = if de_pth >= 2 {
            let parent = tree.parent(e);
            if self.interesting(e, parent, meter) {
                // Minimal depth d in [1, depth(e)-1] with the ancestor
                // edge at depth d interesting.
                let (mut lo, mut hi) = (1u32, de_pth - 1);
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    let x = self.lca.ancestor_at_depth(e, mid);
                    if self.interesting(e, x, meter) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                Some(self.lca.ancestor_at_depth(e, lo))
            } else {
                None
            }
        } else {
            None
        };
        // Turn node: top of the up-arm (or e's parent for an empty
        // up-arm); the branch we arrived from is excluded.
        let (turn_node, exclude) = match apex {
            Some(x_star) => (tree.parent(x_star), x_star),
            None => (tree.parent(e), e),
        };
        let over = self.engine.descend(self, e, turn_node, cov_e, Some(exclude), meter);
        let ce = if over == turn_node { e } else { over };
        Arms { de, ce }
    }

    /// The unique child `c` of `v` (excluding `exclude`) whose edge is
    /// interesting for `e`, if any: binary search for the child interval
    /// where the cumulative coverage mass crosses `cov(e)/2`, then
    /// verify. `O(log deg(v))` coverage queries.
    pub fn interesting_child(
        &self,
        e: u32,
        v: u32,
        cov_e: u64,
        exclude: Option<u32>,
        meter: &Meter,
    ) -> Option<u32> {
        let tree = self.q.tree();
        let children = tree.children(v);
        if children.is_empty() {
            return None;
        }
        // Mass of covering edges landing in the y-interval [y1, y2]
        // (a union of child subtrees): the other endpoint must be on the
        // far side of e.
        let nested_mode = tree.is_ancestor(e, v);
        let (es, ep) = (tree.start(e), tree.post(e));
        let max_coord = (tree.n() as u32) - 1;
        let mass = |y1: u32, y2: u32| -> u64 {
            meter.bump(CostKind::CutQuery);
            meter.bump(CostKind::InterestQuery);
            if nested_mode {
                // Children lie below e: covering edges run from the
                // child's subtree to outside subtree(e); count from the
                // complement-x side.
                let mut total = 0;
                if es > 0 {
                    total += self.q.rect(0, es - 1, y1, y2, meter);
                }
                if ep < max_coord {
                    total += self.q.rect(ep + 1, max_coord, y1, y2, meter);
                }
                total
            } else {
                // Children are incomparable with e: covering edges run
                // from subtree(e) into the child's subtree.
                self.q.rect(es, ep, y1, y2, meter)
            }
        };
        // Child index segments (exclusion splits the array in two).
        let ex_idx = exclude.and_then(|x| children.iter().position(|&c| c == x));
        let segments: [(usize, usize); 2] = match ex_idx {
            Some(i) => [(0, i), (i + 1, children.len())],
            None => [(0, children.len()), (0, 0)],
        };
        for &(s0, s1) in &segments {
            if s0 >= s1 {
                continue;
            }
            if s1 - s0 == 1 {
                // Single candidate: one mass probe decides.
                let c = children[s0];
                if 2 * mass(tree.start(c), tree.post(c)) > cov_e {
                    return Some(c);
                }
                continue;
            }
            let seg_lo = tree.start(children[s0]);
            let total = mass(seg_lo, tree.post(children[s1 - 1]));
            if 2 * total <= cov_e {
                continue;
            }
            // Smallest j with cumulative(s0..=j) * 2 > cov_e.
            let (mut lo, mut hi) = (s0, s1 - 1);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if 2 * mass(seg_lo, tree.post(children[mid])) > cov_e {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            let c = children[lo];
            // Verify: the crossing child really is interesting.
            if 2 * mass(tree.start(c), tree.post(c)) > cov_e {
                return Some(c);
            }
        }
        None
    }

    /// Brute-force interesting set (tests/ablation): all `f` with
    /// `2 cov(e,f) > cov(e)`.
    pub fn brute_interesting_set(&self, e: u32, meter: &Meter) -> Vec<u32> {
        let tree = self.q.tree();
        (0..tree.n() as u32)
            .filter(|&f| f != tree.root() && f != e && self.interesting(e, f, meter))
            .collect()
    }

    /// Brute-force arm endpoints (the tests' oracle for [`Self::arms`]):
    /// `de` is the deepest interesting descendant of `e`, and `ce` the
    /// deepest interesting edge incomparable with `e`; each is `e` when
    /// there is none.
    pub fn brute_arms(&self, e: u32, meter: &Meter) -> Arms {
        let tree = self.q.tree();
        let set = self.brute_interesting_set(e, meter);
        let deepest = |pred: &dyn Fn(u32) -> bool| -> u32 {
            set.iter().copied().filter(|&f| pred(f)).max_by_key(|&f| tree.depth(f)).unwrap_or(e)
        };
        Arms {
            de: deepest(&|f| tree.is_ancestor(e, f)),
            ce: deepest(&|f| !tree.is_ancestor(e, f) && !tree.is_ancestor(f, e)),
        }
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use pmc_graph::{generators, Graph};
    use pmc_parallel::spanning_forest::spanning_forest;
    use pmc_tree::{LcaStrategy, RootedTree};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lca_of(tree: &RootedTree) -> LcaEngine {
        LcaEngine::build(tree, LcaStrategy::default(), &Meter::disabled())
    }

    fn build_engine(q: &CutQuery<'_>) -> InterestEngine {
        InterestEngine::build(q.tree(), InterestStrategy::default(), &Meter::disabled())
    }

    struct Fixture {
        g: Graph,
        tree: std::sync::Arc<RootedTree>,
    }

    fn fixture(n: usize, extra: usize, seed: u64) -> Fixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnm_connected(n, extra, 9, &mut rng);
        let forest = spanning_forest(&g, &Meter::disabled());
        let edges: Vec<(u32, u32)> =
            forest.iter().map(|&i| (g.edge(i as usize).u, g.edge(i as usize).v)).collect();
        let tree = std::sync::Arc::new(RootedTree::from_edge_list(g.n(), &edges, 0));
        Fixture { g, tree }
    }

    /// The root-to-x vertex chain.
    fn root_chain(tree: &RootedTree, x: u32) -> Vec<u32> {
        let mut out = vec![x];
        let mut v = x;
        while v != tree.root() {
            v = tree.parent(v);
            out.push(v);
        }
        out
    }

    #[test]
    fn interesting_set_is_a_path() {
        // Claim 4.8 empirically: Π(e) ∪ {e} is connected and branchless.
        for seed in 0..5 {
            let f = fixture(24, 50, 200 + seed);
            let lca = lca_of(&f.tree);
            let q = CutQuery::build(&f.g, &f.tree, &lca, 0.5, &Meter::disabled());
            let engine = build_engine(&q);
            let is = InterestSearch::new(&q, &lca, &engine);
            let m = Meter::disabled();
            for e in 1..24u32 {
                let set = is.brute_interesting_set(e, &m);
                // Each interesting edge's chain to e must be interesting
                // throughout (connectivity along the tree path).
                for &fe in &set {
                    let l = lca.lca(e, fe);
                    // walk fe up to l; every edge strictly between fe and
                    // l must be interesting too.
                    let mut cur = fe;
                    while cur != l {
                        let nxt = f.tree.parent(cur);
                        if cur != fe && cur != e {
                            assert!(
                                set.contains(&cur),
                                "seed {seed} e={e}: gap at {cur} inside Π"
                            );
                        }
                        cur = nxt;
                    }
                    // and from e up to l (excluding e itself).
                    let mut cur = e;
                    while cur != l {
                        let nxt = f.tree.parent(cur);
                        if cur != e {
                            assert!(set.contains(&cur), "seed {seed} e={e}: gap at {cur}");
                        }
                        cur = nxt;
                    }
                }
            }
        }
    }

    #[test]
    fn arms_cover_interesting_set() {
        // The guarantee the tuple generation needs: every interesting f
        // lies on root->de or root->ce.
        for seed in 0..8 {
            let f = fixture(30, 70, 300 + seed);
            let lca = lca_of(&f.tree);
            let q = CutQuery::build(&f.g, &f.tree, &lca, 0.4, &Meter::disabled());
            let m = Meter::disabled();
            let engine = build_engine(&q);
            let is = InterestSearch::new(&q, &lca, &engine);
            for e in 1..30u32 {
                let arms = is.arms(e, &m);
                let set = is.brute_interesting_set(e, &m);
                let cover: std::collections::HashSet<u32> = root_chain(&f.tree, arms.de)
                    .into_iter()
                    .chain(root_chain(&f.tree, arms.ce))
                    .collect();
                for &fe in &set {
                    assert!(
                        cover.contains(&fe),
                        "seed {seed} e={e}: interesting edge {fe} not covered by arms {arms:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn strategies_agree_exactly() {
        // The arm endpoints are uniquely determined (deepest vertex of
        // each arm), so the centroid descent must return exactly the
        // brute-force endpoints.
        for seed in 0..10 {
            let f = fixture(28, 64, 500 + seed);
            let lca = lca_of(&f.tree);
            let q = CutQuery::build(&f.g, &f.tree, &lca, 0.5, &Meter::disabled());
            let m = Meter::disabled();
            let engine = build_engine(&q);
            let is = InterestSearch::new(&q, &lca, &engine);
            for e in 1..28u32 {
                assert_eq!(is.arms(e, &m), is.brute_arms(e, &m), "seed {seed} e={e}");
            }
        }
    }

    #[test]
    fn arms_cover_on_structured_graphs() {
        let graphs = vec![
            generators::dumbbell(6, 5, 2),
            generators::ring_of_cliques(4, 4, 3, 1),
            generators::grid(5, 5, 2),
            generators::cycle(20, 3),
        ];
        for (gi, g) in graphs.into_iter().enumerate() {
            let forest = spanning_forest(&g, &Meter::disabled());
            let edges: Vec<(u32, u32)> =
                forest.iter().map(|&i| (g.edge(i as usize).u, g.edge(i as usize).v)).collect();
            let tree = std::sync::Arc::new(RootedTree::from_edge_list(g.n(), &edges, 0));
            let lca = lca_of(&tree);
            let q = CutQuery::build(&g, &tree, &lca, 0.5, &Meter::disabled());
            let m = Meter::disabled();
            let engine = build_engine(&q);
            let is = InterestSearch::new(&q, &lca, &engine);
            for e in (0..g.n() as u32).filter(|&v| v != tree.root()) {
                let arms = is.arms(e, &m);
                let set = is.brute_interesting_set(e, &m);
                let cover: std::collections::HashSet<u32> = root_chain(&tree, arms.de)
                    .into_iter()
                    .chain(root_chain(&tree, arms.ce))
                    .collect();
                for &fe in &set {
                    assert!(cover.contains(&fe), "graph {gi} e={e}: {fe}");
                }
            }
        }
    }

    #[test]
    fn path_tree_arms() {
        // Path graph: every pair of path edges has cut 2w; cov = w.
        // cov2(e, f) = 0 for distinct path edges (no edge covers both on
        // a pure path graph), so nothing is interesting.
        let g = generators::path(12, 4);
        let parent: Vec<u32> = (0..12u32).map(|v| v.saturating_sub(1)).collect();
        let tree = std::sync::Arc::new(RootedTree::from_parents(0, &parent));
        let lca = lca_of(&tree);
        let q = CutQuery::build(&g, &tree, &lca, 0.5, &Meter::disabled());
        let m = Meter::disabled();
        let engine = build_engine(&q);
        let is = InterestSearch::new(&q, &lca, &engine);
        for e in 1..12u32 {
            assert!(is.brute_interesting_set(e, &m).is_empty());
            assert_eq!(is.arms(e, &m), Arms { de: e, ce: e });
        }
    }

    #[test]
    fn cycle_arms_reach_everywhere() {
        // Cycle graph with a path tree: the heavy chord covers every
        // tree edge, so for each e all other edges are interesting.
        let mut edges: Vec<(u32, u32, u64)> =
            (0..9u32).map(|i| (i, i + 1, 1)).collect();
        edges.push((0, 9, 5)); // heavy chord
        let g = Graph::from_edges(10, edges);
        let parent: Vec<u32> = (0..10u32).map(|v| v.saturating_sub(1)).collect();
        let tree = std::sync::Arc::new(RootedTree::from_parents(0, &parent));
        let lca = lca_of(&tree);
        let q = CutQuery::build(&g, &tree, &lca, 0.5, &Meter::disabled());
        let m = Meter::disabled();
        // Every tree edge is covered by the chord (weight 5) and itself
        // (weight 1): cov = 6, cov2 = 5 between any two tree edges.
        let engine = build_engine(&q);
        let is = InterestSearch::new(&q, &lca, &engine);
        for e in 1..10u32 {
            assert_eq!(q.cov(e), 6);
            let set = is.brute_interesting_set(e, &m);
            assert_eq!(set.len(), 8, "e={e}: all other edges interesting");
            let arms = is.arms(e, &m);
            // Down-arm reaches the deepest vertex, up-arm the rest.
            let cover: std::collections::HashSet<u32> = root_chain(&tree, arms.de)
                .into_iter()
                .chain(root_chain(&tree, arms.ce))
                .collect();
            for &fe in &set {
                assert!(cover.contains(&fe));
            }
        }
    }

    #[test]
    fn figure_1_interest_relations() {
        // The example of Figure 1: an unweighted graph whose spanning
        // tree is drawn with solid edges. We reproduce the relations the
        // caption states: e cross-interested in f, f in e, and e'
        // down-interested in f.
        //
        //            r(0)
        //           /    \
        //         a(1)   b(2)
        //          |      |     tree edges: e = (1,3), f' chain on right:
        //         e:3    e'(4)  e' = (2,4), f = (4,5)
        //                 |
        //                f:5
        // non-tree: (3,5) x2 — heavy coverage between T_e and T_f.
        let g = Graph::from_edges(
            6,
            [
                (0, 1, 1),
                (0, 2, 1),
                (1, 3, 1),
                (2, 4, 1),
                (4, 5, 1),
                (3, 5, 2), // dashed, weight 2
            ],
        );
        let tree = std::sync::Arc::new(RootedTree::from_parents(0, &[0, 0, 0, 1, 2, 4]));
        let lca = lca_of(&tree);
        let q = CutQuery::build(&g, &tree, &lca, 0.5, &Meter::disabled());
        let engine = build_engine(&q);
        let is = InterestSearch::new(&q, &lca, &engine);
        let m = Meter::disabled();
        let (e, f, e_prime) = (3u32, 5u32, 4u32);
        // e is cross-interested in f and vice versa.
        assert!(is.interesting(e, f, &m));
        assert!(is.interesting(f, e, &m));
        // e' is down-interested in f.
        assert!(is.interesting(e_prime, f, &m));
    }
}
