//! Binary-lifting LCA, level-ancestor queries, and the [`LcaEngine`]
//! that answers each LCA query from the O(1) sparse table.
//!
//! The interest search (§4.1.3) binary-searches along root-to-vertex
//! chains; [`LcaTable::ancestor_at_depth`] provides the `O(log n)` jump
//! primitive. Construction is `O(n log n)` work, queries `O(log n)`.
//! For the pure-LCA volume (one query per graph edge in the coverage
//! build, Lemma A.1) [`LcaEngine`] answers from
//! [`crate::rmq::SparseLca`] — O(1) per query — while level-ancestor
//! queries stay with the lifting table, which also serves the tests as
//! the sparse table's oracle.

use crate::rmq::SparseLca;
use crate::rooted::RootedTree;
use pmc_parallel::meter::{CostKind, Meter};

/// Sparse jump-pointer table over a [`RootedTree`].
#[derive(Debug, Clone)]
pub struct LcaTable {
    /// `up[k][v]` = the `2^k`-th ancestor of `v` (clamped at the root).
    up: Vec<Vec<u32>>,
    depth: Vec<u32>,
}

impl LcaTable {
    pub fn build(tree: &RootedTree) -> Self {
        let n = tree.n();
        let levels = usize::BITS as usize - n.max(2).leading_zeros() as usize;
        let mut up = Vec::with_capacity(levels);
        let base: Vec<u32> = (0..n as u32).map(|v| tree.parent(v)).collect();
        up.push(base);
        for k in 1..levels.max(1) {
            let prev = &up[k - 1];
            let next: Vec<u32> = (0..n).map(|v| prev[prev[v] as usize]).collect();
            up.push(next);
        }
        let depth = (0..n as u32).map(|v| tree.depth(v)).collect();
        LcaTable { up, depth }
    }

    #[inline]
    pub fn depth(&self, v: u32) -> u32 {
        self.depth[v as usize]
    }

    /// Number of jump levels in the table (`ceil(log2 n)`, at least 1).
    #[inline]
    pub fn levels(&self) -> usize {
        self.up.len()
    }

    /// The `k`-th ancestor of `v`, **saturating at the root** when `k`
    /// exceeds `depth(v)`.
    ///
    /// The saturation must be explicit: the jump loop below only walks
    /// `up.len()` levels, so bits of `k` at positions `>= up.len()`
    /// would otherwise be *silently dropped* (e.g. `n = 8`, `k = 8`
    /// would return `v` unchanged instead of the root). Clamping `k` to
    /// `depth(v)` first is always representable — `depth(v) < n <=
    /// 2^levels` — and pins the contract to "walk to the root, stop
    /// there".
    pub fn kth_ancestor(&self, mut v: u32, k: u32) -> u32 {
        debug_assert!((v as usize) < self.depth.len(), "vertex out of range");
        let mut k = k.min(self.depth[v as usize]);
        let mut level = 0;
        while k > 0 {
            debug_assert!(level < self.up.len(), "clamped k must fit the table");
            if k & 1 == 1 {
                v = self.up[level][v as usize];
            }
            k >>= 1;
            level += 1;
        }
        v
    }

    /// The ancestor of `v` at depth `d`; panics if `d > depth(v)`.
    pub fn ancestor_at_depth(&self, v: u32, d: u32) -> u32 {
        let dv = self.depth[v as usize];
        assert!(d <= dv, "requested depth below vertex");
        let a = self.kth_ancestor(v, dv - d);
        debug_assert_eq!(self.depth[a as usize], d, "level-ancestor landed off-depth");
        a
    }

    /// Lowest common ancestor of `a` and `b`.
    pub fn lca(&self, mut a: u32, mut b: u32) -> u32 {
        if self.depth[a as usize] < self.depth[b as usize] {
            std::mem::swap(&mut a, &mut b);
        }
        a = self.kth_ancestor(a, self.depth[a as usize] - self.depth[b as usize]);
        if a == b {
            return a;
        }
        for level in (0..self.up.len()).rev() {
            let (ua, ub) = (self.up[level][a as usize], self.up[level][b as usize]);
            if ua != ub {
                a = ua;
                b = ub;
            }
        }
        self.up[0][a as usize]
    }

    /// Distance (number of tree edges) between `a` and `b`.
    pub fn distance(&self, a: u32, b: u32) -> u32 {
        let l = self.lca(a, b);
        self.depth[a as usize] + self.depth[b as usize] - 2 * self.depth[l as usize]
    }
}

/// Which engine answers plain `lca(a, b)` queries.
///
/// It has one value: the O(1) sparse table. The enum stays only because
/// perfbench's trace passes it to [`LcaEngine::build`]; it goes when that
/// trace is rewritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LcaStrategy {
    /// Euler tour + block-decomposed sparse table
    /// ([`crate::rmq::SparseLca`]): `O(n)` build words, one probe per
    /// query.
    #[default]
    SparseTable,
}

/// The LCA substrate a solver context carries: the O(1) sparse table for
/// `lca`/`lca_metered`/`distance`, and the lifting table for
/// `kth_ancestor`/`ancestor_at_depth` (and as the sparse table's test
/// oracle, [`LcaEngine::table`]).
#[derive(Debug, Clone)]
pub struct LcaEngine {
    lifting: LcaTable,
    sparse: SparseLca,
}

impl LcaEngine {
    /// Build both tables. `_strategy` has one value ([`LcaStrategy`]).
    pub fn build(tree: &RootedTree, _strategy: LcaStrategy, meter: &Meter) -> Self {
        LcaEngine { lifting: LcaTable::build(tree), sparse: SparseLca::build(tree, meter) }
    }

    /// The underlying binary-lifting table (level-ancestor substrate).
    #[inline]
    pub fn table(&self) -> &LcaTable {
        &self.lifting
    }

    #[inline]
    pub fn depth(&self, v: u32) -> u32 {
        self.lifting.depth(v)
    }

    /// See [`LcaTable::kth_ancestor`] — saturates at the root.
    #[inline]
    pub fn kth_ancestor(&self, v: u32, k: u32) -> u32 {
        self.lifting.kth_ancestor(v, k)
    }

    /// See [`LcaTable::ancestor_at_depth`].
    #[inline]
    pub fn ancestor_at_depth(&self, v: u32, d: u32) -> u32 {
        self.lifting.ancestor_at_depth(v, d)
    }

    #[inline]
    pub fn lca(&self, a: u32, b: u32) -> u32 {
        self.sparse.lca(a, b)
    }

    /// [`LcaEngine::lca`] plus one [`CostKind::LcaStep`]: the sparse
    /// table answers with one probe. The ablation harness reads this
    /// gauge to *record* (not assert) that the per-query cost does not
    /// grow with depth.
    ///
    /// There is no batched form: the coverage pass (one query per graph
    /// edge) calls this per edge, because an offline sorted sweep over
    /// the Euler tour measured ~1.9× slower than the O(1) probes
    /// (DESIGN.md §13).
    #[inline]
    pub fn lca_metered(&self, a: u32, b: u32, meter: &Meter) -> u32 {
        meter.bump(CostKind::LcaStep);
        self.sparse.lca(a, b)
    }

    #[inline]
    pub fn distance(&self, a: u32, b: u32) -> u32 {
        self.sparse.distance(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (RootedTree, LcaTable) {
        // Same shape as rooted.rs sample.
        let t = RootedTree::from_parents(0, &[0, 0, 0, 1, 1, 2, 4]);
        let l = LcaTable::build(&t);
        (t, l)
    }

    #[test]
    fn kth_ancestors() {
        let (_, l) = sample();
        assert_eq!(l.kth_ancestor(6, 1), 4);
        assert_eq!(l.kth_ancestor(6, 2), 1);
        assert_eq!(l.kth_ancestor(6, 3), 0);
        assert_eq!(l.kth_ancestor(6, 99), 0); // clamped
    }

    #[test]
    fn kth_ancestor_saturates_when_k_exceeds_table_levels() {
        // Regression: a path of 8 vertices yields a 4-level table, and
        // before the clamp any k whose set bits all sat at positions
        // >= levels (k = 16, 32, ...) walked zero levels and returned v
        // unchanged instead of saturating at the root.
        let parent: Vec<u32> = (0..8u32).map(|v| v.saturating_sub(1)).collect();
        let t = RootedTree::from_parents(0, &parent);
        let l = LcaTable::build(&t);
        for k in [8u32, 16, 32, 64, 128, 1 << 20, u32::MAX] {
            assert_eq!(l.kth_ancestor(7, k), 0, "k={k} must saturate at root");
            assert_eq!(l.kth_ancestor(3, k), 0, "k={k} must saturate at root");
        }
        // Exact jumps still land exactly.
        assert_eq!(l.kth_ancestor(7, 7), 0);
        assert_eq!(l.kth_ancestor(7, 6), 1);
        // Tiny trees: every k saturates at the root immediately.
        let t2 = RootedTree::from_parents(0, &[0, 0]);
        let l2 = LcaTable::build(&t2);
        assert_eq!(l2.kth_ancestor(1, u32::MAX), 0);
        assert_eq!(l2.kth_ancestor(0, 5), 0);
    }

    #[test]
    fn ancestor_at_depth() {
        let (_, l) = sample();
        assert_eq!(l.ancestor_at_depth(6, 3), 6);
        assert_eq!(l.ancestor_at_depth(6, 2), 4);
        assert_eq!(l.ancestor_at_depth(6, 0), 0);
    }

    #[test]
    #[should_panic]
    fn ancestor_below_vertex_panics() {
        let (_, l) = sample();
        l.ancestor_at_depth(3, 3);
    }

    #[test]
    fn lca_pairs() {
        let (_, l) = sample();
        assert_eq!(l.lca(3, 6), 1);
        assert_eq!(l.lca(3, 4), 1);
        assert_eq!(l.lca(3, 5), 0);
        assert_eq!(l.lca(6, 5), 0);
        assert_eq!(l.lca(4, 6), 4);
        assert_eq!(l.lca(2, 2), 2);
    }

    #[test]
    fn distances() {
        let (_, l) = sample();
        assert_eq!(l.distance(3, 6), 3);
        assert_eq!(l.distance(5, 6), 5);
        assert_eq!(l.distance(0, 0), 0);
    }

    #[test]
    fn long_path_correct() {
        let n = 1 << 12;
        let parent: Vec<u32> = (0..n as u32).map(|v| v.saturating_sub(1)).collect();
        let t = RootedTree::from_parents(0, &parent);
        let l = LcaTable::build(&t);
        assert_eq!(l.lca(100, 4000), 100);
        assert_eq!(l.kth_ancestor(4095, 4095), 0);
        assert_eq!(l.ancestor_at_depth(4095, 1234), 1234);
        assert_eq!(l.distance(10, 20), 10);
    }

    #[test]
    fn engine_strategies_agree_and_meter_steps() {
        // The engine's sparse-table answers equal its lifting table's.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(91);
        let n = 400u32;
        let parent: Vec<u32> =
            (0..n).map(|v| if v == 0 { 0 } else { rng.random_range(0..v) }).collect();
        let t = RootedTree::from_parents(0, &parent);
        let engine = LcaEngine::build(&t, LcaStrategy::default(), &Meter::disabled());
        let lifting = engine.table();
        let meter = Meter::enabled();
        for _ in 0..200 {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            assert_eq!(engine.lca_metered(a, b, &meter), lifting.lca(a, b));
            assert_eq!(engine.distance(a, b), lifting.distance(a, b));
            assert_eq!(engine.kth_ancestor(a, u32::MAX), 0);
        }
        // Exactly one step per query.
        assert_eq!(meter.get(CostKind::LcaStep), 200);
    }

    #[test]
    fn lca_step_constant_per_query_as_depth_grows() {
        // The acceptance gauge: steps/query must not grow with tree
        // depth, while the lifting table's levels (its per-query probes)
        // do.
        let mut levels_prev = 0;
        for n in [1u32 << 6, 1 << 10, 1 << 14] {
            let parent: Vec<u32> = (0..n).map(|v| v.saturating_sub(1)).collect();
            let t = RootedTree::from_parents(0, &parent);
            let engine = LcaEngine::build(&t, LcaStrategy::default(), &Meter::disabled());
            let meter = Meter::enabled();
            for q in 0..64u32 {
                let a = q % n;
                let b = n - 1 - (q % n);
                assert_eq!(engine.lca_metered(a, b, &meter), engine.table().lca(a, b));
            }
            assert_eq!(meter.get(CostKind::LcaStep), 64, "O(1): one step per query at n={n}");
            let levels = engine.table().levels();
            assert!(levels > levels_prev, "lifting levels grow with depth at n={n}");
            levels_prev = levels;
        }
    }

    #[test]
    fn random_tree_lca_vs_naive() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let n = 300u32;
        let parent: Vec<u32> =
            (0..n).map(|v| if v == 0 { 0 } else { rng.random_range(0..v) }).collect();
        let t = RootedTree::from_parents(0, &parent);
        let l = LcaTable::build(&t);
        let naive_lca = |mut a: u32, mut b: u32| {
            while a != b {
                if t.depth(a) >= t.depth(b) {
                    a = t.parent(a);
                } else {
                    b = t.parent(b);
                }
            }
            a
        };
        for _ in 0..500 {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            assert_eq!(l.lca(a, b), naive_lca(a, b));
        }
    }
}
