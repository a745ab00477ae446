//! Binary-lifting LCA, level-ancestor queries, and the pluggable
//! [`LcaEngine`] that dispatches between lifting and the O(1)
//! sparse-table path.
//!
//! The interest search (§4.1.3) binary-searches along root-to-vertex
//! chains; [`LcaTable::ancestor_at_depth`] provides the `O(log n)` jump
//! primitive. Construction is `O(n log n)` work, queries `O(log n)`.
//! For the pure-LCA volume (one query per graph edge in the coverage
//! build, Lemma A.1) [`LcaStrategy::SparseTable`] swaps in
//! [`crate::rmq::SparseLca`] — O(1) per query — while level-ancestor
//! queries always stay with the lifting table.

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

/// Which engine answers plain `lca(a, b)` queries. Like
/// `InterestStrategy`, a params enum with a human-readable
/// [`name`](LcaStrategy::name) for ablation tables.
///
/// Level-ancestor queries (`kth_ancestor`, `ancestor_at_depth`) are not
/// affected — both strategies keep the binary-lifting table for those.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LcaStrategy {
    /// Binary lifting: `O(n log n)` build, `O(log n)` table probes per
    /// query.
    Lifting,
    /// Euler tour + block-decomposed sparse table
    /// ([`crate::rmq::SparseLca`]): `O(n)` build words, one probe per
    /// query.
    #[default]
    SparseTable,
}

impl LcaStrategy {
    pub fn name(self) -> &'static str {
        match self {
            LcaStrategy::Lifting => "lifting",
            LcaStrategy::SparseTable => "sparse-table",
        }
    }
}

/// Anything that can answer LCA queries with metered step accounting.
///
/// `lca_metered` charges [`CostKind::LcaStep`] with the number of table
/// probes the query performs — `levels()` for binary lifting (grows
/// with `log n`), exactly 1 for the sparse-table path. The ablation
/// harness reads this gauge to *record* (not assert) that the O(1)
/// engine's per-query cost does not grow with depth.
///
/// There is no batched form: the coverage pass (one query per graph
/// edge) calls `lca_metered` per edge, because an offline sorted sweep
/// over the Euler tour measured ~1.9× slower than the O(1) probes
/// (DESIGN.md §13).
pub trait LcaOracle: Sync {
    /// Lowest common ancestor of `a` and `b`.
    fn lca(&self, a: u32, b: u32) -> u32;
    /// Depth of vertex `v` (named to avoid colliding with the inherent
    /// `depth` accessors of the implementors).
    fn node_depth(&self, v: u32) -> u32;
    /// [`LcaOracle::lca`] plus a [`CostKind::LcaStep`] charge per table
    /// probe.
    fn lca_metered(&self, a: u32, b: u32, meter: &Meter) -> u32;
}

impl LcaOracle for LcaTable {
    #[inline]
    fn lca(&self, a: u32, b: u32) -> u32 {
        LcaTable::lca(self, a, b)
    }

    #[inline]
    fn node_depth(&self, v: u32) -> u32 {
        self.depth(v)
    }

    #[inline]
    fn lca_metered(&self, a: u32, b: u32, meter: &Meter) -> u32 {
        // The lifting descent examines every jump level once (plus the
        // equalizing kth_ancestor walk, same order) — charge one step
        // per level so the gauge scales like the real probe count.
        meter.add(CostKind::LcaStep, self.levels() as u64);
        LcaTable::lca(self, a, b)
    }
}

impl LcaOracle for SparseLca {
    #[inline]
    fn lca(&self, a: u32, b: u32) -> u32 {
        SparseLca::lca(self, a, b)
    }

    #[inline]
    fn node_depth(&self, v: u32) -> u32 {
        self.depth(v)
    }

    #[inline]
    fn lca_metered(&self, a: u32, b: u32, meter: &Meter) -> u32 {
        // One O(1) RMQ probe, whatever the tree depth.
        meter.bump(CostKind::LcaStep);
        SparseLca::lca(self, a, b)
    }
}

/// The LCA substrate a solver context carries: always the lifting table
/// (level ancestors need it), plus the O(1) sparse structure when
/// [`LcaStrategy::SparseTable`] is selected. `lca`/`distance` dispatch
/// on the strategy; `kth_ancestor`/`ancestor_at_depth` delegate to the
/// lifting table unconditionally.
#[derive(Debug, Clone)]
pub struct LcaEngine {
    lifting: LcaTable,
    sparse: Option<SparseLca>,
}

impl LcaEngine {
    pub fn build(tree: &RootedTree, strategy: LcaStrategy, meter: &Meter) -> Self {
        let lifting = LcaTable::build(tree);
        let sparse = match strategy {
            LcaStrategy::Lifting => None,
            LcaStrategy::SparseTable => Some(SparseLca::build(tree, meter)),
        };
        LcaEngine { lifting, sparse }
    }

    /// The strategy this engine was built with.
    #[inline]
    pub fn strategy(&self) -> LcaStrategy {
        if self.sparse.is_some() {
            LcaStrategy::SparseTable
        } else {
            LcaStrategy::Lifting
        }
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
        match &self.sparse {
            Some(s) => s.lca(a, b),
            None => self.lifting.lca(a, b),
        }
    }

    #[inline]
    pub fn distance(&self, a: u32, b: u32) -> u32 {
        match &self.sparse {
            Some(s) => s.distance(a, b),
            None => self.lifting.distance(a, b),
        }
    }
}

impl LcaOracle for LcaEngine {
    #[inline]
    fn lca(&self, a: u32, b: u32) -> u32 {
        LcaEngine::lca(self, a, b)
    }

    #[inline]
    fn node_depth(&self, v: u32) -> u32 {
        self.depth(v)
    }

    #[inline]
    fn lca_metered(&self, a: u32, b: u32, meter: &Meter) -> u32 {
        match &self.sparse {
            Some(s) => s.lca_metered(a, b, meter),
            None => self.lifting.lca_metered(a, b, meter),
        }
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
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(91);
        let n = 400u32;
        let parent: Vec<u32> =
            (0..n).map(|v| if v == 0 { 0 } else { rng.random_range(0..v) }).collect();
        let t = RootedTree::from_parents(0, &parent);
        let lifting = LcaEngine::build(&t, LcaStrategy::Lifting, &Meter::disabled());
        let sparse = LcaEngine::build(&t, LcaStrategy::SparseTable, &Meter::disabled());
        assert_eq!(lifting.strategy(), LcaStrategy::Lifting);
        assert_eq!(sparse.strategy(), LcaStrategy::SparseTable);
        let (ml, ms) = (Meter::enabled(), Meter::enabled());
        for _ in 0..200 {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            assert_eq!(lifting.lca_metered(a, b, &ml), sparse.lca_metered(a, b, &ms));
            assert_eq!(lifting.distance(a, b), sparse.distance(a, b));
            assert_eq!(lifting.kth_ancestor(a, u32::MAX), 0);
            assert_eq!(sparse.kth_ancestor(a, u32::MAX), 0);
        }
        // Sparse charges exactly one step per query; lifting charges
        // levels() per query (> 1 for n = 400).
        assert_eq!(ms.get(CostKind::LcaStep), 200);
        assert_eq!(ml.get(CostKind::LcaStep), 200 * lifting.table().levels() as u64);
        assert!(ml.get(CostKind::LcaStep) > ms.get(CostKind::LcaStep));
    }

    #[test]
    fn lca_step_constant_per_query_as_depth_grows() {
        // The acceptance gauge: sparse-table steps/query must not grow
        // with tree depth, lifting's must.
        let mut lift_prev = 0u64;
        for n in [1u32 << 6, 1 << 10, 1 << 14] {
            let parent: Vec<u32> = (0..n).map(|v| v.saturating_sub(1)).collect();
            let t = RootedTree::from_parents(0, &parent);
            let sparse = LcaEngine::build(&t, LcaStrategy::SparseTable, &Meter::disabled());
            let lifting = LcaEngine::build(&t, LcaStrategy::Lifting, &Meter::disabled());
            let (ms, ml) = (Meter::enabled(), Meter::enabled());
            for q in 0..64u32 {
                let a = q % n;
                let b = n - 1 - (q % n);
                assert_eq!(sparse.lca_metered(a, b, &ms), lifting.lca_metered(a, b, &ml));
            }
            assert_eq!(ms.get(CostKind::LcaStep), 64, "O(1): one step per query at n={n}");
            let lift_now = ml.get(CostKind::LcaStep);
            assert!(lift_now > lift_prev, "lifting steps grow with depth at n={n}");
            lift_prev = lift_now;
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
