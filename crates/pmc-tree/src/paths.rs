//! Edge-disjoint path decompositions and the Root-paths structure.
//!
//! §4.1.1 needs a partition `P` of the tree edges into descending paths
//! such that any root-to-leaf path meets `O(log n)` members of `P`
//! (Property 4.3). Heavy paths provide it: the light edge above each
//! chain head is prepended to the chain's heavy edges, giving
//! edge-disjoint descending paths, and a root-to-leaf path crosses at
//! most `log2(n) + 1` of them.
//!
//! [`PathDecomposition::root_paths`] is the query of Lemma 4.5: the
//! decomposition paths met by the root-to-`u` path, found by jumping
//! from a path's top edge to its parent.

use crate::rooted::RootedTree;
use pmc_parallel::meter::{CostKind, Meter};

/// Which decomposition to build.
///
/// It has one value, heavy paths. The enum stays only because perfbench's
/// trace passes it to [`PathDecomposition::build`]; it goes when that
/// trace is rewritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PathStrategy {
    /// Heavy-path chains with the light top edge attached.
    #[default]
    HeavyPath,
}

/// An edge-disjoint partition of tree edges into descending paths.
///
/// Tree edges are identified by their lower endpoint; `paths[p]` lists
/// the edge-vertices of path `p` from shallowest to deepest, forming a
/// contiguous vertical chain.
#[derive(Debug, Clone)]
pub struct PathDecomposition {
    paths: Vec<Vec<u32>>,
    /// Path id of the edge below `v`; `u32::MAX` for the root.
    path_of: Vec<u32>,
    /// Position of edge `v` inside its path.
    pos_of: Vec<u32>,
}

impl PathDecomposition {
    /// Build the heavy-path decomposition. `_strategy` has one value
    /// ([`PathStrategy`]).
    pub fn build(tree: &RootedTree, _strategy: PathStrategy, meter: &Meter) -> Self {
        meter.add(CostKind::TreeOp, tree.n() as u64);
        let paths = heavy_paths(tree);
        let n = tree.n();
        let mut path_of = vec![u32::MAX; n];
        let mut pos_of = vec![u32::MAX; n];
        for (pid, p) in paths.iter().enumerate() {
            for (i, &v) in p.iter().enumerate() {
                debug_assert_eq!(path_of[v as usize], u32::MAX, "edge in two paths");
                path_of[v as usize] = pid as u32;
                pos_of[v as usize] = i as u32;
            }
        }
        PathDecomposition { paths, path_of, pos_of }
    }

    #[inline]
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }

    #[inline]
    pub fn paths(&self) -> &[Vec<u32>] {
        &self.paths
    }

    #[inline]
    pub fn path(&self, pid: u32) -> &[u32] {
        &self.paths[pid as usize]
    }

    /// Path containing the edge below `v` (`u32::MAX` for the root).
    #[inline]
    pub fn path_of(&self, v: u32) -> u32 {
        self.path_of[v as usize]
    }

    /// Position of edge `v` inside its path.
    #[inline]
    pub fn pos_of(&self, v: u32) -> u32 {
        self.pos_of[v as usize]
    }

    /// Lemma 4.5's `Root-paths(u)`: ids of the decomposition paths that
    /// intersect the root-to-`u` tree path, ordered from `u` upwards.
    /// `O(log n)` time by Property 4.3.
    pub fn root_paths(&self, tree: &RootedTree, u: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut v = u;
        while v != tree.root() {
            let pid = self.path_of[v as usize];
            out.push(pid);
            let top = self.paths[pid as usize][0];
            v = tree.parent(top);
        }
        out
    }

    /// Maximum number of decomposition paths met by any root-to-leaf
    /// path — the quantity Property 4.3 bounds by `O(log n)`.
    pub fn max_root_path_crossings(&self, tree: &RootedTree) -> usize {
        tree.leaves()
            .into_iter()
            .map(|l| self.root_paths(tree, l).len())
            .max()
            .unwrap_or(0)
    }

    /// Sanity invariants: every non-root edge is covered exactly once and
    /// every path is a vertical chain ordered shallow-to-deep.
    pub fn validate(&self, tree: &RootedTree) -> Result<(), String> {
        let mut covered = 0usize;
        for (pid, p) in self.paths.iter().enumerate() {
            if p.is_empty() {
                return Err(format!("path {pid} is empty"));
            }
            for w in p.windows(2) {
                if tree.parent(w[1]) != w[0] {
                    return Err(format!(
                        "path {pid} is not a vertical chain at {} -> {}",
                        w[0], w[1]
                    ));
                }
            }
            covered += p.len();
        }
        if covered != tree.n() - 1 {
            return Err(format!("covered {covered} edges, expected {}", tree.n() - 1));
        }
        Ok(())
    }
}

/// Heavy-path based partition.
fn heavy_paths(tree: &RootedTree) -> Vec<Vec<u32>> {
    let n = tree.n();
    if n <= 1 {
        return Vec::new();
    }
    let mut heavy = vec![u32::MAX; n];
    for v in 0..n as u32 {
        if let Some(h) = tree.heavy_child(v) {
            heavy[v as usize] = h;
        }
    }
    let mut paths = Vec::new();
    // Chain heads: the root, and every vertex that is not its parent's
    // heavy child.
    for v in 0..n as u32 {
        let is_head = v == tree.root() || heavy[tree.parent(v) as usize] != v;
        if !is_head {
            continue;
        }
        let mut path = Vec::new();
        if v != tree.root() {
            path.push(v); // the light edge above the chain head
        }
        let mut cur = heavy[v as usize];
        while cur != u32::MAX {
            path.push(cur);
            cur = heavy[cur as usize];
        }
        if !path.is_empty() {
            paths.push(path);
        }
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample() -> RootedTree {
        // Shape from rooted.rs: 0-(1,2), 1-(3,4), 2-5, 4-6.
        RootedTree::from_parents(0, &[0, 0, 0, 1, 1, 2, 4])
    }

    fn random_tree(n: u32, rng: &mut StdRng) -> RootedTree {
        let parent: Vec<u32> =
            (0..n).map(|v| if v == 0 { 0 } else { rng.random_range(0..v) }).collect();
        RootedTree::from_parents(0, &parent)
    }

    fn path_tree(n: u32) -> RootedTree {
        let parent: Vec<u32> = (0..n).map(|v| v.saturating_sub(1)).collect();
        RootedTree::from_parents(0, &parent)
    }

    fn build(t: &RootedTree) -> PathDecomposition {
        PathDecomposition::build(t, PathStrategy::default(), &Meter::disabled())
    }

    #[test]
    fn heavy_valid_on_sample() {
        let t = sample();
        let d = build(&t);
        d.validate(&t).expect("decomposition invariants hold");
        // Edge count preserved.
        let total: usize = d.paths().iter().map(|p| p.len()).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn both_valid_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(71);
        for n in [2u32, 3, 5, 17, 64, 257, 1000] {
            let t = random_tree(n, &mut rng);
            build(&t).validate(&t).unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn property_4_3_crossing_bound() {
        let mut rng = StdRng::seed_from_u64(72);
        for n in [16u32, 64, 256, 1024, 4096] {
            let t = random_tree(n, &mut rng);
            let log2n = (n as f64).log2();
            let crossings = build(&t).max_root_path_crossings(&t) as f64;
            assert!(crossings <= log2n + 2.0, "n={n}: {crossings} crossings > log2(n)+2");
        }
    }

    #[test]
    fn path_tree_single_path() {
        let t = path_tree(100);
        let d = build(&t);
        assert_eq!(d.num_paths(), 1);
        assert_eq!(d.path(0).len(), 99);
        // Ordered shallow-to-deep.
        assert_eq!(d.path(0)[0], 1);
        assert_eq!(*d.path(0).last().expect("path 0 is non-empty"), 99);
    }

    #[test]
    fn star_tree_many_paths() {
        let n = 50u32;
        let parent: Vec<u32> = vec![0; n as usize];
        let t = RootedTree::from_parents(0, &parent);
        let d = build(&t);
        assert_eq!(d.num_paths(), n as usize - 1);
        assert_eq!(d.max_root_path_crossings(&t), 1);
    }

    #[test]
    fn root_paths_walks_to_root() {
        let mut rng = StdRng::seed_from_u64(73);
        let t = random_tree(200, &mut rng);
        let d = build(&t);
        for u in 0..200u32 {
            let rp = d.root_paths(&t, u);
            // Union of path edges restricted to root->u chain equals chain.
            let mut chain = Vec::new();
            let mut v = u;
            while v != t.root() {
                chain.push(v);
                v = t.parent(v);
            }
            // Every chain edge's path id must appear in rp.
            for &e in &chain {
                assert!(rp.contains(&d.path_of(e)), "u={u} missing path of edge {e}");
            }
            // And no duplicates.
            let mut sorted = rp.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), rp.len(), "duplicate path ids");
        }
    }

    #[test]
    fn pos_of_matches_path_contents() {
        let mut rng = StdRng::seed_from_u64(74);
        let t = random_tree(150, &mut rng);
        let d = build(&t);
        for v in 1..150u32 {
            let pid = d.path_of(v);
            assert_eq!(d.path(pid)[d.pos_of(v) as usize], v);
        }
    }

    #[test]
    fn single_vertex_tree_empty() {
        let t = RootedTree::from_parents(0, &[0]);
        assert_eq!(build(&t).num_paths(), 0);
    }
}
