//! Centroid decomposition (Definition 4.11, Lemma 4.12).
//!
//! The decomposition tree has depth `O(log n)`: removing a centroid
//! leaves components of at most half the size. The paper uses it to
//! steer the search for interested edges (Claim 4.13), which is what
//! the default `Centroid` interest strategy in `pmc-mincut::interest`
//! does; the component-aware queries below ([`component_contains`],
//! [`child_toward`]) are the navigation primitives that descent needs.
//!
//! [`component_contains`]: CentroidDecomposition::component_contains
//! [`child_toward`]: CentroidDecomposition::child_toward

use crate::rooted::RootedTree;
use pmc_parallel::meter::{CostKind, Meter};

/// Centroid decomposition of a rooted tree.
///
/// Each centroid-tree node `c` owns a *component*: the connected piece
/// of the tree `c` was the centroid of. The component of the top
/// centroid is the whole tree; the components of `c`'s centroid-tree
/// children partition `component(c) \ {c}`.
#[derive(Debug, Clone)]
pub struct CentroidDecomposition {
    /// Depth in the centroid tree (top centroid = 0).
    depth_c: Vec<u32>,
    /// Per-vertex centroid ancestors, top-down: `anc[v][d]` is `v`'s
    /// centroid ancestor at centroid depth `d` (so `anc[v]` has length
    /// `depth_c[v] + 1` and ends with `v` itself). Total size
    /// `O(n log n)` by Lemma 4.12.
    anc: Vec<Vec<u32>>,
    top: u32,
}

/// The `O(n log n)` work charged for building the decomposition:
/// every vertex is touched once per centroid level it survives, and
/// Lemma 4.12 bounds the levels by `⌊log₂ n⌋ + 1`.
pub fn build_charge(n: usize) -> u64 {
    let n = n.max(1) as u64;
    n * (n.ilog2() as u64 + 1)
}

impl CentroidDecomposition {
    pub fn build(tree: &RootedTree, meter: &Meter) -> Self {
        let n = tree.n();
        meter.add(CostKind::TreeOp, build_charge(n));
        // Undirected neighbours from the rooted structure. The centroid
        // of a component is unique given where the walk below enters
        // it, so neighbour order does not change the decomposition.
        let root = tree.root();
        let nbrs = |v: u32| {
            tree.children(v).iter().copied().chain((v != root).then(|| tree.parent(v)))
        };
        let mut depth_c = vec![u32::MAX; n];
        let mut anc: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut removed = vec![false; n];
        let mut size = vec![0u32; n];
        let mut top = 0u32;

        // Work queue of (component representative, centroid depth).
        let mut queue: Vec<(u32, u32)> = vec![(root, 0)];
        let mut stack: Vec<(u32, u32)> = Vec::new();
        let mut order: Vec<u32> = Vec::new();

        // DFS parent within the current component, indexed by vertex.
        let mut dfs_parent = vec![u32::MAX; n];

        while let Some((rep, cdepth)) = queue.pop() {
            // Collect the component in DFS preorder, recording DFS parents.
            order.clear();
            stack.clear();
            stack.push((rep, u32::MAX));
            while let Some((v, from)) = stack.pop() {
                order.push(v);
                dfs_parent[v as usize] = from;
                for u in nbrs(v) {
                    if u != from && !removed[u as usize] {
                        stack.push((u, v));
                    }
                }
            }
            // Subtree sizes by reverse-preorder accumulation.
            let comp_size = order.len() as u32;
            for &v in &order {
                size[v as usize] = 1;
            }
            for &v in order.iter().rev() {
                let p = dfs_parent[v as usize];
                if p != u32::MAX {
                    size[p as usize] += size[v as usize];
                }
            }
            // Find the centroid: walk from rep toward any too-big part.
            let mut c = rep;
            'outer: loop {
                for u in nbrs(c) {
                    if removed[u as usize] || dfs_parent[u as usize] != c {
                        continue;
                    }
                    if size[u as usize] * 2 > comp_size {
                        c = u;
                        continue 'outer;
                    }
                }
                break;
            }
            // The part above c must also be at most half.
            debug_assert!((comp_size - size[c as usize]) * 2 <= comp_size);

            depth_c[c as usize] = cdepth;
            if cdepth == 0 {
                top = c;
            }
            // Every vertex of this component has `c` as its centroid
            // ancestor at depth `cdepth`; the depths a vertex sees are
            // strictly increasing, so pushing keeps `anc[v]` indexed by
            // centroid depth.
            for &v in &order {
                debug_assert_eq!(anc[v as usize].len(), cdepth as usize);
                anc[v as usize].push(c);
            }
            removed[c as usize] = true;
            for u in nbrs(c) {
                if !removed[u as usize] {
                    queue.push((u, cdepth + 1));
                }
            }
        }
        CentroidDecomposition { depth_c, anc, top }
    }

    /// The root of the centroid tree.
    #[inline]
    pub fn top(&self) -> u32 {
        self.top
    }

    /// Depth of `v` in the centroid tree.
    #[inline]
    pub fn depth(&self, v: u32) -> u32 {
        self.depth_c[v as usize]
    }

    /// Maximum centroid-tree depth (`O(log n)` by Lemma 4.12).
    pub fn max_depth(&self) -> u32 {
        self.depth_c.iter().copied().max().unwrap_or(0)
    }

    /// Does `c`'s component contain `v`? `O(1)`: the component of `c`
    /// is exactly the set of vertices whose centroid ancestor at
    /// `depth(c)` is `c` (including `c` itself).
    #[inline]
    pub fn component_contains(&self, c: u32, v: u32) -> bool {
        self.anc[v as usize].get(self.depth_c[c as usize] as usize) == Some(&c)
    }

    /// The centroid child of `c` whose component contains `v`, in
    /// `O(1)`: it is `v`'s centroid ancestor one level below `c`.
    /// Requires `v` to lie in `c`'s component and differ from `c` — the
    /// boundary-routing lookup of the interest descent (Claim 4.13).
    #[inline]
    pub fn child_toward(&self, c: u32, v: u32) -> u32 {
        debug_assert!(self.component_contains(c, v) && v != c, "v must be in component(c) \\ {{c}}");
        self.anc[v as usize][self.depth_c[c as usize] as usize + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tree(n: u32, rng: &mut StdRng) -> RootedTree {
        let parent: Vec<u32> =
            (0..n).map(|v| if v == 0 { 0 } else { rng.random_range(0..v) }).collect();
        RootedTree::from_parents(0, &parent)
    }

    /// Parent of `v` in the centroid tree (`None` at the top): `v`'s
    /// centroid ancestor one level up.
    fn centroid_parent(cd: &CentroidDecomposition, v: u32) -> Option<u32> {
        let d = cd.depth(v) as usize;
        (d > 0).then(|| cd.anc[v as usize][d - 1])
    }

    #[test]
    fn every_vertex_assigned() {
        let mut rng = StdRng::seed_from_u64(81);
        let t = random_tree(300, &mut rng);
        let cd = CentroidDecomposition::build(&t, &Meter::disabled());
        let mut tops = 0;
        for v in 0..300u32 {
            assert_ne!(cd.depth(v), u32::MAX, "vertex {v} unassigned");
            let chain = &cd.anc[v as usize];
            assert_eq!(chain.len() as u32, cd.depth(v) + 1, "ancestor chain of {v}");
            assert_eq!(chain[0], cd.top());
            assert_eq!(*chain.last().expect("chain ends with v"), v);
            for (d, &a) in chain.iter().enumerate() {
                assert_eq!(cd.depth(a) as usize, d, "centroid ancestor {a} of {v} at depth {d}");
            }
            if centroid_parent(&cd, v).is_none() {
                tops += 1;
                assert_eq!(cd.top(), v);
            }
        }
        assert_eq!(tops, 1);
    }

    #[test]
    fn depth_logarithmic() {
        let mut rng = StdRng::seed_from_u64(82);
        for n in [15u32, 127, 1024, 5000] {
            let t = random_tree(n, &mut rng);
            let cd = CentroidDecomposition::build(&t, &Meter::disabled());
            let bound = (n as f64).log2().ceil() as u32 + 1;
            assert!(cd.max_depth() <= bound, "n={n}: depth {} > {bound}", cd.max_depth());
        }
    }

    #[test]
    fn path_tree_depth_logarithmic() {
        let n = 1024u32;
        let parent: Vec<u32> = (0..n).map(|v| v.saturating_sub(1)).collect();
        let t = RootedTree::from_parents(0, &parent);
        let cd = CentroidDecomposition::build(&t, &Meter::disabled());
        assert!(cd.max_depth() <= 11);
    }

    #[test]
    fn centroid_lca_lies_on_tree_path() {
        // Classic property: for any u, v the lowest common centroid
        // ancestor — the deepest centroid whose component holds both —
        // lies on the tree path between u and v.
        let mut rng = StdRng::seed_from_u64(83);
        let t = random_tree(120, &mut rng);
        let cd = CentroidDecomposition::build(&t, &Meter::disabled());
        let on_path = |u: u32, v: u32, x: u32| -> bool {
            // naive tree path
            let mut pu = vec![u];
            let mut a = u;
            while a != t.root() {
                a = t.parent(a);
                pu.push(a);
            }
            let mut pv = vec![v];
            let mut b = v;
            while b != t.root() {
                b = t.parent(b);
                pv.push(b);
            }
            let setu: std::collections::HashSet<u32> = pu.iter().copied().collect();
            let lca = *pv.iter().find(|x| setu.contains(x)).expect("root paths intersect");
            let du = pu.iter().position(|&y| y == lca).expect("lca lies on u's root path");
            let dv = pv.iter().position(|&y| y == lca).expect("lca lies on v's root path");
            pu[..=du].contains(&x) || pv[..=dv].contains(&x)
        };
        for _ in 0..300 {
            let u = rng.random_range(0..120);
            let v = rng.random_range(0..120);
            let meet = (0..120u32)
                .filter(|&c| cd.component_contains(c, u) && cd.component_contains(c, v))
                .max_by_key(|&c| cd.depth(c))
                .expect("the top component holds both");
            assert!(on_path(u, v, meet), "centroid meet {meet} off path {u}-{v}");
        }
    }

    #[test]
    fn ancestor_queries() {
        let mut rng = StdRng::seed_from_u64(84);
        let t = random_tree(60, &mut rng);
        let cd = CentroidDecomposition::build(&t, &Meter::disabled());
        for v in 0..60u32 {
            assert!(cd.component_contains(cd.top(), v));
            assert!(cd.component_contains(v, v));
            // Every centroid ancestor's component holds v.
            let mut a = v;
            while let Some(p) = centroid_parent(&cd, a) {
                assert!(cd.component_contains(p, v), "component({p}) holds {v}");
                a = p;
            }
            assert_eq!(a, cd.top());
        }
    }

    #[test]
    fn single_vertex() {
        let t = RootedTree::from_parents(0, &[0]);
        let cd = CentroidDecomposition::build(&t, &Meter::disabled());
        assert_eq!(cd.top(), 0);
        assert_eq!(cd.max_depth(), 0);
    }

    #[test]
    fn two_vertices() {
        let t = RootedTree::from_parents(0, &[0, 0]);
        let cd = CentroidDecomposition::build(&t, &Meter::disabled());
        assert!(cd.max_depth() <= 1);
        assert!(cd.component_contains(cd.top(), 0));
        assert!(cd.component_contains(cd.top(), 1));
    }

    /// Reference components by brute force: remove all centroids of
    /// depth < depth(c), take the connected piece containing c.
    fn brute_component(t: &RootedTree, cd: &CentroidDecomposition, c: u32) -> Vec<u32> {
        let n = t.n();
        let alive = |v: u32| v == c || cd.depth(v) >= cd.depth(c);
        let mut seen = vec![false; n];
        let mut stack = vec![c];
        seen[c as usize] = true;
        let mut out = Vec::new();
        while let Some(v) = stack.pop() {
            out.push(v);
            let mut nbrs: Vec<u32> = t.children(v).to_vec();
            if v != t.root() {
                nbrs.push(t.parent(v));
            }
            for u in nbrs {
                if alive(u) && !seen[u as usize] {
                    seen[u as usize] = true;
                    stack.push(u);
                }
            }
        }
        out
    }

    #[test]
    fn component_queries_match_bruteforce() {
        let mut rng = StdRng::seed_from_u64(85);
        let t = random_tree(90, &mut rng);
        let cd = CentroidDecomposition::build(&t, &Meter::disabled());
        for c in 0..90u32 {
            let comp = brute_component(&t, &cd, c);
            let size = (0..90u32).filter(|&v| cd.component_contains(c, v)).count();
            assert_eq!(comp.len(), size, "size of component({c})");
            let children: Vec<u32> =
                (0..90u32).filter(|&d| centroid_parent(&cd, d) == Some(c)).collect();
            let mut in_comp = [false; 90];
            for &v in &comp {
                in_comp[v as usize] = true;
                assert!(cd.component_contains(c, v), "{v} in component({c})");
                if v != c {
                    // Routing: the centroid child toward v is a child of
                    // c whose component contains v — and the only one.
                    let d = cd.child_toward(c, v);
                    assert_eq!(centroid_parent(&cd, d), Some(c));
                    assert!(cd.component_contains(d, v));
                    let holders = children.iter().filter(|&&x| cd.component_contains(x, v));
                    assert_eq!(holders.count(), 1, "{v} in one child component of {c}");
                }
            }
            for v in 0..90u32 {
                if !in_comp[v as usize] {
                    assert!(!cd.component_contains(c, v), "{v} not in component({c})");
                }
            }
            // Children's components partition component(c) \ {c}.
            let sub: usize = children.iter().map(|&d| brute_component(&t, &cd, d).len()).sum();
            assert_eq!(sub + 1, comp.len(), "children partition component({c})");
        }
    }

    #[test]
    fn build_charge_is_n_log_n() {
        // The satellite fix: the charged construction cost is the
        // documented `n · (⌊log₂ n⌋ + 1)`, not a bit-trick expression.
        for n in [1usize, 2, 3, 7, 8, 100, 1024, 5000] {
            let expect = (n.max(1) as u64) * ((n.max(1) as f64).log2().floor() as u64 + 1);
            assert_eq!(build_charge(n), expect, "n={n}");
        }
        let mut rng = StdRng::seed_from_u64(86);
        let t = random_tree(300, &mut rng);
        let meter = Meter::enabled();
        let _ = CentroidDecomposition::build(&t, &meter);
        assert_eq!(meter.get(pmc_parallel::meter::CostKind::TreeOp), build_charge(300));
    }
}
