//! Rooted tree representation and postorder interval machinery.
//!
//! A tree edge is identified with its *lower endpoint* (the child):
//! edge `e_v = (v, parent(v))` for every non-root `v`. The subtree of
//! `e_v` — `Te` in the paper — is the postorder interval
//! `[start(v), post(v)]`, which is what turns cut queries into 2-D
//! rectangle sums (Lemma A.1).

/// An immutable rooted tree over vertices `0..n`.
#[derive(Debug, Clone)]
pub struct RootedTree {
    root: u32,
    parent: Vec<u32>,
    /// Children in DFS visit order, CSR layout.
    child_offsets: Vec<u32>,
    children: Vec<u32>,
    depth: Vec<u32>,
    size: Vec<u32>,
    /// Postorder index of each vertex (0-based; root gets `n - 1`).
    post: Vec<u32>,
    /// `post` inverted: `order[post[v]] == v`.
    order: Vec<u32>,
}

impl RootedTree {
    /// Build from a parent array; `parent[root] == root`. Panics if the
    /// array does not describe a tree (cycle or unreachable vertex).
    pub fn from_parents(root: u32, parent: &[u32]) -> Self {
        let n = parent.len();
        assert!((root as usize) < n && parent[root as usize] == root, "bad root");
        // Children CSR (stable by child id; DFS order derives from this).
        let mut counts = vec![0u32; n + 1];
        for v in 0..n {
            if v as u32 != root {
                counts[parent[v] as usize + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let child_offsets = counts.clone();
        let mut cursor = counts;
        let mut children = vec![0u32; n.saturating_sub(1)];
        for v in 0..n as u32 {
            if v != root {
                let p = parent[v as usize] as usize;
                children[cursor[p] as usize] = v;
                cursor[p] += 1;
            }
        }

        let mut t = RootedTree {
            root,
            parent: parent.to_vec(),
            child_offsets,
            children,
            depth: vec![0; n],
            size: vec![1; n],
            post: vec![0; n],
            order: vec![0; n],
        };
        t.compute_orders();
        t
    }

    /// Build from an undirected edge list spanning `0..n`, rooted at
    /// `root`. Panics if the edges do not form a spanning tree.
    pub fn from_edge_list(n: usize, edges: &[(u32, u32)], root: u32) -> Self {
        assert_eq!(edges.len(), n.saturating_sub(1), "a tree on {n} vertices has n-1 edges");
        // Adjacency
        let mut deg = vec![0u32; n + 1];
        for &(u, v) in edges {
            deg[u as usize + 1] += 1;
            deg[v as usize + 1] += 1;
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let offsets = deg.clone();
        let mut cursor = deg;
        let mut adj = vec![0u32; edges.len() * 2];
        for &(u, v) in edges {
            adj[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            adj[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Orient away from root (iterative BFS).
        let mut parent = vec![u32::MAX; n];
        parent[root as usize] = root;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(root);
        let mut seen = 1usize;
        while let Some(v) = queue.pop_front() {
            let lo = offsets[v as usize] as usize;
            let hi = offsets[v as usize + 1] as usize;
            for &u in &adj[lo..hi] {
                if parent[u as usize] == u32::MAX {
                    parent[u as usize] = v;
                    seen += 1;
                    queue.push_back(u);
                }
            }
        }
        assert_eq!(seen, n, "edge list is not connected");
        Self::from_parents(root, &parent)
    }

    /// Iterative DFS computing depth, subtree size and postorder.
    fn compute_orders(&mut self) {
        let n = self.parent.len();
        let mut post_counter = 0u32;
        // Stack of (vertex, next child cursor).
        let mut stack: Vec<(u32, u32)> = Vec::with_capacity(64);
        stack.push((self.root, 0));
        self.depth[self.root as usize] = 0;
        let mut visited = 1usize;
        while let Some(&mut (v, ref mut cursor)) = stack.last_mut() {
            let kids = self.children_range(v);
            if (*cursor as usize) < kids.len() {
                let c = kids[*cursor as usize];
                *cursor += 1;
                assert_ne!(c, v, "cycle detected");
                self.depth[c as usize] = self.depth[v as usize] + 1;
                visited += 1;
                stack.push((c, 0));
            } else {
                // Post-visit: children complete.
                let mut size = 1u32;
                for &c in kids {
                    size += self.size[c as usize];
                }
                self.size[v as usize] = size;
                self.post[v as usize] = post_counter;
                self.order[post_counter as usize] = v;
                post_counter += 1;
                stack.pop();
            }
        }
        assert_eq!(visited, n, "parent array does not reach every vertex");
        assert_eq!(post_counter as usize, n);
    }

    fn children_range(&self, v: u32) -> &[u32] {
        let lo = self.child_offsets[v as usize] as usize;
        let hi = self.child_offsets[v as usize + 1] as usize;
        &self.children[lo..hi]
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    #[inline]
    pub fn root(&self) -> u32 {
        self.root
    }

    #[inline]
    pub fn parent(&self, v: u32) -> u32 {
        self.parent[v as usize]
    }

    #[inline]
    pub fn depth(&self, v: u32) -> u32 {
        self.depth[v as usize]
    }

    #[inline]
    pub fn size(&self, v: u32) -> u32 {
        self.size[v as usize]
    }

    /// Children of `v` in DFS order. Their postorder intervals are
    /// consecutive and tile `[start(v), post(v) - 1]`.
    #[inline]
    pub fn children(&self, v: u32) -> &[u32] {
        self.children_range(v)
    }

    /// Postorder index of `v`.
    #[inline]
    pub fn post(&self, v: u32) -> u32 {
        self.post[v as usize]
    }

    /// First postorder index inside `v`'s subtree:
    /// `start(v) = post(v) - size(v) + 1`.
    #[inline]
    pub fn start(&self, v: u32) -> u32 {
        self.post[v as usize] + 1 - self.size[v as usize]
    }

    /// Vertex with postorder index `i`.
    #[inline]
    pub fn vertex_at_post(&self, i: u32) -> u32 {
        self.order[i as usize]
    }

    /// Is `a` an ancestor of `b` (inclusive: `a` is its own ancestor)?
    #[inline]
    pub fn is_ancestor(&self, a: u32, b: u32) -> bool {
        self.start(a) <= self.post(b) && self.post(b) <= self.post(a)
    }

    /// Heavy child of `v` (child with the largest subtree), if any.
    pub fn heavy_child(&self, v: u32) -> Option<u32> {
        self.children_range(v).iter().copied().max_by_key(|&c| self.size[c as usize])
    }

    /// All leaves (vertices without children).
    pub fn leaves(&self) -> Vec<u32> {
        (0..self.n() as u32).filter(|&v| self.children_range(v).is_empty()).collect()
    }

    /// Height of the tree: the maximum vertex depth (0 for a single
    /// vertex).
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed example:
    /// ```text
    ///        0
    ///       / \
    ///      1   2
    ///     /|   |
    ///    3 4   5
    ///      |
    ///      6
    /// ```
    fn sample() -> RootedTree {
        RootedTree::from_parents(0, &[0, 0, 0, 1, 1, 2, 4])
    }

    #[test]
    fn parents_and_depths() {
        let t = sample();
        assert_eq!(t.n(), 7);
        assert_eq!(t.root(), 0);
        assert_eq!(t.parent(6), 4);
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.depth(3), 2);
        assert_eq!(t.depth(6), 3);
    }

    #[test]
    fn height_is_max_depth() {
        assert_eq!(sample().height(), 3);
        assert_eq!(RootedTree::from_parents(0, &[0]).height(), 0);
        let path: Vec<u32> = (0..10u32).map(|v| v.saturating_sub(1)).collect();
        assert_eq!(RootedTree::from_parents(0, &path).height(), 9);
    }

    #[test]
    fn sizes() {
        let t = sample();
        assert_eq!(t.size(0), 7);
        assert_eq!(t.size(1), 4);
        assert_eq!(t.size(2), 2);
        assert_eq!(t.size(4), 2);
        assert_eq!(t.size(6), 1);
    }

    #[test]
    fn postorder_intervals() {
        let t = sample();
        // Subtree of v occupies [start(v), post(v)], length = size(v).
        for v in 0..7u32 {
            assert_eq!(t.post(v) - t.start(v) + 1, t.size(v));
        }
        // Root interval covers everything.
        assert_eq!(t.start(0), 0);
        assert_eq!(t.post(0), 6);
        // The postorder permutation is a bijection.
        let mut seen = [false; 7];
        for v in 0..7u32 {
            let p = t.post(v) as usize;
            assert!(!seen[p]);
            seen[p] = true;
            assert_eq!(t.vertex_at_post(t.post(v)), v);
        }
    }

    #[test]
    fn ancestor_queries() {
        let t = sample();
        assert!(t.is_ancestor(0, 6));
        assert!(t.is_ancestor(1, 6));
        assert!(t.is_ancestor(4, 6));
        assert!(t.is_ancestor(6, 6));
        assert!(!t.is_ancestor(6, 4));
        assert!(!t.is_ancestor(2, 6));
        assert!(!t.is_ancestor(3, 4));
    }

    #[test]
    fn children_tile_subtree_interval() {
        let t = sample();
        for v in 0..7u32 {
            let kids = t.children(v);
            if kids.is_empty() {
                continue;
            }
            // DFS order: consecutive children intervals, ending at post(v)-1.
            let mut expect_start = t.start(v);
            for &c in kids {
                assert_eq!(t.start(c), expect_start);
                expect_start = t.post(c) + 1;
            }
            assert_eq!(expect_start, t.post(v));
        }
    }

    #[test]
    fn from_edge_list_matches() {
        let edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (4, 6)];
        let t = RootedTree::from_edge_list(7, &edges, 0);
        assert_eq!(t.parent(6), 4);
        assert_eq!(t.size(1), 4);
        assert!(t.is_ancestor(1, 6));
    }

    #[test]
    fn deep_path_no_stack_overflow() {
        let n = 200_000;
        let parent: Vec<u32> = (0..n as u32).map(|v| v.saturating_sub(1)).collect();
        let t = RootedTree::from_parents(0, &parent);
        assert_eq!(t.depth(n as u32 - 1), n as u32 - 1);
        assert_eq!(t.size(0), n as u32);
        assert_eq!(t.post(0), n as u32 - 1);
    }

    #[test]
    fn heavy_child_and_leaves() {
        let t = sample();
        assert_eq!(t.heavy_child(0), Some(1));
        assert_eq!(t.heavy_child(1), Some(4));
        assert_eq!(t.heavy_child(6), None);
        let mut leaves = t.leaves();
        leaves.sort_unstable();
        assert_eq!(leaves, vec![3, 5, 6]);
    }

    #[test]
    #[should_panic]
    fn disconnected_edge_list_rejected() {
        RootedTree::from_edge_list(4, &[(0, 1), (2, 3)], 0);
    }

    #[test]
    fn single_vertex() {
        let t = RootedTree::from_parents(0, &[0]);
        assert_eq!(t.n(), 1);
        assert_eq!(t.size(0), 1);
        assert_eq!(t.post(0), 0);
        assert_eq!(t.start(0), 0);
    }
}
