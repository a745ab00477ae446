//! Minimum spanning forests with caller-supplied keys.
//!
//! The tree-packing phase (§4.2) runs `O(log^2 n)` MST computations
//! where the edge order is *not* the static weight but a dynamic load
//! vector (Plotkin–Shmoys–Tardos). [`kruskal_msf_by`] therefore takes a
//! key function `key(edge index) -> K`. It is the sequential sort-based
//! Kruskal, kept as the oracle for the packing, which runs its own
//! Kruskal over an edge order maintained across iterations
//! (`pmc_mincut::greedy_tree_packing`).

use crate::union_find::UnionFind;
use pmc_graph::Graph;

/// Sequential Kruskal minimum spanning forest (oracle for tests).
///
/// Returns the indices of the forest edges (ascending). Ties in `key`
/// are broken by edge index.
pub fn kruskal_msf_by<K>(g: &Graph, key: impl Fn(usize) -> K) -> Vec<u32>
where
    K: Ord + Copy,
{
    let mut order: Vec<u32> = (0..g.m() as u32).collect();
    order.sort_by_key(|&i| (key(i as usize), i));
    let mut uf = UnionFind::new(g.n());
    let mut out = Vec::new();
    for i in order {
        let e = g.edge(i as usize);
        if uf.union(e.u, e.v) {
            out.push(i);
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_graph::generators;

    /// Kruskal by static edge weight (ties broken by index).
    fn by_weight(g: &Graph) -> Vec<u32> {
        kruskal_msf_by(g, |i| g.edge(i).w)
    }

    #[test]
    fn custom_key_inverts_order() {
        // Max spanning tree via negated key.
        let g = Graph::from_edges(3, [(0, 1, 1), (1, 2, 10), (0, 2, 5)]);
        let max_tree = kruskal_msf_by(&g, |i| std::cmp::Reverse(g.edge(i).w));
        assert_eq!(max_tree, vec![1, 2]); // weights 10 + 5
    }

    #[test]
    fn disconnected_forest() {
        let g = Graph::from_edges(5, [(0, 1, 2), (1, 2, 2), (3, 4, 2)]);
        assert_eq!(by_weight(&g).len(), 3);
    }

    #[test]
    fn empty_and_trivial() {
        let g = Graph::from_edges(3, []);
        assert!(by_weight(&g).is_empty());
        let g0 = Graph::from_edges(0, []);
        assert!(by_weight(&g0).is_empty());
    }

    #[test]
    fn parallel_multigraph_edges() {
        let g = Graph::from_edges(2, [(0, 1, 5), (0, 1, 2), (0, 1, 9)]);
        assert_eq!(by_weight(&g), vec![1]); // lightest parallel edge
    }

    #[test]
    fn load_based_keys_change_tree() {
        // Simulate packing: penalize previously used edges.
        let g = generators::cycle(6, 1);
        let first = by_weight(&g);
        let loads: Vec<u64> = (0..g.m()).map(|i| if first.contains(&(i as u32)) { 1 } else { 0 }).collect();
        let second = kruskal_msf_by(&g, |i| (loads[i], g.edge(i).w, i as u32));
        // The second tree must prefer the unused edge.
        assert_ne!(first, second);
    }
}
