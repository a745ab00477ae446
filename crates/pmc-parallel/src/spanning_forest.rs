//! Parallel spanning forests.
//!
//! Theorem 2.6 builds sparse k-connectivity certificates from `k`
//! successive spanning forests; the paper plugs in Halperin–Zwick's
//! optimal EREW algorithm. We substitute a lock-free union-find forest:
//! every edge races to `union` its endpoints and the winners form the
//! forest. This is linear work and, in practice, `O(log n)`-ish span
//! under work stealing; the *output* (some spanning forest) is exactly
//! what the certificate construction needs (see DESIGN.md).

use crate::meter::{CostKind, Meter};
use crate::union_find::{ConcurrentUnionFind, UnionFind};
use pmc_graph::Graph;
use rayon::prelude::*;

/// Compute a spanning forest of `g`, returning indices into `g.edges()`.
///
/// The choice among parallel runs is nondeterministic but always a
/// maximal forest (`n - #components` edges).
pub fn spanning_forest(g: &Graph, meter: &Meter) -> Vec<u32> {
    let edges = g.edges();
    spanning_forest_of_pairs(
        g.n(),
        edges.len(),
        |i| (edges[i].u, edges[i].v),
        meter,
    )
}

/// Spanning forest over an arbitrary edge-pair accessor. `n` vertices,
/// `m` edges, `pair(i)` yields the endpoints of edge `i`. Returns the
/// selected edge indices (ascending).
pub fn spanning_forest_of_pairs(
    n: usize,
    m: usize,
    pair: impl Fn(usize) -> (u32, u32) + Sync,
    meter: &Meter,
) -> Vec<u32> {
    meter.add(CostKind::ForestEdge, m as u64);
    if m < 4096 {
        // Sequential fast path: deterministic and cheaper at small sizes.
        let mut uf = UnionFind::new(n);
        let mut out = Vec::new();
        for i in 0..m {
            let (u, v) = pair(i);
            if u != v && uf.union(u, v) {
                out.push(i as u32);
            }
        }
        return out;
    }
    let cuf = ConcurrentUnionFind::new(n);
    let mut out: Vec<u32> = (0..m)
        .into_par_iter()
        .filter_map(|i| {
            let (u, v) = pair(i);
            if u != v && cuf.union(u, v) {
                Some(i as u32)
            } else {
                None
            }
        })
        .collect();
    out.par_sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn is_forest_spanning(g: &Graph, forest: &[u32]) -> bool {
        let mut uf = UnionFind::new(g.n());
        for &i in forest {
            let e = g.edge(i as usize);
            if !uf.union(e.u, e.v) {
                return false; // cycle
            }
        }
        uf.num_components() == g.num_components()
    }

    #[test]
    fn forest_of_connected_graph() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::gnm_connected(500, 2000, 5, &mut rng);
        let f = spanning_forest(&g, &Meter::disabled());
        assert_eq!(f.len(), g.n() - 1);
        assert!(is_forest_spanning(&g, &f));
    }

    #[test]
    fn forest_of_disconnected_graph() {
        let g = Graph::from_edges(6, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (0, 2, 1)]);
        let f = spanning_forest(&g, &Meter::disabled());
        assert_eq!(f.len(), 6 - g.num_components());
        assert!(is_forest_spanning(&g, &f));
    }

    #[test]
    fn forest_large_parallel_path() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = generators::gnm_connected(3000, 12_000, 3, &mut rng);
        let f = spanning_forest(&g, &Meter::disabled());
        assert_eq!(f.len(), g.n() - 1);
        assert!(is_forest_spanning(&g, &f));
    }

    #[test]
    fn meter_counts_edges() {
        let g = generators::complete(10, 1);
        let meter = Meter::enabled();
        let _ = spanning_forest(&g, &meter);
        assert_eq!(meter.get(CostKind::ForestEdge), g.m() as u64);
    }

    #[test]
    fn pair_accessor_form() {
        let pairs = [(0u32, 1u32), (1, 2), (2, 0), (3, 4)];
        let f = spanning_forest_of_pairs(5, pairs.len(), |i| pairs[i], &Meter::disabled());
        assert_eq!(f.len(), 3); // two components: {0,1,2} needs 2 edges, {3,4} needs 1
    }
}
