//! Sparse k-connectivity certificates (Theorem 2.6).
//!
//! Nagamochi–Ibaraki via repeated spanning forests: `H_k = F_1 ∪ ... ∪
//! F_k` where `F_i` is a spanning forest of the graph minus the earlier
//! forests. For weighted graphs an edge of weight `w` behaves as `w`
//! parallel copies; a forest consumes one copy, so the certificate
//! weight of an edge is the number of forests that picked it
//! (at most `min(w, k)`).
//!
//! Guarantees (Definition 2.5, both property-tested):
//! * total certificate weight `<= k * n`;
//! * every cut of value `<= k` in `G` keeps its exact value; every cut
//!   keeps value `>= min(k, original)`.

use pmc_graph::{Graph, GraphBuilder};
use pmc_parallel::meter::Meter;
use pmc_parallel::spanning_forest::spanning_forest_of_pairs;

/// Sparse k-connectivity certificate of a weighted graph.
///
/// When no vertex has weighted degree above `k`, the input is its own
/// certificate and comes back unchanged (edge order included) without
/// running a forest round. Proof: suppose an edge still had copies
/// after the `k` rounds. Then in every round `F_i` was a spanning
/// forest of a graph that contained one of its copies, so `F_i` joined
/// its endpoints, and each endpoint had a taken copy of some incident
/// edge in every round. After `k` rounds an endpoint has `k` taken
/// copies plus the edge's remaining one, so its weighted degree is at
/// least `k + 1`. Hence at maximum weighted degree `≤ k` every copy of
/// every edge is taken, which is the input graph.
///
/// # Example
///
/// ```
/// use pmc_graph::generators;
/// use pmc_parallel::Meter;
/// use pmc_sparsify::k_certificate;
///
/// let g = generators::complete(20, 1);           // m = 190
/// let h = k_certificate(&g, 3, &Meter::disabled());
/// assert!(h.total_weight() <= 3 * 20);           // Definition 2.5 size bound
/// assert!(h.is_connected());
/// ```
pub fn k_certificate(g: &Graph, k: u64, meter: &Meter) -> Graph {
    if (0..g.n() as u32).all(|v| g.weighted_degree(v) <= k) {
        return g.clone();
    }
    forest_rounds(g, k, meter)
}

/// The `k` Nagamochi–Ibaraki forest rounds behind [`k_certificate`].
fn forest_rounds(g: &Graph, k: u64, meter: &Meter) -> Graph {
    let n = g.n();
    // Remaining copies per edge; certificate multiplicity per edge.
    let mut remaining: Vec<u64> = g.edges().iter().map(|e| e.w).collect();
    let mut taken: Vec<u64> = vec![0; g.m()];
    // Active edge list (indices); shrinks as copies run out.
    let mut active: Vec<u32> = (0..g.m() as u32).collect();
    for _round in 0..k {
        if active.is_empty() {
            break;
        }
        let edges = g.edges();
        let act = &active;
        let forest = spanning_forest_of_pairs(
            n,
            act.len(),
            |i| {
                let e = edges[act[i] as usize];
                (e.u, e.v)
            },
            meter,
        );
        if forest.is_empty() {
            break;
        }
        for &fi in &forest {
            let ei = active[fi as usize] as usize;
            remaining[ei] -= 1;
            taken[ei] += 1;
        }
        active.retain(|&ei| remaining[ei as usize] > 0);
    }
    let mut b = GraphBuilder::new(n);
    for (i, &t) in taken.iter().enumerate() {
        if t > 0 {
            let e = g.edge(i);
            b.add_edge(e.u, e.v, t);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_graph::graph::cut_of_partition;
    use pmc_graph::{generators, stoer_wagner_mincut};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Check Definition 2.5 exhaustively on a small graph.
    fn check_cut_preservation(g: &Graph, k: u64) {
        let h = k_certificate(g, k, &Meter::disabled());
        assert!(h.total_weight() <= k * g.n() as u64, "size bound violated");
        let n = g.n();
        assert!(n <= 16, "exhaustive check only for tiny graphs");
        for mask in 1..(1u32 << (n - 1)) {
            let side: Vec<bool> =
                (0..n).map(|v| v > 0 && (mask >> (v - 1)) & 1 == 1).collect();
            let cg = cut_of_partition(g, &side);
            let ch = cut_of_partition(&h, &side);
            assert!(ch <= cg, "certificate increased a cut");
            if cg <= k {
                assert_eq!(ch, cg, "cut of value {cg} <= k={k} not preserved");
            } else {
                assert!(ch >= k, "cut above k fell below k: {ch} < {k}");
            }
        }
    }

    #[test]
    fn preserves_small_cuts_exhaustive() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..10 {
            let g = generators::gnm_connected(8, 12 + trial, 4, &mut rng);
            for k in [1, 2, 3, 5, 10] {
                check_cut_preservation(&g, k);
            }
        }
    }

    #[test]
    fn preserves_min_cut_when_below_k() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..5 {
            let g = generators::gnm_connected(40, 120, 5, &mut rng);
            let lambda = stoer_wagner_mincut(&g).value;
            let h = k_certificate(&g, lambda + 1, &Meter::disabled());
            assert_eq!(stoer_wagner_mincut(&h).value, lambda);
        }
    }

    #[test]
    fn weight_bound() {
        let g = generators::complete(30, 4);
        for k in [1u64, 3, 7, 20] {
            let h = k_certificate(&g, k, &Meter::disabled());
            assert!(h.total_weight() <= k * 30);
        }
    }

    #[test]
    fn heavy_edges_truncated() {
        let g = Graph::from_edges(3, [(0, 1, 1000), (1, 2, 1000), (0, 2, 1000)]);
        let h = k_certificate(&g, 5, &Meter::disabled());
        assert!(h.edges().iter().all(|e| e.w <= 5));
        // Connectivity retained.
        assert!(h.is_connected());
    }

    #[test]
    fn k_zero_empty() {
        let g = generators::cycle(5, 2);
        let h = k_certificate(&g, 0, &Meter::disabled());
        assert_eq!(h.m(), 0);
    }

    #[test]
    fn disconnected_graph() {
        let g = Graph::from_edges(6, [(0, 1, 3), (1, 2, 3), (3, 4, 3), (4, 5, 3)]);
        let h = k_certificate(&g, 2, &Meter::disabled());
        assert_eq!(h.num_components(), g.num_components());
    }

    #[test]
    fn short_circuit_matches_forest_rounds_at_max_degree() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(20);
        for trial in 0..40 {
            // Random multigraphs: parallel edges, isolated vertices and
            // several components all occur.
            let n = rng.random_range(2..24u32);
            let edges: Vec<(u32, u32, u64)> = (0..rng.random_range(0..3 * n))
                .map(|_| (rng.random_range(0..n), rng.random_range(0..n), rng.random_range(1..6)))
                .collect();
            let g = Graph::from_edges(n as usize, edges);
            let max_deg = (0..n).map(|v| g.weighted_degree(v)).max().unwrap();
            for k in [max_deg.saturating_sub(1), max_deg, max_deg + 1] {
                let fast = k_certificate(&g, k, &Meter::disabled());
                let slow = forest_rounds(&g, k, &Meter::disabled());
                let what = format!("trial {trial} k={k}");
                assert_eq!((fast.n(), fast.edges()), (slow.n(), slow.edges()), "{what}");
            }
        }
    }

    #[test]
    fn certificate_of_certificate_stable() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = generators::gnm_connected(20, 60, 3, &mut rng);
        let h1 = k_certificate(&g, 4, &Meter::disabled());
        let h2 = k_certificate(&h1, 4, &Meter::disabled());
        // Same min-cut as long as it is below k.
        let l1 = stoer_wagner_mincut(&h1).value.min(4);
        let l2 = stoer_wagner_mincut(&h2).value.min(4);
        assert_eq!(l1, l2);
    }

    use pmc_graph::Graph;
}
