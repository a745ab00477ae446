//! Matula's `(2+ε)`-approximation of the minimum cut (\[Mat93\]).
//!
//! The sequential approximation the paper contrasts with in §1 ("a
//! linear-time (2+ε)-approximation algorithm was known in the
//! sequential setting"). The weighted variant implemented here follows
//! the classic structure: maintain an upper bound `β` (minimum weighted
//! degree of the current contraction), pick the threshold
//! `k = ⌊β/(2+ε)⌋ + 1`, run one maximum-adjacency scan and contract
//! every pair that is `k`-connected; repeat until one vertex remains.
//!
//! Correctness of the band `λ ≤ β ≤ (2+ε)λ`:
//!
//! * `β ≥ λ` always — every bound is a vertex degree of a contraction
//!   of `G`, i.e. a genuine cut value;
//! * if `λ < k` the contractions are min-cut-preserving (both endpoints
//!   sit on the same side of every cut below `k`), so the scan keeps
//!   making progress towards `λ`;
//! * if `λ ≥ k` then `β ≤ (2+ε)λ` already holds and later (possibly
//!   cut-destroying) contractions cannot invalidate the claim.
//!
//! When a scan produces no `k`-connected pair, the final two vertices
//! of the maximum-adjacency order are contracted instead (the
//! Stoer–Wagner phase step, whose phase cut is the degree bound already
//! taken), guaranteeing at most `n - 1` rounds.

use crate::graph::{Graph, GraphBuilder};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Matula-style `(2+ε)`-approximation; returns a value in
/// `[λ, (2+ε)λ]`. Requires a connected graph with at least 2 vertices.
/// # Example
///
/// ```
/// use pmc_graph::{generators, matula_approx};
///
/// let g = generators::dumbbell(8, 10, 4); // min cut 4 (the bridge)
/// let approx = matula_approx(&g, 0.25);
/// assert!(approx >= 4 && approx as f64 <= 2.25 * 4.0);
/// ```
pub fn matula_approx(g: &Graph, eps: f64) -> u64 {
    assert!(eps > 0.0, "eps must be positive");
    assert!(g.n() >= 2, "need at least two vertices");
    assert!(g.is_connected(), "matula_approx requires a connected graph");
    let mut h = g.coalesced();
    let mut bound = u64::MAX;
    while h.n() >= 2 {
        bound = bound.min(h.min_weighted_degree());
        if bound == 0 {
            return 0;
        }
        let k = (bound as f64 / (2.0 + eps)).floor() as u64 + 1;
        h = contract_round(&h, k);
    }
    bound
}

/// One maximum-adjacency scan over `h`: contract every pair observed to
/// be `k`-connected, or the final phase pair if none.
fn contract_round(h: &Graph, k: u64) -> Graph {
    let n = h.n();
    let mut r = vec![0u64; n];
    let mut scanned = vec![false; n];
    let mut heap: BinaryHeap<(u64, Reverse<u32>)> = BinaryHeap::with_capacity(n);
    heap.push((0, Reverse(0)));
    // Union labels for this round's contraction.
    let mut label: Vec<u32> = (0..n as u32).collect();
    fn find(label: &mut [u32], mut x: u32) -> u32 {
        while label[x as usize] != x {
            let p = label[x as usize];
            label[x as usize] = label[p as usize];
            x = p;
        }
        x
    }
    let mut merges = 0usize;
    let mut order: Vec<u32> = Vec::with_capacity(n);
    while let Some((key, Reverse(u))) = heap.pop() {
        if scanned[u as usize] || key != r[u as usize] {
            continue;
        }
        scanned[u as usize] = true;
        order.push(u);
        for &(v, ei) in h.neighbors(u) {
            if scanned[v as usize] {
                continue;
            }
            if r[v as usize] >= k {
                // u and v are k-connected: safe to contract when λ < k.
                let (ru, rv) = (find(&mut label, u), find(&mut label, v));
                if ru != rv {
                    label[rv as usize] = ru;
                    merges += 1;
                }
            }
            r[v as usize] += h.edge(ei as usize).w;
            heap.push((r[v as usize], Reverse(v)));
        }
    }
    debug_assert_eq!(order.len(), n, "scan must reach every vertex of a connected graph");
    if merges == 0 {
        // Stoer–Wagner phase fallback: contract the last two vertices of
        // the MA order.
        let last = order[n - 1];
        let prev = order[n - 2];
        let (rl, rp) = (find(&mut label, last), find(&mut label, prev));
        if rl != rp {
            label[rl as usize] = rp;
        }
    }
    // Rebuild the contracted graph with compacted labels.
    let mut remap = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        let root = find(&mut label, v);
        if remap[root as usize] == u32::MAX {
            remap[root as usize] = next;
            next += 1;
        }
    }
    let mut b = GraphBuilder::new(next as usize);
    for e in h.edges() {
        let (ru, rv) = (find(&mut label, e.u), find(&mut label, e.v));
        let (cu, cv) = (remap[ru as usize], remap[rv as usize]);
        if cu != cv {
            b.add_edge(cu, cv, e.w);
        }
    }
    b.build().coalesced()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::stoer_wagner::stoer_wagner_mincut;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_band(g: &Graph, eps: f64, label: &str) {
        let lambda = stoer_wagner_mincut(g).value;
        let approx = matula_approx(g, eps);
        assert!(approx >= lambda, "{label}: approx {approx} below λ {lambda}");
        let cap = ((2.0 + eps) * lambda as f64).ceil() as u64;
        assert!(approx <= cap, "{label}: approx {approx} above (2+ε)λ = {cap}");
    }

    #[test]
    fn structured_graphs_in_band() {
        for eps in [0.1, 0.5, 1.0] {
            check_band(&generators::dumbbell(6, 8, 3), eps, "dumbbell");
            check_band(&generators::ring_of_cliques(4, 4, 6, 2), eps, "ring");
            check_band(&generators::grid(5, 5, 3), eps, "grid");
            check_band(&generators::complete(10, 2), eps, "complete");
            check_band(&generators::cycle(17, 4), eps, "cycle");
        }
    }

    #[test]
    fn random_graphs_in_band() {
        let mut rng = StdRng::seed_from_u64(91);
        for trial in 0..15 {
            let n = 8 + trial;
            let g = generators::gnm_connected(n, 3 * n, 9, &mut rng);
            check_band(&g, 0.25, &format!("trial {trial}"));
        }
    }

    #[test]
    fn weighted_graphs_in_band() {
        let mut rng = StdRng::seed_from_u64(92);
        for trial in 0..8 {
            let g = generators::gnm_connected(15, 50, 5000, &mut rng);
            check_band(&g, 0.5, &format!("weighted {trial}"));
        }
    }

    #[test]
    fn often_much_better_than_guarantee() {
        // On bridge-dominated graphs the min degree of a late
        // contraction equals λ exactly.
        let g = generators::dumbbell(8, 10, 4);
        assert_eq!(matula_approx(&g, 0.1), 4);
    }

    #[test]
    fn two_vertices() {
        let g = Graph::from_edges(2, [(0, 1, 42)]);
        assert_eq!(matula_approx(&g, 0.3), 42);
    }

    #[test]
    #[should_panic]
    fn disconnected_rejected() {
        let g = Graph::from_edges(4, [(0, 1, 1), (2, 3, 1)]);
        matula_approx(&g, 0.3);
    }
}
