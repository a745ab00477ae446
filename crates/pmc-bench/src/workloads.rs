//! Standard workloads of the experiment suite.
//!
//! The paper's regimes: *non-sparse* (`m = n^{1+Ω(1)}`, where the
//! algorithm is work-optimal), *sparse* (`m = O(n log n)`, where \[AB21\]
//! wins Table 1), and structured graphs with planted cuts for quality
//! experiments.

use pmc_graph::{generators, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A named, seeded workload.
pub struct Workload {
    pub name: String,
    pub graph: Graph,
}

/// Non-sparse random graph: `m ~ n^1.5`, unit-to-moderate weights.
pub fn non_sparse(n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::non_sparse(n, 0.5, 16, &mut rng);
    Workload { name: format!("nonsparse n={n}"), graph }
}

/// Sparse random graph: `m ~ 4 n`.
pub fn sparse(n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::gnm_connected(n, 3 * n, 16, &mut rng);
    Workload { name: format!("sparse n={n}"), graph }
}

/// Dense random graph: `m ~ n^1.8`.
pub fn dense(n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::non_sparse(n, 0.8, 16, &mut rng);
    Workload { name: format!("dense n={n}"), graph }
}

/// Planted-cut community graph (known minimum cut = `bridges`).
pub fn planted(n: usize, bridges: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::planted_bisection(n, 6 * n, bridges, 8, 1, &mut rng);
    Workload { name: format!("planted n={n} b={bridges}"), graph }
}

/// Heavy-weight graph exercising the sampling hierarchy (min cut ≫ log n).
pub fn heavy(n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::heavy_cycle_with_chords(n, 2 * n, 4000, 120, &mut rng);
    Workload { name: format!("heavy n={n}"), graph }
}

/// Fishbone skew adversary (`generators::fishbone` with extra random
/// chords): the comb structure makes the solver's recursion trees
/// maximally lopsided, so a static left/right work splitter strands
/// whole subproblems on one thread — the workload the work-stealing
/// speedup smoke gates on. `levels` is chosen so `n = 3·2^levels − 2`
/// is the largest fishbone not exceeding the requested size; the
/// chords keep the graph non-sparse enough that the parallel query
/// stages dominate the wall clock.
pub fn fishbone(n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let levels = (usize::BITS - 1 - n.max(10).div_ceil(3).leading_zeros()) as usize;
    let (bone, _, _) = generators::fishbone(levels.max(2), 64);
    let nn = bone.n();
    // Re-densify: the bare fishbone is a tree + one chord; add random
    // chords so the per-edge query work is non-trivial while the skewed
    // comb shape (and hence the skewed recursion) is preserved.
    let mut b = pmc_graph::GraphBuilder::new(nn);
    for e in bone.edges() {
        b.add_edge(e.u, e.v, e.w);
    }
    use rand::Rng;
    for _ in 0..4 * nn {
        let u = rng.random_range(0..nn as u32);
        let v = rng.random_range(0..nn as u32);
        if u != v {
            b.add_edge(u, v, rng.random_range(1..8));
        }
    }
    Workload { name: format!("fishbone n={nn}"), graph: b.build() }
}

/// Power-law community graph: heavy-tailed degrees inside each block,
/// light ring bridges between blocks (`generators::power_law_community`).
/// `k ~ sqrt(n)/2` attachment edges per vertex keep it in the paper's
/// non-sparse regime (`m ≈ k·n = Θ(n^1.5)`) while the hub/bridge
/// structure is as far from uniform G(n, m) as the suite gets.
pub fn power_law(n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = ((n as f64).sqrt() / 2.0).ceil() as usize;
    let communities = (n / 64).clamp(2, 8);
    let graph = generators::power_law_community(n, communities, k.max(2), 16, &mut rng);
    Workload { name: format!("powerlaw n={n}"), graph }
}

/// Near-clique dense graph: the complete graph with ~15% of edges
/// dropped (`generators::near_clique`) — `m = Θ(n²)`, the extreme end
/// of the `m ≥ n^{1+ε}` regime where the work-optimality claim bites
/// hardest and the 2-D range-tree grids are fullest.
pub fn near_clique(n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::near_clique(n, 0.15, 16, &mut rng);
    Workload { name: format!("nearclique n={n}"), graph }
}

/// Resolve a smoke-workload name (`uniform`, `fishbone`, `powerlaw`,
/// or `nearclique`) at size `n`.
pub fn by_name(name: &str, n: usize, seed: u64) -> Workload {
    match name {
        "uniform" => non_sparse(n, seed),
        "fishbone" => fishbone(n, seed),
        "powerlaw" => power_law(n, seed),
        "nearclique" => near_clique(n, seed),
        other => panic!(
            "unknown workload {other:?} (expected: uniform, fishbone, powerlaw, nearclique)"
        ),
    }
}

/// A uniform random spanning tree workload for per-tree experiments:
/// returns `(graph, tree edge list)`.
pub fn graph_with_tree(n: usize, density: f64, seed: u64) -> (Graph, Vec<(u32, u32)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::non_sparse(n, density, 16, &mut rng);
    let forest =
        pmc_parallel::spanning_forest::spanning_forest(&graph, &pmc_parallel::Meter::disabled());
    let edges = forest
        .iter()
        .map(|&i| {
            let e = graph.edge(i as usize);
            (e.u, e.v)
        })
        .collect();
    (graph, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_connected() {
        for w in [
            non_sparse(64, 1),
            sparse(64, 2),
            dense(32, 3),
            planted(40, 3, 4),
            heavy(24, 5),
            fishbone(100, 6),
            power_law(128, 7),
            near_clique(48, 8),
        ] {
            assert!(w.graph.is_connected(), "{}", w.name);
        }
    }

    #[test]
    fn power_law_is_non_sparse_with_hubs() {
        let w = power_law(256, 11);
        let g = &w.graph;
        assert_eq!(g.n(), 256);
        // k = 8 attachment edges per non-seed vertex: Θ(n^1.5) regime.
        assert!(g.m() >= 6 * g.n(), "m={} should be ≈ k·n", g.m());
        // Preferential attachment grows hubs: the max degree must tower
        // over the per-vertex attachment count.
        let mut deg = vec![0u64; g.n()];
        for e in g.edges() {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        let max_deg = *deg.iter().max().unwrap();
        assert!(max_deg >= 40, "max degree {max_deg} should be a hub");
        assert_eq!(by_name("powerlaw", 256, 11).graph.m(), g.m());
    }

    #[test]
    fn near_clique_is_quadratically_dense() {
        let w = near_clique(64, 12);
        let g = &w.graph;
        let full = g.n() * (g.n() - 1) / 2;
        assert!(g.m() > full * 7 / 10, "m={} of {full}: near-complete", g.m());
        assert!(g.m() <= full);
        assert_eq!(by_name("nearclique", 64, 12).graph.m(), g.m());
    }

    #[test]
    fn fishbone_size_and_lookup() {
        let w = fishbone(1000, 1);
        // Largest 3·2^levels − 2 not exceeding ~n: levels=8 → 766.
        assert_eq!(w.graph.n(), 766);
        assert!(w.graph.m() > 2 * w.graph.n(), "chords keep it non-sparse");
        assert_eq!(by_name("fishbone", 1000, 1).graph.n(), 766);
        assert_eq!(by_name("uniform", 64, 2).graph.n(), 64);
    }

    #[test]
    #[should_panic]
    fn unknown_workload_name_panics() {
        by_name("nope", 10, 0);
    }

    #[test]
    fn tree_workload_spans() {
        let (g, t) = graph_with_tree(50, 0.4, 9);
        assert_eq!(t.len(), g.n() - 1);
    }

    #[test]
    fn regimes_have_expected_density() {
        let ns = non_sparse(256, 7);
        assert!(ns.graph.m() >= 4000, "n^1.5 = 4096");
        let sp = sparse(256, 8);
        assert!(sp.graph.m() < 1300);
    }
}
