//! Deterministic, seedable workload generators.
//!
//! Every generator takes an explicit `&mut impl Rng` so tests and
//! benchmarks are reproducible. The families mirror the workloads the
//! paper's analysis distinguishes: *non-sparse* random graphs
//! (`m = n^{1+Ω(1)}`, the regime where the algorithm is work-optimal),
//! sparse graphs (where \[AB21\] wins), and structured graphs with known
//! minimum cuts for correctness checks.

use crate::graph::{Graph, GraphBuilder, VertexId};
use rand::Rng;

/// Random multigraph with exactly `m` edges drawn uniformly from all
/// unordered vertex pairs (parallel edges allowed, self-loops resampled)
/// and weights uniform in `1..=max_w`.
pub fn gnm_multi(n: usize, m: usize, max_w: u64, rng: &mut impl Rng) -> Graph {
    assert!(n >= 2, "gnm_multi needs at least two vertices");
    let mut b = GraphBuilder::new(n);
    b.reserve(m);
    for _ in 0..m {
        let u = rng.random_range(0..n as VertexId);
        let mut v = rng.random_range(0..n as VertexId);
        while v == u {
            v = rng.random_range(0..n as VertexId);
        }
        b.add_edge(u, v, rng.random_range(1..=max_w));
    }
    b.build()
}

/// Random *connected* weighted multigraph: a random spanning tree plus
/// `extra` uniform random edges. This is the standard workload of the
/// scaling experiments (connectivity is required by min-cut > 0).
pub fn gnm_connected(n: usize, extra: usize, max_w: u64, rng: &mut impl Rng) -> Graph {
    assert!(n >= 2);
    let mut b = GraphBuilder::new(n);
    b.reserve(n - 1 + extra);
    // Random attachment tree: vertex i attaches to a uniform earlier vertex.
    for i in 1..n as VertexId {
        let p = rng.random_range(0..i);
        b.add_edge(i, p, rng.random_range(1..=max_w));
    }
    for _ in 0..extra {
        let u = rng.random_range(0..n as VertexId);
        let mut v = rng.random_range(0..n as VertexId);
        while v == u {
            v = rng.random_range(0..n as VertexId);
        }
        b.add_edge(u, v, rng.random_range(1..=max_w));
    }
    b.build()
}

/// Two dense random communities of `n/2` vertices each, internally wired
/// with `inner_edges` random edges of weight in `1..=max_w_in` per side,
/// joined by exactly `bridge_edges` cross edges of weight `bridge_w`.
///
/// When the communities are sufficiently dense the minimum cut is the
/// planted bridge, of value `bridge_edges * bridge_w`; callers verify
/// against [`crate::stoer_wagner_mincut`] in tests.
pub fn planted_bisection(
    n: usize,
    inner_edges: usize,
    bridge_edges: usize,
    max_w_in: u64,
    bridge_w: u64,
    rng: &mut impl Rng,
) -> Graph {
    assert!(n >= 4, "need at least two vertices per side");
    let half = n / 2;
    let mut b = GraphBuilder::new(n);
    for (lo, hi) in [(0usize, half), (half, n)] {
        let size = hi - lo;
        // Spanning path to guarantee internal connectivity.
        for i in lo + 1..hi {
            b.add_edge((i - 1) as VertexId, i as VertexId, max_w_in);
        }
        for _ in 0..inner_edges.saturating_sub(size - 1) {
            let u = rng.random_range(lo..hi) as VertexId;
            let mut v = rng.random_range(lo..hi) as VertexId;
            while v == u {
                v = rng.random_range(lo..hi) as VertexId;
            }
            b.add_edge(u, v, rng.random_range(1..=max_w_in));
        }
    }
    for _ in 0..bridge_edges {
        let u = rng.random_range(0..half) as VertexId;
        let v = rng.random_range(half..n) as VertexId;
        b.add_edge(u, v, bridge_w);
    }
    b.build()
}

/// Two complete graphs (cliques) of size `s` with uniform internal edge
/// weight `w_in`, connected by a single bridge of weight `w_bridge`.
/// Minimum cut is exactly `w_bridge` whenever `w_bridge < w_in * (s-1)`.
pub fn dumbbell(s: usize, w_in: u64, w_bridge: u64) -> Graph {
    assert!(s >= 2);
    let n = 2 * s;
    let mut b = GraphBuilder::new(n);
    for base in [0, s] {
        for i in 0..s {
            for j in i + 1..s {
                b.add_edge((base + i) as VertexId, (base + j) as VertexId, w_in);
            }
        }
    }
    b.add_edge(0, s as VertexId, w_bridge);
    b.build()
}

/// `k` cliques of size `s` arranged in a ring, adjacent cliques joined by
/// one edge of weight `w_bridge`. Minimum cut is `2 * w_bridge` (cut two
/// ring bridges) whenever that is below the clique connectivity.
pub fn ring_of_cliques(k: usize, s: usize, w_in: u64, w_bridge: u64) -> Graph {
    assert!(k >= 3 && s >= 2);
    let n = k * s;
    let mut b = GraphBuilder::new(n);
    for c in 0..k {
        let base = c * s;
        for i in 0..s {
            for j in i + 1..s {
                b.add_edge((base + i) as VertexId, (base + j) as VertexId, w_in);
            }
        }
        let next = ((c + 1) % k) * s;
        b.add_edge(base as VertexId, next as VertexId, w_bridge);
    }
    b.build()
}

/// `rows x cols` grid with uniform edge weight `w`. For
/// `rows, cols >= 2` the minimum cut isolates a corner: value `2w`.
pub fn grid(rows: usize, cols: usize, w: u64) -> Graph {
    assert!(rows >= 1 && cols >= 1);
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c), w);
            }
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1), w);
            }
        }
    }
    b.build()
}

/// `d`-dimensional hypercube (2^d vertices) with uniform weight `w`.
/// Minimum cut isolates a vertex: value `d * w`.
pub fn hypercube(d: usize, w: u64) -> Graph {
    assert!((1..30).contains(&d));
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if v < u {
                b.add_edge(v as VertexId, u as VertexId, w);
            }
        }
    }
    b.build()
}

/// Complete graph on `n` vertices, uniform weight `w`.
/// Minimum cut isolates any vertex: value `(n-1) * w`.
pub fn complete(n: usize, w: u64) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in i + 1..n {
            b.add_edge(i as VertexId, j as VertexId, w);
        }
    }
    b.build()
}

/// Simple cycle on `n` vertices; minimum cut is `2 * w` for `n >= 3`.
pub fn cycle(n: usize, w: u64) -> Graph {
    assert!(n >= 3);
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(i as VertexId, ((i + 1) % n) as VertexId, w);
    }
    b.build()
}

/// Path on `n` vertices; minimum cut is the lightest edge.
pub fn path(n: usize, w: u64) -> Graph {
    assert!(n >= 2);
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge((i - 1) as VertexId, i as VertexId, w);
    }
    b.build()
}

/// Star with `n-1` leaves; minimum cut is the lightest spoke.
pub fn star(n: usize, w: u64) -> Graph {
    assert!(n >= 2);
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(0, i as VertexId, w);
    }
    b.build()
}

/// A weighted graph whose minimum cut is large (useful for exercising
/// the sampling hierarchy, which only activates for min-cut `≫ log n`):
/// a cycle with heavy edges plus random chords.
pub fn heavy_cycle_with_chords(
    n: usize,
    chords: usize,
    cycle_w: u64,
    max_chord_w: u64,
    rng: &mut impl Rng,
) -> Graph {
    assert!(n >= 3);
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(i as VertexId, ((i + 1) % n) as VertexId, cycle_w);
    }
    for _ in 0..chords {
        let u = rng.random_range(0..n as VertexId);
        let mut v = rng.random_range(0..n as VertexId);
        while v == u {
            v = rng.random_range(0..n as VertexId);
        }
        b.add_edge(u, v, rng.random_range(1..=max_chord_w));
    }
    b.build()
}

/// The "fishbone" workload: a spine `v_0 → v_1 → … → v_levels` where
/// every spine vertex also hangs a comb path *longer* than the
/// remaining spine, so each spine edge is a light edge whose lower
/// endpoint heads a fresh heavy chain. A heavy chord `(v_0, v_levels)`
/// of weight `chord_w` covers the whole spine, making every spine
/// edge's interesting path span all the others.
///
/// This is the adversarial input for heavy-path interest descent: an
/// arm crosses `Θ(levels)` heavy chains and each crossing pays a
/// binary search, i.e. `Θ(levels²)` cut queries per edge, while
/// centroid descent stays `O(levels)` — the gap the complexity
/// regression suite meters. `n = 3·2^levels − 2`.
///
/// Returns the graph, the parent array of the intended spanning tree
/// (rooted at `v_0 = 0`), and the spine vertex ids.
pub fn fishbone(levels: usize, chord_w: u64) -> (Graph, Vec<VertexId>, Vec<VertexId>) {
    assert!(levels >= 1);
    // Subtree sizes below each spine vertex, bottom-up:
    // sz(levels) = 1 and sz(i) = 2·sz(i+1) + 2, so the comb at v_i
    // (length sz(i+1) + 1) strictly outweighs the remaining spine.
    let mut sz = vec![1u32; levels + 1];
    for i in (0..levels).rev() {
        sz[i] = 2 * sz[i + 1] + 2;
    }
    let n = sz[0] as usize;
    let spine: Vec<VertexId> = (0..=levels as VertexId).collect();
    let mut parent: Vec<VertexId> = vec![0; n];
    for (i, p) in parent.iter_mut().enumerate().take(levels + 1).skip(1) {
        *p = (i - 1) as VertexId;
    }
    let mut next = levels + 1;
    let mut b = GraphBuilder::new(n);
    for i in 0..levels {
        // Comb hanging off v_i: a path of sz(i+1) + 1 vertices.
        let mut prev = i as VertexId;
        for _ in 0..sz[i + 1] + 1 {
            parent[next] = prev;
            prev = next as VertexId;
            next += 1;
        }
    }
    assert_eq!(next, n);
    for (v, &p) in parent.iter().enumerate().skip(1) {
        b.add_edge(p, v as VertexId, 1);
    }
    b.add_edge(0, levels as VertexId, chord_w);
    (b.build(), parent, spine)
}

/// Dense random graph in the `m = n^{1+alpha}` regime the paper calls
/// non-sparse: `m = ceil(n^(1+alpha))` random edges over a random
/// spanning tree.
pub fn non_sparse(n: usize, alpha: f64, max_w: u64, rng: &mut impl Rng) -> Graph {
    let m = (n as f64).powf(1.0 + alpha).ceil() as usize;
    gnm_connected(n, m.saturating_sub(n - 1), max_w, rng)
}

/// Power-law community graph: `communities` contiguous vertex blocks,
/// each grown by preferential attachment (every new vertex adds `k`
/// edges whose targets are drawn degree-proportionally from its block),
/// then consecutive blocks joined into a ring by single bridge edges.
///
/// Degree-proportional sampling uses the classic endpoint-list trick —
/// every edge pushes both endpoints onto a list and targets are drawn
/// uniformly from it — so hubs emerge with a heavy-tailed degree
/// profile. With `k ≈ n^alpha` per vertex this sits in the paper's
/// non-sparse regime (`m = Θ(k·n)`) while looking nothing like a
/// uniform G(n, m): cuts around hubs are expensive, cuts along the
/// ring bridges are cheap, which exercises the solver's interest
/// search far from the uniform workloads. Connected by construction
/// (attachment within blocks, bridges across).
pub fn power_law_community(
    n: usize,
    communities: usize,
    k: usize,
    max_w: u64,
    rng: &mut impl Rng,
) -> Graph {
    assert!(n >= 2 && k >= 1);
    // Each block needs at least 2 vertices for attachment to make sense.
    let communities = communities.clamp(1, n / 2);
    let mut b = GraphBuilder::new(n);
    b.reserve(n * k + communities);
    let base = n / communities;
    let start = |c: usize| if c == communities { n } else { c * base };
    let mut endpoints: Vec<VertexId> = Vec::new();
    for c in 0..communities {
        let (lo, hi) = (start(c), start(c + 1));
        endpoints.clear();
        endpoints.push(lo as VertexId);
        for v in lo + 1..hi {
            // Targets are earlier block vertices only, so no self-loops.
            for _ in 0..k {
                let t = endpoints[rng.random_range(0..endpoints.len())];
                b.add_edge(v as VertexId, t, rng.random_range(1..=max_w));
                endpoints.push(t);
                endpoints.push(v as VertexId);
            }
        }
    }
    if communities > 1 {
        for c in 0..communities {
            let u = start(c) as VertexId;
            let v = start((c + 1) % communities) as VertexId;
            b.add_edge(u, v, rng.random_range(1..=max_w));
        }
    }
    b.build()
}

/// Near-clique: the complete graph on `n` vertices with every non-path
/// edge independently *dropped* with probability `drop`, weights
/// uniform in `1..=max_w`. The Hamiltonian path `0–1–…–(n-1)` is always
/// kept, so the graph is connected for every `drop < 1`.
///
/// This is the extreme end of the paper's `m ≥ n^{1+ε}` regime
/// (`m = Θ(n²)`), where the work-optimality claim bites hardest: the
/// dense-graph benches use it to stress the 2-D range tree with the
/// fullest grids a given `n` can produce.
pub fn near_clique(n: usize, drop: f64, max_w: u64, rng: &mut impl Rng) -> Graph {
    assert!(n >= 2);
    assert!((0.0..1.0).contains(&drop), "drop must be in [0, 1)");
    let mut b = GraphBuilder::new(n);
    b.reserve(n * (n - 1) / 2);
    for u in 0..n {
        for v in u + 1..n {
            let backbone = v == u + 1;
            if !backbone && rng.random::<f64>() < drop {
                continue;
            }
            b.add_edge(u as VertexId, v as VertexId, rng.random_range(1..=max_w));
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fishbone_structure() {
        let levels = 6;
        let (g, parent, spine) = fishbone(levels, 8);
        let n = 3 * (1 << levels) - 2;
        assert_eq!(g.n(), n);
        assert_eq!(g.m(), n); // n-1 tree edges + the chord
        assert_eq!(spine.len(), levels + 1);
        // Subtree sizes from the parent array (children have larger
        // ids, so one reverse sweep suffices).
        let mut size = vec![1u32; n];
        for v in (1..n).rev() {
            let s = size[v];
            size[parent[v] as usize] += s;
        }
        // Each comb outweighs the remaining spine: the spine edge is
        // light at every step, which is what makes heavy-path descent
        // cross a fresh chain per level.
        for i in 0..levels {
            let comb_head = g
                .edges()
                .iter()
                .filter(|e| e.u == i as VertexId && e.v > levels as VertexId)
                .map(|e| e.v)
                .next()
                .expect("comb head");
            assert!(
                size[comb_head as usize] > size[i + 1],
                "comb at spine {i} must be the heavy child"
            );
        }
    }

    #[test]
    fn gnm_multi_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gnm_multi(10, 40, 5, &mut rng);
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 40);
        assert!(g.edges().iter().all(|e| e.u != e.v && e.w >= 1 && e.w <= 5));
    }

    #[test]
    fn gnm_connected_is_connected() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [2, 3, 10, 57] {
            let g = gnm_connected(n, 5, 9, &mut rng);
            assert!(g.is_connected(), "n={n}");
            assert_eq!(g.m(), n - 1 + 5);
        }
    }

    #[test]
    fn dumbbell_structure() {
        let g = dumbbell(4, 10, 3);
        assert_eq!(g.n(), 8);
        // 2 * C(4,2) internal + 1 bridge
        assert_eq!(g.m(), 13);
        assert!(g.is_connected());
    }

    #[test]
    fn ring_of_cliques_structure() {
        let g = ring_of_cliques(3, 3, 4, 1);
        assert_eq!(g.n(), 9);
        assert_eq!(g.m(), 3 * 3 + 3);
        assert!(g.is_connected());
    }

    #[test]
    fn grid_and_hypercube_counts() {
        let g = grid(3, 4, 2);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4);
        let h = hypercube(3, 1);
        assert_eq!(h.n(), 8);
        assert_eq!(h.m(), 12);
    }

    #[test]
    fn classic_families() {
        assert_eq!(complete(5, 2).m(), 10);
        assert_eq!(cycle(6, 1).m(), 6);
        assert_eq!(path(6, 1).m(), 5);
        assert_eq!(star(6, 1).m(), 5);
    }

    #[test]
    fn planted_bisection_connected() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = planted_bisection(20, 40, 3, 10, 2, &mut rng);
        assert!(g.is_connected());
        // Exactly 3 bridge edges of weight 2 cross the planted partition.
        let side: Vec<bool> = (0..20).map(|v| v < 10).collect();
        assert_eq!(crate::cut_of_partition(&g, &side), 6);
    }

    #[test]
    fn non_sparse_size() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = non_sparse(64, 0.5, 3, &mut rng);
        assert!(g.m() >= 512, "m={} should be >= n^1.5", g.m());
        assert!(g.is_connected());
    }
}
