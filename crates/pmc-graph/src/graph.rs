//! Core graph representation.
//!
//! [`Graph`] is immutable after construction: the min-cut pipeline never
//! mutates its input, it derives sampled/sparsified copies instead. The
//! representation keeps the original edge list (cut queries are
//! edge-centric) plus a CSR adjacency (traversals are vertex-centric).

use serde::{Deserialize, Serialize};

/// Exclusive bound on a graph's total edge weight: `2^62`. Below it the
/// solver's coverage pass, which sums `±2·w` terms in `i64`, and every
/// `u64` cut sum stay in range. [`GraphBuilder::build`] panics at or
/// above it; [`crate::io::parse_graph`] rejects such input with a typed
/// error.
pub const TOTAL_WEIGHT_LIMIT: u64 = 1 << 62;

/// Vertex identifier. Graphs in this workspace are bounded by `u32`
/// vertices; indices are widened to `usize` at use sites.
pub type VertexId = u32;

/// A weighted undirected edge. Parallel edges are allowed (the paper
/// switches freely between weighted graphs and unweighted multigraphs);
/// self-loops are not (they never cross a cut).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    pub u: VertexId,
    pub v: VertexId,
    pub w: u64,
}

impl Edge {
    pub fn new(u: VertexId, v: VertexId, w: u64) -> Self {
        Edge { u, v, w }
    }

    /// The endpoint different from `x`. Panics if `x` is not an endpoint.
    pub fn other(&self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else {
            debug_assert_eq!(x, self.v);
            self.u
        }
    }
}

/// Immutable weighted undirected graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    /// CSR offsets: `adj[adj_offsets[v]..adj_offsets[v+1]]` are the
    /// incident half-edges of `v`.
    adj_offsets: Vec<u32>,
    /// Half-edges: `(neighbor, edge index)`.
    adj: Vec<(VertexId, u32)>,
    total_weight: u64,
}

impl Graph {
    /// Build a graph from an edge list. Self-loops are dropped;
    /// zero-weight edges are dropped; parallel edges are kept.
    ///
    /// Panics if an endpoint is out of range or the total weight
    /// overflows `u64`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (VertexId, VertexId, u64)>) -> Self {
        let mut b = GraphBuilder::new(n);
        for (u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of (weighted) edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Sum of all edge weights.
    #[inline]
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// The edge list.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edge by index.
    #[inline]
    pub fn edge(&self, i: usize) -> Edge {
        self.edges[i]
    }

    /// Incident half-edges of `v` as `(neighbor, edge index)` pairs.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, u32)] {
        let lo = self.adj_offsets[v as usize] as usize;
        let hi = self.adj_offsets[v as usize + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Unweighted degree (number of incident edges, counting parallels).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Weighted degree of `v`: the value of the singleton cut `{v}`.
    pub fn weighted_degree(&self, v: VertexId) -> u64 {
        self.neighbors(v).iter().map(|&(_, e)| self.edges[e as usize].w).sum()
    }

    /// Minimum weighted degree: a cheap upper bound on the min-cut.
    pub fn min_weighted_degree(&self) -> u64 {
        (0..self.n as VertexId).map(|v| self.weighted_degree(v)).min().unwrap_or(0)
    }

    /// Vertex of minimum weighted degree together with its degree.
    pub fn min_weighted_degree_vertex(&self) -> (VertexId, u64) {
        (0..self.n as VertexId)
            .map(|v| (v, self.weighted_degree(v)))
            .min_by_key(|&(_, d)| d)
            .unwrap_or((0, 0))
    }

    /// Connected components as a label array (labels are component
    /// representatives, not necessarily consecutive).
    pub fn component_labels(&self) -> Vec<VertexId> {
        let mut label = vec![u32::MAX; self.n];
        let mut stack = Vec::new();
        for s in 0..self.n as VertexId {
            if label[s as usize] != u32::MAX {
                continue;
            }
            label[s as usize] = s;
            stack.push(s);
            while let Some(v) = stack.pop() {
                for &(u, _) in self.neighbors(v) {
                    if label[u as usize] == u32::MAX {
                        label[u as usize] = s;
                        stack.push(u);
                    }
                }
            }
        }
        label
    }

    /// Whether the graph is connected (the empty graph is connected).
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let labels = self.component_labels();
        labels.iter().all(|&l| l == labels[0])
    }

    /// Number of connected components.
    pub fn num_components(&self) -> usize {
        let labels = self.component_labels();
        let mut ls: Vec<_> = labels.to_vec();
        ls.sort_unstable();
        ls.dedup();
        ls.len()
    }

    /// Merge parallel edges, summing weights. The result is a simple
    /// weighted graph with the same cut structure, edges sorted by
    /// normalized endpoint pair.
    ///
    /// Sort-and-merge over packed `(min << 32) | max` keys: two flat
    /// buffer passes instead of a hash map, so the merge is a sort of
    /// `m` machine words plus one linear scan.
    pub fn coalesced(&self) -> Graph {
        let mut keyed: Vec<(u64, u64)> = self
            .edges
            .iter()
            .map(|e| {
                let (a, b) = if e.u < e.v { (e.u, e.v) } else { (e.v, e.u) };
                (((a as u64) << 32) | b as u64, e.w)
            })
            .collect();
        keyed.sort_unstable_by_key(|&(k, _)| k);
        let mut list: Vec<(VertexId, VertexId, u64)> = Vec::with_capacity(keyed.len());
        for (k, w) in keyed {
            match list.last_mut() {
                Some(last) if (((last.0 as u64) << 32) | last.1 as u64) == k => last.2 += w,
                _ => list.push(((k >> 32) as VertexId, k as VertexId, w)),
            }
        }
        Graph::from_edges(self.n, list)
    }
}

/// Incremental builder for [`Graph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "vertex count exceeds u32 range");
        GraphBuilder { n, edges: Vec::new() }
    }

    /// Add an undirected edge. Self-loops and zero weights are ignored.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: u64) -> &mut Self {
        assert!((u as usize) < self.n && (v as usize) < self.n, "endpoint out of range");
        if u != v && w > 0 {
            self.edges.push(Edge::new(u, v, w));
        }
        self
    }

    pub fn reserve(&mut self, additional: usize) {
        self.edges.reserve(additional);
    }

    /// Panics if the total edge weight reaches [`TOTAL_WEIGHT_LIMIT`].
    pub fn build(self) -> Graph {
        let n = self.n;
        let edges = self.edges;
        let mut total: u64 = 0;
        let mut deg = vec![0u32; n + 1];
        for e in &edges {
            total = total.saturating_add(e.w);
            deg[e.u as usize + 1] += 1;
            deg[e.v as usize + 1] += 1;
        }
        assert!(
            total < TOTAL_WEIGHT_LIMIT,
            "total graph weight {total} reaches TOTAL_WEIGHT_LIMIT (2^62)"
        );
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let adj_offsets = deg.clone();
        let mut cursor = deg;
        let mut adj = vec![(0u32, 0u32); edges.len() * 2];
        for (i, e) in edges.iter().enumerate() {
            adj[cursor[e.u as usize] as usize] = (e.v, i as u32);
            cursor[e.u as usize] += 1;
            adj[cursor[e.v as usize] as usize] = (e.u, i as u32);
            cursor[e.v as usize] += 1;
        }
        Graph { n, edges, adj_offsets, adj, total_weight: total }
    }
}

/// Value of the cut induced by a boolean vertex partition.
///
/// `side[v]` says which side vertex `v` is on. Returns the total weight
/// of edges with endpoints on different sides. Panics if `side.len()`
/// differs from `g.n()`.
pub fn cut_of_partition(g: &Graph, side: &[bool]) -> u64 {
    assert_eq!(side.len(), g.n());
    g.edges()
        .iter()
        .filter(|e| side[e.u as usize] != side[e.v as usize])
        .map(|e| e.w)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1, 5), (1, 2, 7), (0, 2, 11)])
    }

    #[test]
    fn builds_csr() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.total_weight(), 23);
        assert_eq!(g.degree(1), 2);
        let mut nbrs: Vec<_> = g.neighbors(0).iter().map(|&(v, _)| v).collect();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![1, 2]);
    }

    #[test]
    fn drops_self_loops_and_zero_weights() {
        let g = Graph::from_edges(3, [(0, 0, 5), (0, 1, 0), (1, 2, 3)]);
        assert_eq!(g.m(), 1);
        assert_eq!(g.total_weight(), 3);
    }

    #[test]
    fn weighted_degrees() {
        let g = triangle();
        assert_eq!(g.weighted_degree(0), 16);
        assert_eq!(g.weighted_degree(1), 12);
        assert_eq!(g.weighted_degree(2), 18);
        assert_eq!(g.min_weighted_degree(), 12);
        assert_eq!(g.min_weighted_degree_vertex(), (1, 12));
    }

    #[test]
    fn connectivity() {
        let g = triangle();
        assert!(g.is_connected());
        let g2 = Graph::from_edges(4, [(0, 1, 1), (2, 3, 1)]);
        assert!(!g2.is_connected());
        assert_eq!(g2.num_components(), 2);
        let empty = Graph::from_edges(0, []);
        assert!(empty.is_connected());
    }

    #[test]
    fn partition_cut_value() {
        let g = triangle();
        assert_eq!(cut_of_partition(&g, &[true, false, false]), 16);
        assert_eq!(cut_of_partition(&g, &[true, true, false]), 18);
        assert_eq!(cut_of_partition(&g, &[true, true, true]), 0);
    }

    #[test]
    fn coalesce_merges_parallels() {
        let g = Graph::from_edges(3, [(0, 1, 2), (1, 0, 3), (1, 2, 4)]);
        let c = g.coalesced();
        assert_eq!(c.m(), 2);
        assert_eq!(c.total_weight(), 9);
        let w01: u64 = c
            .edges()
            .iter()
            .filter(|e| (e.u.min(e.v), e.u.max(e.v)) == (0, 1))
            .map(|e| e.w)
            .sum();
        assert_eq!(w01, 5);
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(3, 7, 1);
        assert_eq!(e.other(3), 7);
        assert_eq!(e.other(7), 3);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range() {
        Graph::from_edges(2, [(0, 5, 1)]);
    }
}
