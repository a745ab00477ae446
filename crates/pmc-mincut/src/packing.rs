//! Greedy tree packing (Theorem 4.18, §4.2).
//!
//! Karger's packing framework: sparsify (skeleton of Theorem 2.4 with
//! Observation 4.22's weight cap, then the certificate of Theorem 2.6),
//! then run the Plotkin–Shmoys–Tardos greedy packing — a sequence of
//! minimum spanning trees with respect to *loads* `uses(e) / w(e)`.
//! A constant fraction (by weight) of the packed trees 2-constrains the
//! minimum cut, so the cut-finding stage only needs the distinct trees
//! of the packing.
//!
//! The MST subroutine is Kruskal over an edge order kept sorted across
//! iterations (substituting Pettie–Ramachandran, DESIGN.md §4): each
//! iteration re-keys only its n − 1 tree edges and merges them into a
//! small sorted side buffer that the next scan reads alongside the main
//! order, so an iteration costs the entries it scans plus the buffer,
//! not m. The buffer is folded into the main order once it holds more
//! than m/8 edges. It is sequential.

use pmc_graph::Graph;
use pmc_parallel::meter::{CostKind, Meter};
use pmc_parallel::union_find::UnionFind;
use std::collections::HashSet;

/// Load order `uses(e)/w(e)` as the fixed-point key `(uses << 32) / w`:
/// exact for ratio gaps above 2^-32, with (weight, index) tie-breaks
/// making it a strict total order, so the packing is deterministic.
/// `uses` never exceeds the iteration count, which
/// [`greedy_tree_packing`] keeps below 2^32, so the shift fits a `u64`.
type LoadKey = (u64, u64, u32);

fn load_key(h: &Graph, uses: &[u64], i: usize) -> LoadKey {
    let w = h.edge(i).w;
    ((uses[i] << 32) / w.max(1), w, i as u32)
}

/// Packing parameters.
#[derive(Debug, Clone, Copy)]
pub struct PackingParams {
    /// Number of PST iterations per `log^2 n` (paper: `O(log^2 n)`
    /// iterations total).
    pub iterations_factor: f64,
    /// Hard floor / ceiling on iteration count.
    pub min_iterations: usize,
    pub max_iterations: usize,
    /// Trees handed to the cut-finding stage per `log2 n` (the paper's
    /// `O(log n)` trees "by weight"): a constant fraction of the packing
    /// weight 2-respects the min cut, so sampling the iteration sequence
    /// at weight-proportional (evenly spaced) positions succeeds w.h.p.
    pub trees_factor: f64,
    /// Hard floor on the number of selected trees.
    pub min_trees: usize,
}

impl Default for PackingParams {
    fn default() -> Self {
        PackingParams {
            iterations_factor: 2.0,
            min_iterations: 12,
            max_iterations: 4000,
            trees_factor: 4.0,
            min_trees: 12,
        }
    }
}

impl PackingParams {
    /// Iteration count for an `n`-vertex packing input.
    pub fn iterations(&self, n: usize) -> usize {
        let l = (n.max(2) as f64).log2();
        ((self.iterations_factor * l * l).ceil() as usize)
            .clamp(self.min_iterations, self.max_iterations)
    }

    /// Number of trees forwarded to the cut-finding stage.
    pub fn max_trees(&self, n: usize) -> usize {
        let l = (n.max(2) as f64).log2();
        ((self.trees_factor * l).ceil() as usize).max(self.min_trees)
    }
}

/// Greedy (PST) tree packing on `h`; returns the *distinct* spanning
/// trees as edge-endpoint lists. `h` must be connected.
///
/// Each iteration computes the MST of `h` under the load order
/// `uses(e)/w(e)` (ties by static weight, then index) and increments the
/// loads of the chosen edges. Charges one [`CostKind::MstEdge`] per
/// order entry touched: read by a Kruskal scan (stale ones included),
/// or by a merge into the side buffer or back into the main order.
///
/// Panics if the iteration count reaches 2^32, before allocating.
///
/// # Example
///
/// ```
/// use pmc_mincut::{greedy_tree_packing, PackingParams};
/// use pmc_parallel::Meter;
///
/// let g = pmc_graph::generators::cycle(8, 1);
/// let trees = greedy_tree_packing(&g, &PackingParams::default(), &Meter::disabled());
/// // Every packed tree spans all 8 vertices.
/// assert!(trees.iter().all(|t| t.len() == 7));
/// ```
pub fn greedy_tree_packing(
    h: &Graph,
    params: &PackingParams,
    meter: &Meter,
) -> Vec<Vec<(u32, u32)>> {
    assert!(h.n() >= 2, "packing needs at least one edge");
    let iterations = params.iterations(h.n());
    assert!(
        u32::try_from(iterations).is_ok(),
        "{iterations} packing iterations: the load key needs at most 2^32 - 1"
    );
    meter.record_depth("packing:iterations", iterations as u64);
    let picks = picked_iterations(params, h.n(), iterations);
    let forests = pst_sequence(h, iterations, &picks, meter);
    select_trees(h, &forests)
}

/// The iterations whose trees reach the cut-finding stage, ascending.
///
/// Weight-proportional selection: evenly spaced iterations. Every tree
/// has weight 1 in the PST packing, so spacing over iterations is
/// spacing over packing weight; a constant fraction of that weight
/// 2-respects the min cut (Karger), hence w.h.p. a selected tree does.
fn picked_iterations(params: &PackingParams, n: usize, iterations: usize) -> Vec<usize> {
    let want = params.max_trees(n).min(iterations);
    let stride = iterations as f64 / want as f64;
    let mut picks: Vec<usize> =
        (0..want).map(|k| ((k as f64 * stride) as usize).min(iterations - 1)).collect();
    picks.dedup();
    picks
}

/// Fold the side buffer into the order past m/8 entries (m/16 timed within 6%, m/4 21% slower).
const COMPACT_SHARE: usize = 8;

/// Run `iterations` PST iterations and return the tree (ascending edge
/// indices) chosen at each iteration in `picks` (ascending), in order.
fn pst_sequence(h: &Graph, iterations: usize, picks: &[usize], meter: &Meter) -> Vec<Vec<u32>> {
    let (n, m) = (h.n(), h.m());
    let mut uses: Vec<u64> = vec![0; m];
    // Every edge's key as of the last compaction, sorted. The key ends
    // in the edge index, so the order names the edges.
    let mut order: Vec<LoadKey> = (0..m).map(|i| load_key(h, &uses, i)).collect();
    order.sort_unstable();
    // The current keys of the edges re-keyed since then, sorted; their
    // entries in `order` are stale.
    let mut side: Vec<LoadKey> = Vec::new();
    let mut in_side = vec![false; m];
    let mut moved: Vec<LoadKey> = Vec::with_capacity(n - 1);
    let mut in_tree = vec![false; m];
    let mut uf = UnionFind::new(n);
    let mut sequence = Vec::with_capacity(picks.len());
    let mut touched = 0usize;
    for it in 0..iterations {
        // Kruskal over `order` and `side` read as one merged stream: the
        // key is a strict total order, so this is the unique MSF under
        // the current loads. Its edges are re-keyed as they are chosen;
        // the scan reads only the old keys.
        uf.reset(n);
        moved.clear();
        let (mut a, mut b) = (0, 0);
        while moved.len() < n - 1 {
            let k = match (order.get(a), side.get(b)) {
                (Some(&x), Some(&y)) if y < x => {
                    b += 1;
                    y
                }
                (Some(&x), _) => {
                    a += 1;
                    if in_side[x.2 as usize] {
                        continue;
                    }
                    x
                }
                (None, Some(&y)) => {
                    b += 1;
                    y
                }
                (None, None) => break,
            };
            let i = k.2 as usize;
            let e = h.edge(i);
            if uf.union(e.u, e.v) {
                uses[i] += 1;
                in_tree[i] = true;
                moved.push(load_key(h, &uses, i));
            }
        }
        assert_eq!(moved.len(), n - 1, "packing input must be connected");
        if picks.get(sequence.len()) == Some(&it) {
            let mut forest: Vec<u32> = moved.iter().map(|k| k.2).collect();
            forest.sort_unstable();
            sequence.push(forest);
        }
        moved.sort_unstable();
        // Merge the re-keyed edges into `side`, dropping the entries they
        // replace there.
        touched += a + b + side.len() + moved.len();
        side.retain(|k| !in_tree[k.2 as usize]);
        merge_from_back(&mut side, &moved);
        for k in &moved {
            in_tree[k.2 as usize] = false;
            in_side[k.2 as usize] = true;
        }
        if side.len() * COMPACT_SHARE > m {
            touched += m + side.len();
            order.retain(|k| !in_side[k.2 as usize]);
            merge_from_back(&mut order, &side);
            for k in side.drain(..) {
                in_side[k.2 as usize] = false;
            }
        }
    }
    meter.add(CostKind::MstEdge, touched as u64);
    sequence
}

/// Merge sorted `extra` into sorted `base` in place, from the back: the
/// prefix of `base` below `extra`'s first entry is not moved.
fn merge_from_back(base: &mut Vec<LoadKey>, extra: &[LoadKey]) {
    let mut read = base.len();
    base.extend_from_slice(extra);
    let mut write = base.len();
    for &k in extra.iter().rev() {
        while read > 0 && base[read - 1] > k {
            read -= 1;
            write -= 1;
            base[write] = base[read];
        }
        write -= 1;
        base[write] = k;
    }
}

/// The distinct trees among `forests`, in order, as edge-endpoint
/// lists: the trees handed to the cut-finding stage.
fn select_trees(h: &Graph, forests: &[Vec<u32>]) -> Vec<Vec<(u32, u32)>> {
    let mut seen: HashSet<&[u32]> = HashSet::new();
    forests
        .iter()
        .filter(|forest| seen.insert(forest.as_slice()))
        .map(|forest| {
            forest
                .iter()
                .map(|&i| {
                    let e = h.edge(i as usize);
                    (e.u, e.v)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_graph::generators;
    use pmc_parallel::mst::kruskal_msf_by;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn is_spanning_tree(n: usize, edges: &[(u32, u32)]) -> bool {
        if edges.len() != n - 1 {
            return false;
        }
        let mut uf = UnionFind::new(n);
        edges.iter().all(|&(u, v)| uf.union(u, v))
    }

    /// The PST sequence with a from-scratch Kruskal per iteration, on the
    /// load key computed in `u128`, where the shift cannot overflow.
    fn reference_sequence(h: &Graph, iterations: usize) -> Vec<Vec<u32>> {
        let mut uses = vec![0u64; h.m()];
        (0..iterations)
            .map(|_| {
                let forest = kruskal_msf_by(h, |i| {
                    let w = h.edge(i).w;
                    (((uses[i] as u128) << 32) / w.max(1) as u128, w, i as u32)
                });
                for &i in &forest {
                    uses[i as usize] += 1;
                }
                forest
            })
            .collect()
    }

    #[test]
    fn maintained_order_matches_from_scratch_kruskal() {
        let mut rng = StdRng::seed_from_u64(503);
        let mut graphs = vec![
            generators::near_clique(150, 0.15, 48, &mut StdRng::seed_from_u64(1)),
            generators::near_clique(60, 0.3, 1000, &mut rng),
            // All weights tie: the keys differ only in the edge index.
            generators::cycle(30, 3),
            generators::complete(20, 5),
            // `pmc_bench::workloads::power_law(200, 7)`.
            generators::power_law_community(200, 3, 8, 16, &mut StdRng::seed_from_u64(7)),
        ];
        for k in 0..24 {
            let n = 10 + 7 * k;
            graphs.push(generators::gnm_connected(n, 2 * n + k, 1 + 40 * k as u64, &mut rng));
        }
        let params = PackingParams::default();
        for g in &graphs {
            let iterations = params.iterations(g.n());
            let reference = reference_sequence(g, iterations);
            let every: Vec<usize> = (0..iterations).collect();
            assert_eq!(pst_sequence(g, iterations, &every, &Meter::disabled()), reference);
            let picks = picked_iterations(&params, g.n(), iterations);
            let picked: Vec<Vec<u32>> = picks.iter().map(|&i| reference[i].clone()).collect();
            assert_eq!(pst_sequence(g, iterations, &picks, &Meter::disabled()), picked);
            assert_eq!(
                greedy_tree_packing(g, &params, &Meter::disabled()),
                select_trees(g, &picked)
            );
        }
    }

    #[test]
    fn side_buffer_matches_exact_reference() {
        let mut rng = StdRng::seed_from_u64(504);
        // Weights above 2^32: the first key component is 0 until an edge's
        // uses outgrow w / 2^32, so the weight tie-break decides.
        let wide = {
            let g = generators::gnm_connected(40, 200, 1, &mut rng);
            let edges: Vec<(u32, u32, u64)> = g
                .edges()
                .iter()
                .map(|e| (e.u, e.v, (1 << 33) + rng.random_range(0..1u64 << 40)))
                .collect();
            Graph::from_edges(40, edges)
        };
        assert!(wide.edges().iter().map(|e| e.w).sum::<u64>() < pmc_graph::TOTAL_WEIGHT_LIMIT);
        let params = PackingParams::default();
        for (g, iterations) in [
            (wide, params.iterations(40)),
            // All keys tie until the edge index.
            (generators::complete(40, 1), params.iterations(40)),
            // Dense and long: `side` compacts many times, and edges chosen
            // again before a compaction replace their own `side` entries.
            (generators::near_clique(40, 0.2, 30, &mut rng), 10 * params.iterations(40)),
        ] {
            let every: Vec<usize> = (0..iterations).collect();
            assert_eq!(
                pst_sequence(&g, iterations, &every, &Meter::disabled()),
                reference_sequence(&g, iterations)
            );
        }
    }

    #[test]
    #[should_panic(expected = "packing iterations")]
    fn iterations_beyond_the_key_range_are_refused() {
        let many = u32::MAX as usize + 1;
        let params = PackingParams {
            min_iterations: many,
            max_iterations: many,
            ..PackingParams::default()
        };
        greedy_tree_packing(&generators::cycle(8, 1), &params, &Meter::disabled());
    }

    #[test]
    fn meter_records_mst_work() {
        let g = generators::near_clique(150, 0.15, 48, &mut StdRng::seed_from_u64(1));
        let params = PackingParams::default();
        let charge = || {
            let meter = Meter::enabled();
            greedy_tree_packing(&g, &params, &meter);
            meter.get(CostKind::MstEdge)
        };
        let charged = charge();
        assert_eq!(charged, charge());
        let iterations = params.iterations(g.n()) as u64;
        assert!(charged >= iterations * (g.n() as u64 - 1));
        assert!(charged < iterations * g.m() as u64 / 2);
    }

    #[test]
    fn all_outputs_are_spanning_trees() {
        let mut rng = StdRng::seed_from_u64(501);
        let g = generators::gnm_connected(30, 90, 7, &mut rng);
        let trees = greedy_tree_packing(&g, &PackingParams::default(), &Meter::disabled());
        assert!(!trees.is_empty());
        for t in &trees {
            assert!(is_spanning_tree(30, t));
        }
    }

    #[test]
    fn trees_are_distinct() {
        let mut rng = StdRng::seed_from_u64(502);
        let g = generators::gnm_connected(20, 60, 5, &mut rng);
        let trees = greedy_tree_packing(&g, &PackingParams::default(), &Meter::disabled());
        let mut canon: Vec<Vec<(u32, u32)>> = trees
            .iter()
            .map(|t| {
                let mut c: Vec<(u32, u32)> =
                    t.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
                c.sort_unstable();
                c
            })
            .collect();
        let before = canon.len();
        canon.sort();
        canon.dedup();
        assert_eq!(canon.len(), before, "duplicate trees in packing");
    }

    #[test]
    fn loads_spread_over_cycle() {
        // On a cycle every spanning tree omits one edge; the greedy
        // packing must rotate the omitted edge, producing many distinct
        // trees.
        let g = generators::cycle(8, 1);
        let trees = greedy_tree_packing(&g, &PackingParams::default(), &Meter::disabled());
        assert!(trees.len() >= 4, "only {} distinct trees", trees.len());
    }

    #[test]
    fn min_cut_two_respects_some_tree() {
        // The packing guarantee (Karger): on a graph whose min cut is the
        // planted bridge pair, some packed tree crosses the cut at most
        // twice.
        let g = generators::ring_of_cliques(4, 4, 4, 1);
        // Min cut = 2 bridges of weight 1.
        let trees = greedy_tree_packing(&g, &PackingParams::default(), &Meter::disabled());
        // The optimal partition: one clique (vertices 0..4) vs the rest?
        // No: ring of 4 cliques, min cut splits the ring in two arcs; one
        // valid optimum: cliques {0,1} vs {2,3} -> vertices 0..8.
        let side: Vec<bool> = (0..16).map(|v| v < 8).collect();
        let crossings_ok = trees.iter().any(|t| {
            let crossing =
                t.iter().filter(|&&(u, v)| side[u as usize] != side[v as usize]).count();
            crossing <= 2
        });
        assert!(crossings_ok, "no packed tree 2-respects the optimal cut");
    }

    #[test]
    fn iteration_count_scales() {
        let p = PackingParams::default();
        assert!(p.iterations(16) >= 12);
        assert!(p.iterations(1 << 16) <= 4000);
        assert!(p.iterations(1024) >= p.iterations(16));
    }

    #[test]
    #[should_panic]
    fn disconnected_input_rejected() {
        let g = pmc_graph::Graph::from_edges(4, [(0, 1, 1), (2, 3, 1)]);
        greedy_tree_packing(&g, &PackingParams::default(), &Meter::disabled());
    }
}
