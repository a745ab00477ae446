//! The workloads: their generated inputs, the timed set-up, and the
//! cut-query batches served against each graph's spanning tree.

use crate::timed;
use pmc_bench::workloads;
use pmc_graph::graph::cut_of_partition;
use pmc_graph::{generators, io, Graph};
use pmc_mincut::{ExactParams, GraphContext, TreeContext, TwoRespectParams};
use pmc_parallel::spanning_forest::spanning_forest;
use pmc_parallel::Meter;
use pmc_tree::RootedTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const NAMES: [&str; 2] = ["nearclique-150", "powerlaw-800"];

/// Pairs per served cut-query batch.
pub const BATCH: usize = 4096;
/// Distinct pairs in the hot set that half of every batch draws from.
const HOT_PAIRS: usize = 64;

#[derive(Clone, Copy)]
pub enum Workload {
    NearClique150,
    PowerLaw800,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "nearclique-150" => Some(Workload::NearClique150),
            "powerlaw-800" => Some(Workload::PowerLaw800),
            _ => None,
        }
    }

    /// The generated input, as the program receives it: graph text.
    ///
    /// Each workload is one fixed graph (generator seed 1). The run seed
    /// shuffles the order of its edge lines and flips their orientation,
    /// so every seed is a different text of the same graph, which
    /// `GraphContext::build` canonicalizes; the seed's other use is the
    /// skeleton sampling seed of [`solve_params`]. Other generator seeds,
    /// or relabelled vertices, change the work itself: power-law solves
    /// range over 3× between them, and the seed-to-seed spread would
    /// measure the graphs rather than the program.
    pub fn input(self, seed: u64) -> String {
        let g = match self {
            // Weights up to 48 keep δ (2699) far above the sampling
            // threshold c·ln n/ε² ≈ 541 at this size, so the skeleton
            // really samples (p ≈ 0.51).
            Workload::NearClique150 => {
                generators::near_clique(150, 0.15, 48, &mut StdRng::seed_from_u64(GRAPH_SEED))
            }
            Workload::PowerLaw800 => workloads::power_law(800, GRAPH_SEED).graph,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges: Vec<(u32, u32, u64)> = g
            .edges()
            .iter()
            .map(|e| {
                if rng.random_range(0..2u32) == 0 {
                    (e.u, e.v, e.w)
                } else {
                    (e.v, e.u, e.w)
                }
            })
            .collect();
        shuffle(&mut edges, &mut rng);
        io::write_graph(&Graph::from_edges(g.n(), edges))
    }
}

/// The solver's parameters: `ExactParams::default()` with the skeleton
/// sampling seed drawn from the run seed, so each seed checks the oracle
/// against other random choices on the same graph.
pub fn solve_params(seed: u64) -> ExactParams {
    ExactParams {
        seed: StdRng::seed_from_u64(seed ^ 0x5CE1_E7A1).random(),
        ..ExactParams::default()
    }
}

/// Generator seed of every workload graph.
const GRAPH_SEED: u64 = 1;

/// Fisher–Yates.
fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.random_range(0..=i));
    }
}

/// The phases of one set-up, in seconds.
pub struct SetupTimes {
    pub parse_s: f64,
    pub graph_build_s: f64,
    pub serve_tree_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.parse_s + self.graph_build_s + self.serve_tree_s
    }
}

/// Parse the text and build the graph-lifetime context.
pub fn build_graph(text: &str) -> (GraphContext<'static>, f64, f64) {
    let meter = Meter::disabled();
    let (g, parse_s) = timed(|| io::parse_graph(text).expect("generated text parses"));
    let (ctx, build_s) = timed(|| GraphContext::build(&g, &meter));
    (ctx, parse_s, build_s)
}

/// The serving context: the spanning tree `workloads::graph_with_tree`
/// would pick, with every per-tree structure built.
pub fn build_serve_tree(g: &Graph) -> (TreeContext<'_>, f64) {
    timed(|| {
        let meter = Meter::disabled();
        let edges: Vec<(u32, u32)> = spanning_forest(g, &meter)
            .iter()
            .map(|&i| {
                let e = g.edge(i as usize);
                (e.u, e.v)
            })
            .collect();
        TreeContext::from_edges(g, &edges, 0, &TwoRespectParams::default(), &meter)
    })
}

/// `reps` complete set-ups, each timed and dropped.
pub fn time_setups(text: &str, reps: usize) -> Vec<SetupTimes> {
    (0..reps)
        .map(|_| {
            let (ctx, parse_s, graph_build_s) = build_graph(text);
            let (_tc, serve_tree_s) = build_serve_tree(ctx.graph());
            SetupTimes {
                parse_s,
                graph_build_s,
                serve_tree_s,
            }
        })
        .collect()
}

/// Value of the cut whose one side is `side`, evaluated in `g`.
pub fn side_value(g: &Graph, side: &[u32]) -> u64 {
    let mut mask = vec![false; g.n()];
    for &v in side {
        mask[v as usize] = true;
    }
    cut_of_partition(g, &mask)
}

/// Random tree edges (named by their lower endpoint, never the root).
pub struct EdgeSampler {
    rng: StdRng,
    n: u32,
    root: u32,
}

impl EdgeSampler {
    pub fn new(tree: &RootedTree, seed: u64) -> Self {
        EdgeSampler {
            rng: StdRng::seed_from_u64(seed),
            n: tree.n() as u32,
            root: tree.root(),
        }
    }

    pub fn edge(&mut self) -> u32 {
        loop {
            let v = self.rng.random_range(0..self.n);
            if v != self.root {
                return v;
            }
        }
    }
}

/// Cut-query batches: half from a fixed hot set (so the batch kernel's
/// duplicate grouping has work), half uniform over tree-edge pairs.
pub struct PairGen {
    edges: EdgeSampler,
    hot: Vec<(u32, u32)>,
}

impl PairGen {
    pub fn new(tree: &RootedTree, seed: u64) -> Self {
        let mut edges = EdgeSampler::new(tree, seed ^ 0x5EED_BA7C);
        let hot = (0..HOT_PAIRS)
            .map(|_| (edges.edge(), edges.edge()))
            .collect();
        PairGen { edges, hot }
    }

    pub fn fill(&mut self, out: &mut Vec<(u32, u32)>) {
        out.clear();
        for _ in 0..BATCH / 2 {
            let k = self.edges.rng.random_range(0..HOT_PAIRS);
            out.push(self.hot[k]);
        }
        for _ in 0..BATCH / 2 {
            let pair = (self.edges.edge(), self.edges.edge());
            out.push(pair);
        }
    }
}

/// Oracle for one served batch: every value is a real cut, so none is
/// below the minimum cut `lambda`; and one hot and one uniform pair are
/// re-evaluated through `CutQuery::cut_side` and `cut_of_partition`.
pub fn batch_ok(tc: &TreeContext<'_>, pairs: &[(u32, u32)], values: &[u64], lambda: u64) -> bool {
    values.len() == pairs.len()
        && values.iter().all(|&v| v >= lambda)
        && [0, BATCH / 2].iter().all(|&i| {
            let (e, f) = pairs[i];
            side_value(tc.graph(), &tc.cut_query().cut_side(e, f)) == values[i]
        })
}
