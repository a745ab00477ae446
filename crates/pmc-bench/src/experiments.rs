//! Experiment runners (one per DESIGN.md experiment id).

use crate::table::{fmt_count, Table};
use crate::workloads;
use pmc_graph::{stoer_wagner_mincut, Graph};
use pmc_mincut::exact::exact_mincut_metered;
use pmc_mincut::{
    approx_mincut, approx_mincut_eps, exact_mincut, exact_mincut_in, greedy_tree_packing,
    naive_two_respecting, two_respecting_mincut, ApproxParams, ExactParams, GraphContext,
    PackingParams, TwoRespectParams,
};
use pmc_parallel::meter::{CostKind, Meter};
use pmc_range::{Point2, RangeTree2D};
use pmc_tree::{LcaEngine, LcaStrategy, RootedTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn lg(n: usize) -> f64 {
    (n.max(2) as f64).log2()
}

/// T1 — Table 1: measured work of this paper's algorithm against the
/// measured "inspect everything" baseline (the work profile of the
/// pre-interest-filter era, standing in for GG18) and the analytic
/// curves of the three table rows.
pub fn run_table1(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new([
        "n",
        "m",
        "trees",
        "ours ops",
        "ours/(m·lg n)",
        "naive ops (est)",
        "naive/(m·lg⁴n)",
        "naive/ours",
    ]);
    for &n in sizes {
        let w = workloads::non_sparse(n, seed);
        let g = w.graph;
        let meter = Meter::enabled();
        let res = exact_mincut_metered(&g, &ExactParams::default(), &meter);
        let ours = meter.report().total_work();

        // Naive per-tree cost, measured on one spanning tree and scaled
        // by the tree count (the naive solver is identical per tree).
        let (gg, tree_edges) = workloads::graph_with_tree(n, 0.5, seed ^ 0x77);
        let tree = RootedTree::from_edge_list(gg.n(), &tree_edges, 0);
        let meter2 = Meter::enabled();
        let nv = naive_two_respecting(&gg, &tree, 0.25, &meter2);
        assert!(nv.cut.value > 0);
        let naive_est = meter2.report().total_work() * res.stats.num_trees.max(1) as u64;

        let m = g.m() as f64;
        let mlgn = m * lg(n);
        let mlg4n = m * lg(n).powi(4);
        t.row([
            n.to_string(),
            g.m().to_string(),
            res.stats.num_trees.to_string(),
            fmt_count(ours),
            format!("{:.2}", ours as f64 / mlgn),
            fmt_count(naive_est),
            format!("{:.2}", naive_est as f64 / mlg4n),
            format!("{:.1}x", naive_est as f64 / ours as f64),
        ]);
    }
    t
}

/// E-4.2 — Theorem 4.2 scaling: work of one 2-respecting solve against
/// `m log m + n log^3 n`.
pub fn run_two_respect_scaling(sizes: &[usize], density: f64, seed: u64) -> Table {
    let mut t = Table::new([
        "n",
        "m",
        "cut queries",
        "total ops",
        "ops/(m·lg m + n·lg³n)",
        "wall ms",
    ]);
    for &n in sizes {
        let (g, tree_edges) = workloads::graph_with_tree(n, density, seed);
        let tree = RootedTree::from_edge_list(g.n(), &tree_edges, 0);
        let meter = Meter::enabled();
        let t0 = Instant::now();
        let out = two_respecting_mincut(&g, &tree, &TwoRespectParams::default(), &meter);
        let wall = t0.elapsed();
        assert!(out.cut.value > 0);
        let rep = meter.report();
        let m = g.m() as f64;
        let bound = m * (m.max(2.0)).log2() + n as f64 * lg(n).powi(3);
        t.row([
            n.to_string(),
            g.m().to_string(),
            fmt_count(rep.work_of(CostKind::CutQuery)),
            fmt_count(rep.total_work()),
            format!("{:.3}", rep.total_work() as f64 / bound),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
        ]);
    }
    t
}

/// E-3.1 — Theorem 3.1 quality: the constant-factor estimate and the
/// `(1±ε)` refinement against the true minimum cut.
pub fn run_approx_quality(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new([
        "workload",
        "true λ",
        "approx λ̂",
        "λ̂/λ",
        "(1±¼) λ̂",
        "refined/λ",
        "matula(2.25)/λ",
    ]);
    for &n in sizes {
        for w in [workloads::heavy(n, seed), workloads::planted(n, 4, seed)] {
            let g = w.graph;
            let truth = if g.n() <= 700 {
                stoer_wagner_mincut(&g).value
            } else {
                exact_mincut(&g, &ExactParams::default()).cut.value
            };
            let params = ApproxParams::default();
            let a = approx_mincut(&g, &params, &Meter::disabled());
            let refined = approx_mincut_eps(&g, 0.25, &params, seed ^ 5, &Meter::disabled());
            let matula = pmc_graph::matula_approx(&g, 0.25);
            t.row([
                w.name.clone(),
                truth.to_string(),
                a.lambda.to_string(),
                format!("{:.3}", a.lambda as f64 / truth as f64),
                refined.to_string(),
                format!("{:.3}", refined as f64 / truth as f64),
                format!("{:.3}", matula as f64 / truth as f64),
            ]);
        }
    }
    t
}

/// E-4.24/25 + E-4.26 — the ε knob: range-structure work profile and
/// end-to-end effect on one 2-respecting solve, dense vs sparse. Every
/// ε's solve must return the all-pairs oracle's value on the same tree
/// (asserted), so each range-tree degree the sweep visits is checked
/// end to end; `total ops` and `wall ms` are that solve's.
///
/// A dense grid's `CutQuery` answers from a prefix table, whatever ε,
/// so `build ops` and `query ops` come from Lemma 4.25's tree built
/// directly on the tree's grid points at that ε. Its queries are the
/// rectangles of as many pseudo-random `cov(e, f)` pairs as the solve
/// made cut queries, each checked against `CutQuery::cov2`.
pub fn run_eps_sweep(n: usize, eps_values: &[f64], seed: u64) -> Table {
    let mut t = Table::new([
        "regime",
        "eps",
        "build ops",
        "query ops",
        "total ops",
        "wall ms",
    ]);
    for (regime, density) in [("dense", 0.8), ("sparse", 0.15)] {
        let (g, tree_edges) = workloads::graph_with_tree(n, density, seed);
        let tree = std::sync::Arc::new(RootedTree::from_edge_list(g.n(), &tree_edges, 0));
        let oracle = naive_two_respecting(&g, &tree, 0.25, &Meter::disabled()).cut.value;
        let lca = LcaEngine::build(&tree, LcaStrategy::default(), &Meter::disabled());
        let q = pmc_mincut::CutQuery::build(&g, &tree, &lca, 0.25, &Meter::disabled());
        let points: Vec<Point2> = g
            .edges()
            .iter()
            .flat_map(|e| {
                let (x, y) = (tree.post(e.u), tree.post(e.v));
                [Point2 { x, y, w: e.w }, Point2 { x: y, y: x, w: e.w }]
            })
            .collect();
        for &eps in eps_values {
            let params = TwoRespectParams { eps, ..TwoRespectParams::default() };
            let meter = Meter::enabled();
            let t0 = Instant::now();
            let out = two_respecting_mincut(&g, &tree, &params, &meter);
            let wall = t0.elapsed();
            assert_eq!(
                out.cut.value, oracle,
                "{regime} n = {n}, eps = {eps}: differs from the all-pairs oracle"
            );
            let rep = meter.report();

            let build_meter = Meter::enabled();
            let range = RangeTree2D::build(points.clone(), n, eps, &build_meter);
            let query_meter = Meter::enabled();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..rep.work_of(CostKind::CutQuery) {
                let (e, f) = loop {
                    let (e, f) = (rng.random_range(0..n as u32), rng.random_range(0..n as u32));
                    if e != f && e != tree.root() && f != tree.root() {
                        break (e, f);
                    }
                };
                let sum = range.sum_rects(&q.cov2_rects(e, f), &query_meter);
                assert_eq!(sum, q.cov2(e, f, &Meter::disabled()), "{regime} eps = {eps} ({e},{f})");
            }
            t.row([
                regime.to_string(),
                format!("{eps:.2}"),
                fmt_count(build_meter.get(CostKind::RangeNode)),
                fmt_count(query_meter.get(CostKind::RangeNode)),
                fmt_count(rep.total_work()),
                format!("{:.1}", wall.as_secs_f64() * 1e3),
            ]);
        }
    }
    t
}

/// E-depth — Brent-based depth estimate: `T_p = W/p + D` measured at
/// `p = 1` and `p = max` gives `D ≈ (p·T_p − T_1)/(p − 1)`; the theorem
/// predicts `D = O(log^3 n)`, so `D̂ / lg³ n` should flatten.
pub fn run_depth_scaling(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new(["n", "m", "T1 ms", "Tp ms", "p", "D̂ ms", "D̂/lg³n (µs)"]);
    let p = rayon::current_num_threads().max(2);
    for &n in sizes {
        let w = workloads::non_sparse(n, seed);
        let g = w.graph;
        let run = |threads: usize| timed_exact(&g, threads).0;
        // Warm up, then take the best of 2 to damp noise.
        let t1 = run(1).min(run(1));
        let tp = run(p).min(run(p));
        let d_hat = ((p as f64 * tp - t1) / (p as f64 - 1.0)).max(0.0);
        t.row([
            n.to_string(),
            g.m().to_string(),
            format!("{t1:.1}"),
            format!("{tp:.1}"),
            p.to_string(),
            format!("{d_hat:.1}"),
            format!("{:.1}", d_hat * 1e3 / lg(n).powi(3)),
        ]);
    }
    t
}

/// E-depth (structural) — the critical-path gauges the meter records
/// during one exact run: packing iterations (`O(log² n)`), Matula's
/// contraction rounds for λ̃ (sequential, one `O(m)` scan each),
/// range-tree height (`⌈log_d n⌉ + 1 = O(1/ε)`; 1 on a prefix table),
/// the deepest packed-tree height, and the engine's construction
/// critical paths.
/// These are the quantities the depth theorems bound, reported directly
/// rather than via Brent inversion, so they read the same on any core
/// count.
pub fn run_gauges(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new([
        "n",
        "lg²n",
        "packing iters",
        "λ̃ rounds",
        "range height",
        "tree height",
        "graph build",
        "tree build",
    ]);
    for &n in sizes {
        let w = workloads::non_sparse(n, seed);
        let meter = Meter::enabled();
        let r = exact_mincut_metered(&w.graph, &ExactParams::default(), &meter);
        assert!(r.cut.value > 0);
        let rep = meter.report();
        let get = |k: &str| rep.depth.get(k).copied().unwrap_or(0).to_string();
        t.row([
            n.to_string(),
            format!("{:.0}", lg(n) * lg(n)),
            get("packing:iterations"),
            get("exact:lambda_rounds"),
            get("cutquery:range_height"),
            get("two_respect:tree_height"),
            get("engine:graph_build"),
            get("engine:tree_build"),
        ]);
    }
    t
}

/// One grid point of [`run_whp`], summed over its seeds.
#[derive(Debug, Clone, Default)]
pub struct WhpCount {
    /// Answers that differ from Stoer–Wagner.
    pub misses: u64,
    /// Solves whose skeleton kept `p < 1` after retries.
    pub sampled: u64,
    trees: usize,
    p_max: f64,
    secs: f64,
}

/// E-whp — the pipeline's "with high probability" claim measured as a
/// failure count. Seed `s` in `0..seeds` solves `graph(s)` under
/// skeleton-sampling seed `s`, once per `(iterations_factor,
/// trees_factor)` in `grid`, and checks the answer against
/// Stoer–Wagner. A fixed graph whose skeleton samples tests the
/// sampling; generated graphs whose skeleton keeps every edge test the
/// packed trees alone. 'λ < δ' counts the graphs whose answer must come
/// from a packed tree rather than the min-degree fallback. Returns the
/// table and one count per grid point.
pub fn run_whp(
    graph: impl Fn(u64) -> Graph,
    seeds: u64,
    grid: &[(f64, f64)],
) -> (Table, Vec<WhpCount>) {
    let mut counts = vec![WhpCount::default(); grid.len()];
    let (mut n, mut m_max, mut from_tree) = (0, 0, 0);
    for seed in 0..seeds {
        let g = graph(seed);
        let lambda = stoer_wagner_mincut(&g).value;
        (n, m_max) = (g.n(), m_max.max(g.m()));
        from_tree += u64::from(lambda < g.min_weighted_degree());
        let ctx = GraphContext::build(&g, &Meter::disabled());
        for (&(iterations_factor, trees_factor), c) in grid.iter().zip(&mut counts) {
            let packing = PackingParams { iterations_factor, trees_factor, ..PackingParams::default() };
            let params = ExactParams { seed, packing, ..ExactParams::default() };
            let t0 = Instant::now();
            let r = exact_mincut_in(&ctx, &params, &Meter::disabled());
            c.secs += t0.elapsed().as_secs_f64();
            c.misses += u64::from(r.cut.value != lambda);
            c.sampled += u64::from(r.stats.skeleton_p < 1.0);
            c.trees += r.stats.num_trees;
            c.p_max = c.p_max.max(r.stats.skeleton_p);
        }
    }
    let mut t = Table::new([
        "n", "m (max)", "λ < δ", "iter factor", "trees factor", "trees (mean)", "p (max)", "seeds",
        "sampled", "misses", "ms/solve",
    ]);
    let runs = seeds.max(1) as f64;
    for (&(iterations_factor, trees_factor), c) in grid.iter().zip(&counts) {
        t.row([
            n.to_string(),
            m_max.to_string(),
            from_tree.to_string(),
            iterations_factor.to_string(),
            trees_factor.to_string(),
            format!("{:.1}", c.trees as f64 / runs),
            format!("{:.3}", c.p_max),
            seeds.to_string(),
            c.sampled.to_string(),
            c.misses.to_string(),
            format!("{:.0}", c.secs * 1e3 / runs),
        ]);
    }
    (t, counts)
}

/// One timed run of the exact pipeline under a `p`-thread pool.
/// Returns `(wall ms, cut value)`.
fn timed_exact(g: &Graph, p: usize) -> (f64, u64) {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(p).build().expect("pool");
    pool.install(|| {
        let t0 = Instant::now();
        let r = exact_mincut(g, &ExactParams::default());
        assert!(r.cut.value > 0);
        (t0.elapsed().as_secs_f64() * 1e3, r.cut.value)
    })
}

/// E-speedup smoke probe: best-of-three `T_1` and `T_p` on the given
/// workload (minimum over repeats damps shared-runner noise, which a
/// single sample would turn into a flaky CI gate), with the cut-value
/// agreement check. Returns `(t1 ms, tp ms)`.
pub fn measure_speedup_workload(w: &workloads::Workload, p: usize) -> (f64, f64) {
    const SAMPLES: usize = 3;
    let g = &w.graph;
    let best = |threads: usize| -> (f64, u64) {
        let mut wall = f64::INFINITY;
        let mut value = None;
        for _ in 0..SAMPLES {
            let (w_ms, v) = timed_exact(g, threads);
            assert_eq!(
                *value.get_or_insert(v),
                v,
                "exact_mincut value unstable at p={threads}"
            );
            wall = wall.min(w_ms);
        }
        // INVARIANT: SAMPLES >= 1, so the loop above set `value`.
        (wall, value.expect("at least one sample ran"))
    };
    let (t1, v1) = best(1);
    let (tp, vp) = best(p);
    assert_eq!(v1, vp, "exact_mincut value must not depend on the thread count");
    (t1, tp)
}

/// The substrate gauge the E-ablate `--smoke` gate reads: the default
/// solve's metered `LcaStep` charges (one per sparse-table query — the
/// O(1) evidence), and what binary lifting would charge for the same
/// stream, one query per graph edge at `levels()` steps each (so it
/// grows with depth).
#[derive(Debug, Clone)]
pub struct AblationSummary {
    pub sparse_lca_steps: u64,
    pub lifting_lca_steps: u64,
}

/// E-ablate — design ablations on one fixed workload: the default
/// solve, ε, and the no-filter baseline. Every variant must agree with
/// the all-pairs oracle. The `interest qs` column isolates the
/// cut/coverage queries the arm tracing issues — the quantity Claim
/// 4.13 bounds. The LCA substrate is compared off the table: the
/// coverage pass's query stream is replayed on the lifting table, whose
/// every answer must equal the sparse table's.
pub fn run_ablation(n: usize, seed: u64) -> (Table, AblationSummary) {
    let (g, tree_edges) = workloads::graph_with_tree(n, 0.5, seed);
    let tree = RootedTree::from_edge_list(g.n(), &tree_edges, 0);
    let mut t = Table::new([
        "variant",
        "cut queries",
        "interest qs",
        "monge entries",
        "lca steps",
        "total ops",
        "wall ms",
    ]);
    let reference = naive_value(&g, &tree);
    // Per variant: the metered LCA steps.
    let mut run = |name: &str, params: TwoRespectParams| -> u64 {
        let meter = Meter::enabled();
        let t0 = Instant::now();
        let out = two_respecting_mincut(&g, &tree, &params, &meter);
        let wall = t0.elapsed();
        assert_eq!(out.cut.value, reference, "{name} disagrees with the oracle");
        let rep = meter.report();
        t.row([
            name.to_string(),
            fmt_count(rep.work_of(CostKind::CutQuery)),
            fmt_count(rep.work_of(CostKind::InterestQuery)),
            fmt_count(rep.work_of(CostKind::MongeEntry)),
            fmt_count(rep.work_of(CostKind::LcaStep)),
            fmt_count(rep.total_work()),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
        ]);
        rep.work_of(CostKind::LcaStep)
    };
    let sparse_lca_steps =
        run("centroid + SMAWK + sparse LCA (default)", TwoRespectParams::default());
    run("eps = 0.10", TwoRespectParams { eps: 0.10, ..TwoRespectParams::default() });
    run("eps = 0.75", TwoRespectParams { eps: 0.75, ..TwoRespectParams::default() });
    // The no-structure baseline.
    {
        let meter = Meter::enabled();
        let t0 = Instant::now();
        let out = naive_two_respecting(&g, &tree, 0.25, &meter);
        let wall = t0.elapsed();
        assert_eq!(out.cut.value, reference);
        let rep = meter.report();
        t.row([
            "naive all-pairs (no filter)".to_string(),
            fmt_count(rep.work_of(CostKind::CutQuery)),
            fmt_count(rep.work_of(CostKind::InterestQuery)),
            fmt_count(rep.work_of(CostKind::MongeEntry)),
            fmt_count(rep.work_of(CostKind::LcaStep)),
            fmt_count(rep.total_work()),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
        ]);
    }
    // The coverage pass's stream, one LCA per graph edge, on lifting.
    let lca = LcaEngine::build(&tree, LcaStrategy::default(), &Meter::disabled());
    for e in g.edges() {
        assert_eq!(lca.table().lca(e.u, e.v), lca.lca(e.u, e.v), "lifting LCA disagrees");
    }
    let lifting_lca_steps = g.m() as u64 * lca.table().levels() as u64;
    (t, AblationSummary { sparse_lca_steps, lifting_lca_steps })
}

fn naive_value(g: &Graph, tree: &RootedTree) -> u64 {
    naive_two_respecting(g, tree, 0.25, &Meter::disabled()).cut.value
}

/// E-4.18 — packing statistics on planted-cut workloads: tree counts and
/// whether the packing contains a tree that 2-respects the optimum.
pub fn run_packing_stats(sizes: &[usize], seed: u64) -> Table {
    let mut t = Table::new([
        "workload",
        "iterations",
        "distinct trees",
        "2-respecting trees",
        "min crossings",
    ]);
    for &n in sizes {
        let w = workloads::planted(n, 4, seed);
        let g = w.graph;
        let packing = PackingParams::default();
        let trees = greedy_tree_packing(&g.coalesced(), &packing, &Meter::disabled());
        // The planted optimum: first half vs second half.
        let half = g.n() / 2;
        let crossings: Vec<usize> = trees
            .iter()
            .map(|tr| {
                tr.iter()
                    .filter(|&&(u, v)| ((u as usize) < half) != ((v as usize) < half))
                    .count()
            })
            .collect();
        let two_respecting = crossings.iter().filter(|&&c| c <= 2).count();
        t.row([
            w.name.clone(),
            packing.iterations(g.n()).to_string(),
            trees.len().to_string(),
            two_respecting.to_string(),
            crossings.iter().min().unwrap_or(&0).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_runs_small() {
        let t = run_table1(&[48, 64], 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn two_respect_scaling_runs() {
        let t = run_two_respect_scaling(&[64], 0.5, 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn approx_quality_runs() {
        let t = run_approx_quality(&[20], 3);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn eps_sweep_runs() {
        let t = run_eps_sweep(64, &[0.2, 0.8], 4);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn gauges_runs() {
        let t = run_gauges(&[64], 8);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ablation_runs_and_agrees() {
        // The oracle-agreement asserts live inside run_ablation.
        let (t, summary) = run_ablation(48, 5);
        assert_eq!(t.len(), 4);
        // The sparse table's one-step queries cost strictly fewer LCA
        // steps than lifting's levels()-per-query on the same stream.
        assert!(summary.sparse_lca_steps > 0);
        assert!(summary.sparse_lca_steps < summary.lifting_lca_steps);
    }

    #[test]
    fn packing_stats_runs() {
        let t = run_packing_stats(&[32], 6);
        assert_eq!(t.len(), 1);
    }
}
