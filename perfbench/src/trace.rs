//! `--trace 1`: the per-layer metrics, measured from outside the program.
//!
//! The run re-composes `exact_mincut_deadline_in` from the public calls
//! it makes — `approx_mincut_in`; `skeleton_probability` and `skeleton`
//! with the retry loop; `k_certificate`; `greedy_tree_packing`; then
//! `TreeContext::from_edges` and `solve` per tree — and times each call.
//! The composed cut must equal the untraced answer, and the distance
//! between the untraced solve time and the composed top-level spans is
//! reported as `trace.unaccounted_s`, so drift between this composition
//! and the program, in either direction, shows as a number. Sub-build
//! and kernel timings come from extra calls made alongside the real
//! ones, never inside them. Work counts come from metered solves on a
//! 1- and a 2-thread pool.

use crate::workload::{build_graph, solve_params, time_setups, EdgeSampler, Workload};
use crate::{median, note_graph, pool, timed, Report, POOL_THREADS};
use pmc_graph::{stoer_wagner_mincut, Graph};
use pmc_mincut::cutquery::CutQuery;
use pmc_mincut::{
    approx_mincut_in, exact_mincut_in, greedy_tree_packing, mincut_small_in, ApproxParams,
    ExactParams, GraphContext, InterestEngine, TreeContext, TwoRespectParams,
};
use pmc_monge::smawk_row_minima;
use pmc_parallel::sort::radix_sort_lsd;
use pmc_parallel::{CostKind, Meter};
use pmc_range::{Point2, RangeTree2D};
use pmc_sparsify::{
    k_certificate, skeleton, skeleton_probability, CertificateHierarchy, ExclusiveHierarchy,
};
use pmc_tree::{LcaEngine, PathDecomposition, RootedTree};
use rayon::prelude::*;
use rayon::ThreadPool;
use std::hint::black_box;
use std::sync::Arc;

/// Complete set-ups timed for the set-up layers; the median is reported.
const SETUP_REPS: usize = 15;
/// Untraced solves whose median `trace.unaccounted_s` compares against.
const UNTRACED_REPS: usize = 3;
/// Each kernel is repeated until this much time is spent; the median
/// repetition is reported.
const KERNEL_MIN_S: f64 = 0.1;
/// Rectangles per kernel repetition, and per fused `sum_rects` call.
const RECTS: usize = 4096;
const RECT_CHUNK: usize = 64;

/// The work counters reported as `ops.<name>`.
const OPS: [CostKind; 9] = [
    CostKind::CutQuery,
    CostKind::RangeNode,
    CostKind::MongeEntry,
    CostKind::LcaStep,
    CostKind::InterestQuery,
    CostKind::MstEdge,
    CostKind::ForestEdge,
    CostKind::Sample,
    CostKind::TreeOp,
];

pub fn run(w: Workload, seed: u64) -> Report {
    let mut rep = Report::default();
    let text = w.input(seed);
    let pool2 = pool(POOL_THREADS);
    let pool1 = pool(1);
    let setups = pool2.install(|| time_setups(&text, SETUP_REPS));
    rep.metric(
        "io.parse_s",
        median(&setups.iter().map(|s| s.parse_s).collect::<Vec<_>>()),
        "s",
    );
    rep.metric(
        "engine.graph_build_s",
        median(&setups.iter().map(|s| s.graph_build_s).collect::<Vec<_>>()),
        "s",
    );
    rep.metric(
        "engine.serve_tree_s",
        median(&setups.iter().map(|s| s.serve_tree_s).collect::<Vec<_>>()),
        "s",
    );

    let (ctx, _, _) = pool2.install(|| build_graph(&text));
    let g = ctx.graph();
    let lambda = stoer_wagner_mincut(g).value;
    let params = solve_params(seed);
    let (mut untraced_s, mut untraced) = (vec![], 0);
    for _ in 0..UNTRACED_REPS {
        let (r, s) = timed(|| pool2.install(|| exact_mincut_in(&ctx, &params, &Meter::disabled())));
        rep.check(r.cut.value == lambda, || {
            format!("untraced solve {} vs Stoer–Wagner {lambda}", r.cut.value)
        });
        untraced_s.push(s);
        untraced = r.cut.value;
    }
    let solve_s = median(&untraced_s);

    let composed = pool2.install(|| compose(&ctx, &params, &mut rep));
    rep.check(composed.value == untraced, || {
        format!("composed cut {} vs untraced {untraced}", composed.value)
    });
    rep.metric(
        "trace.unaccounted_s",
        (solve_s - composed.top_level_s).abs(),
        "s",
    );

    let tr = tree_params(&params);
    pool2.install(|| approx_parts(g, &params.approx, &mut rep));
    pool2.install(|| tree_parts(g, &composed.trees, &tr, &mut rep));
    let first = composed
        .trees
        .first()
        .expect("the packing yields at least one tree");
    pool2.install(|| kernels(g, first, &tr, seed, &mut rep));
    work_counts(&ctx, &params, lambda, [&pool1, &pool2], &mut rep);
    let quarantined = rayon::pool_diagnostics().workers_quarantined;
    rep.check(quarantined == 0, || {
        format!("{quarantined} pool workers quarantined")
    });

    note_graph(&mut rep, &ctx, lambda);
    rep.note("untraced_solve_s", solve_s);
    rep.note("composed_s", composed.top_level_s);
    rep
}

/// The per-tree parameters exactly as the pipeline derives them.
fn tree_params(params: &ExactParams) -> TwoRespectParams {
    TwoRespectParams {
        interest_strategy: params.interest_strategy,
        ..params.two_respect
    }
}

struct Composed {
    value: u64,
    trees: Vec<Vec<(u32, u32)>>,
    /// approx + skeleton + certificate + packing + Phase 5 wall time.
    top_level_s: f64,
}

/// Phases 1–5 through the pipeline's own public calls, each timed.
fn compose(ctx: &GraphContext<'_>, params: &ExactParams, rep: &mut Report) -> Composed {
    let meter = Meter::disabled();
    let gc = ctx.graph();
    let n = gc.n();

    let (a, approx_s) = timed(|| approx_mincut_in(ctx, &params.approx, &meter));
    let lambda_est = (a.lambda / 2).max(1);

    let eps = params.skeleton_eps;
    let cap = (8.0 * (params.skeleton_c * (n.max(2) as f64).ln() / (eps * eps)).ceil()) as u64;
    let ((p, h), skeleton_s) = timed(|| {
        let mut p = skeleton_probability(n, eps, lambda_est, params.skeleton_c);
        let mut h = skeleton(gc, p, cap, params.seed, &meter);
        let mut retries = 0;
        while !h.is_connected() && p < 1.0 {
            p = (p * 2.0).min(1.0);
            retries += 1;
            h = skeleton(gc, p, cap, params.seed.wrapping_add(retries), &meter);
        }
        (p, h)
    });
    let (hc, certificate_s) = timed(|| k_certificate(&h, 2 * cap, &meter));
    let (trees, packing_s) = timed(|| greedy_tree_packing(&hc, &params.packing, &meter));

    let tr = tree_params(params);
    let (per_tree, wall_s) = timed(|| {
        trees
            .par_iter()
            .map(|edges| {
                let (tc, build_s) = timed(|| TreeContext::from_edges(gc, edges, 0, &tr, &meter));
                let (out, solve_s) = timed(|| tc.solve(&meter));
                (out.cut.value, build_s, solve_s)
            })
            .collect::<Vec<_>>()
    });
    let value = per_tree
        .iter()
        .map(|t| t.0)
        .fold(ctx.min_degree_cut().value, u64::min);
    let build: Vec<f64> = per_tree.iter().map(|t| t.1).collect();
    let solve: Vec<f64> = per_tree.iter().map(|t| t.2).collect();
    let (build_sum, solve_sum) = (build.iter().sum::<f64>(), solve.iter().sum::<f64>());

    rep.metric("approx.s", approx_s, "s");
    rep.metric("approx.layers", a.layer_values.len() as f64, "count");
    rep.metric("skeleton.s", skeleton_s, "s");
    rep.metric("skeleton.p", p, "probability");
    rep.metric("skeleton.edges", h.m() as f64, "count");
    rep.metric("certificate.s", certificate_s, "s");
    rep.metric("certificate.edges", hc.m() as f64, "count");
    rep.metric("packing.s", packing_s, "s");
    rep.metric("packing.trees", trees.len() as f64, "count");
    rep.metric("tree_build.sum_s", build_sum, "s");
    rep.metric(
        "tree_build.max_s",
        build.iter().copied().fold(0.0, f64::max),
        "s",
    );
    rep.metric("tree_solve.sum_s", solve_sum, "s");
    rep.metric(
        "tree_solve.max_s",
        solve.iter().copied().fold(0.0, f64::max),
        "s",
    );
    rep.metric("phase5.wall_s", wall_s, "s");
    rep.metric(
        "phase5.busy_ratio",
        (build_sum + solve_sum) / (wall_s * POOL_THREADS as f64),
        "ratio",
    );
    let top_level_s = approx_s + skeleton_s + certificate_s + packing_s + wall_s;
    Composed {
        value,
        trees,
        top_level_s,
    }
}

/// Phase 1's parts, rebuilt alongside the real `approx_mincut_in` call:
/// the two hierarchies, then each layer's `mincut_small_in` in turn.
fn approx_parts(g: &Graph, ap: &ApproxParams, rep: &mut Report) {
    let meter = Meter::disabled();
    let (hierarchy, hierarchy_s) = timed(|| ExclusiveHierarchy::build(g, &ap.hierarchy, &meter));
    let (certs, cert_s) =
        timed(|| CertificateHierarchy::build(g, &hierarchy, &ap.hierarchy, &meter));
    let layer_s: Vec<f64> = (0..certs.num_levels())
        .map(|i| {
            let layer = GraphContext::adopt(certs.union_graph(g, i), &meter);
            timed(|| mincut_small_in(&layer, &ap.two_respect, &ap.packing, &meter)).1
        })
        .collect();
    rep.metric("approx.hierarchy_s", hierarchy_s, "s");
    rep.metric("approx.cert_hierarchy_s", cert_s, "s");
    rep.metric("approx.layer_solves_s", layer_s.iter().sum(), "s");
    rep.metric(
        "approx.layer_max_s",
        layer_s.iter().copied().fold(0.0, f64::max),
        "s",
    );
}

/// Each packed tree's four sub-builds, rebuilt one at a time alongside
/// Phase 5 and summed over the trees.
fn tree_parts(g: &Graph, trees: &[Vec<(u32, u32)>], tr: &TwoRespectParams, rep: &mut Report) {
    let meter = Meter::disabled();
    let mut sums = [0.0f64; 4];
    for edges in trees {
        let tree = Arc::new(RootedTree::from_edge_list(g.n(), edges, 0));
        let (lca, lca_s) = timed(|| LcaEngine::build(&tree, tr.lca_strategy, &meter));
        let cut_query_s = timed(|| CutQuery::build(g, &tree, &lca, tr.eps, &meter)).1;
        let decomp_s = timed(|| PathDecomposition::build(&tree, tr.strategy, &meter)).1;
        let interest_s = timed(|| InterestEngine::build(&tree, tr.interest_strategy, &meter)).1;
        for (sum, s) in sums
            .iter_mut()
            .zip([lca_s, cut_query_s, decomp_s, interest_s])
        {
            *sum += s;
        }
    }
    for (name, s) in [
        "tree_build.lca_s",
        "tree_build.cutquery_s",
        "tree_build.decomp_s",
        "tree_build.interest_s",
    ]
    .iter()
    .zip(sums)
    {
        rep.metric(name, s, "s");
    }
}

/// Median seconds of one call of `f`, over repetitions filling
/// `KERNEL_MIN_S` (at least three), with the last call's result.
fn repeat<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let (mut samples, mut total) = (vec![], 0.0);
    loop {
        let (r, s) = timed(&mut f);
        samples.push(s);
        total += s;
        if total >= KERNEL_MIN_S && samples.len() >= 3 {
            return (black_box(r), median(&samples));
        }
    }
}

/// Kernel rates on the workload's own first packed tree and edges,
/// each checked against a second path to the same answer.
fn kernels(g: &Graph, edges: &[(u32, u32)], tr: &TwoRespectParams, seed: u64, rep: &mut Report) {
    let meter = Meter::disabled();
    let tree = RootedTree::from_edge_list(g.n(), edges, 0);
    let n = g.n();

    // The cut-query structure's 2m points under this tree's postorder,
    // probed with subtree-interval rectangles of random tree edges.
    let points: Vec<Point2> = g
        .edges()
        .iter()
        .flat_map(|e| {
            let (pu, pv) = (tree.post(e.u), tree.post(e.v));
            [
                Point2 {
                    x: pu,
                    y: pv,
                    w: e.w,
                },
                Point2 {
                    x: pv,
                    y: pu,
                    w: e.w,
                },
            ]
        })
        .collect();
    let brute = |&(x1, x2, y1, y2): &(u32, u32, u32, u32)| -> u64 {
        points
            .iter()
            .filter(|p| (x1..=x2).contains(&p.x) && (y1..=y2).contains(&p.y))
            .map(|p| p.w)
            .sum()
    };
    let range = RangeTree2D::build(points.clone(), n.max(2), tr.eps, &meter);
    let mut sampler = EdgeSampler::new(&tree, seed ^ 0x2EC7);
    let rects: Vec<(u32, u32, u32, u32)> = (0..RECTS)
        .map(|_| {
            let (e, f) = (sampler.edge(), sampler.edge());
            (tree.start(e), tree.post(e), tree.start(f), tree.post(f))
        })
        .collect();
    let (fused, fused_s) = repeat(|| {
        rects
            .chunks(RECT_CHUNK)
            .map(|c| range.sum_rects(black_box(c), &meter))
            .sum::<u64>()
    });
    let (single, single_s) = repeat(|| {
        rects
            .iter()
            .map(|&(a, b, c, d)| range.sum_rect(a, b, c, d, &meter))
            .sum::<u64>()
    });
    let spot_ok = rects
        .iter()
        .take(4)
        .all(|r| range.sum_rect(r.0, r.1, r.2, r.3, &meter) == brute(r));
    rep.check(fused == single && spot_ok, || {
        format!("range sums: fused {fused}, per-probe {single}")
    });
    rep.metric("kernel.sum_rects_ns", 1e9 * fused_s / RECTS as f64, "ns");
    rep.metric("kernel.sum_rect_ns", 1e9 * single_s / RECTS as f64, "ns");

    // LCA of every edge's endpoints, checked against binary lifting.
    let lca = LcaEngine::build(&tree, tr.lca_strategy, &meter);
    let lca_ok = g
        .edges()
        .iter()
        .take(1024)
        .all(|e| lca.lca(e.u, e.v) == lca.table().lca(e.u, e.v));
    let (_, lca_s) = repeat(|| {
        g.edges()
            .iter()
            .fold(0u64, |acc, e| acc ^ lca.lca(e.u, e.v) as u64)
    });
    rep.check(lca_ok, || {
        "sparse-table LCA disagrees with binary lifting".to_string()
    });
    rep.metric("kernel.lca_ns", 1e9 * lca_s / g.m() as f64, "ns");

    // SMAWK on the Monge matrix (x_i - y_j)^2 over this tree's sorted
    // subtree sizes and depths, checked against a full row scan.
    let mut xs: Vec<i64> = (0..n as u32).map(|v| tree.size(v) as i64).collect();
    let mut ys: Vec<i64> = (0..n as u32).map(|v| tree.depth(v) as i64).collect();
    xs.sort_unstable();
    ys.sort_unstable();
    let entry = |i: usize, j: usize| (xs[i] - ys[j]).pow(2) as u64;
    let counted = Meter::enabled();
    let minima = smawk_row_minima(n, n, entry, &counted);
    let smawk_ok = minima
        .iter()
        .enumerate()
        .all(|(i, m)| (0..n).map(|j| entry(i, j)).min() == Some(m.value));
    let (_, smawk_s) = repeat(|| smawk_row_minima(n, n, entry, &meter));
    rep.check(smawk_ok, || {
        "SMAWK row minima disagree with a full scan".to_string()
    });
    rep.metric(
        "kernel.smawk_ns_per_entry",
        1e9 * smawk_s / counted.get(CostKind::MongeEntry) as f64,
        "ns",
    );

    // Stable LSD radix sort of the m packed (post(u), post(v)) keys.
    let keys: Vec<u64> = g
        .edges()
        .iter()
        .map(|e| (u64::from(tree.post(e.u)) << 32) | u64::from(tree.post(e.v)))
        .collect();
    let (sorted, radix_s) = repeat(|| {
        let mut v = keys.clone();
        radix_sort_lsd(&mut v, |&k| k);
        v
    });
    let mut expect = keys.clone();
    expect.sort_unstable();
    rep.check(sorted == expect, || {
        "radix sort output is not sorted".to_string()
    });
    rep.metric(
        "kernel.radix_ns_per_key",
        1e9 * radix_s / keys.len() as f64,
        "ns",
    );
}

/// Work counts of one metered solve per pool. The 1-thread counts are
/// reported (a sequential run repeats exactly); the record line names
/// the counters that differ on the 2-thread pool.
fn work_counts(
    ctx: &GraphContext<'_>,
    params: &ExactParams,
    lambda: u64,
    pools: [&ThreadPool; 2],
    rep: &mut Report,
) {
    let [one, two] = pools.map(|p| {
        let meter = Meter::enabled();
        let r = p.install(|| exact_mincut_in(ctx, params, &meter));
        (r.cut.value, meter.report())
    });
    rep.check(one.0 == lambda && two.0 == lambda, || {
        format!(
            "metered solves {} and {} vs Stoer–Wagner {lambda}",
            one.0, two.0
        )
    });
    for kind in OPS {
        rep.metric(
            &format!("ops.{}", kind.name()),
            one.1.work_of(kind) as f64,
            "count",
        );
    }
    let variant: Vec<&str> = CostKind::ALL
        .iter()
        .filter(|&&k| one.1.work_of(k) != two.1.work_of(k))
        .map(|k| k.name())
        .collect();
    rep.note(
        "thread_variant_ops",
        if variant.is_empty() {
            "none".to_string()
        } else {
            variant.join(",")
        },
    );
}
