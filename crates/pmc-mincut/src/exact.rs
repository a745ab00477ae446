//! The exact minimum-cut pipeline (Theorems 4.1 and 4.26).
//!
//! ```text
//! λ̃ = ⌊β/(2+ε)⌋, β from Matula  ->  skeleton (Thm 2.4 + Obs 4.22)
//!                              ->  sparse certificate (Thm 2.6)
//!                              ->  greedy tree packing (Thm 4.18)
//!                              ->  per packed tree: min 2-respecting cut in G (Thm 4.2)
//! ```
//!
//! λ̃ only sets the skeleton probability, so the pipeline takes it from
//! Matula's deterministic bracket `λ ≤ β ≤ (2+ε)λ` (sequential, `O(m)`
//! per contraction round) rather than from §3's hierarchy
//! (DESIGN.md §4); the hierarchy is reproduced by
//! [`crate::approx::approx_mincut`].
//!
//! Every candidate the pipeline produces is a *real* cut of `G` (1- or
//! 2-respecting values are evaluated in `G` itself, and the minimum
//! weighted degree is always included), so the output can only ever
//! over-estimate; with the packing guarantee it equals the minimum cut
//! w.h.p. — the property the test-suite checks against Stoer–Wagner
//! across seeds.

use crate::approx::ApproxParams;
use crate::engine::{GraphContext, TreeContext};
use crate::interest::InterestStrategy;
use crate::packing::{greedy_tree_packing, PackingParams};
use crate::two_respect::TwoRespectParams;
use pmc_fault::{Deadline, DegradeReason, PmcError, SolveQuality};
use pmc_graph::{matula_approx_rounds, CutResult, Graph};
use pmc_parallel::meter::{CostKind, Meter};
use pmc_sparsify::certificate::k_certificate;
use pmc_sparsify::skeleton::{skeleton, skeleton_probability};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// Parameters of the exact pipeline.
#[derive(Debug, Clone)]
pub struct ExactParams {
    pub two_respect: TwoRespectParams,
    pub packing: PackingParams,
    /// Parameters of §3's approximation ([`crate::approx::approx_mincut`]).
    /// Unread by `exact_mincut*`, which takes λ̃ from Matula's bracket;
    /// kept because perfbench's `--trace 1` still composes Phase 1 from
    /// it.
    pub approx: ApproxParams,
    /// How the 2-respecting solver traces interest arms (Claim 4.13).
    /// Mirrored into [`TwoRespectParams::interest_strategy`] for every
    /// packed tree, overriding whatever `two_respect` carries, so the
    /// pipeline-level knob is authoritative. Centroid descent is the
    /// default; [`ExactParams::paper`] pins it explicitly.
    pub interest_strategy: InterestStrategy,
    /// Skeleton oversampling constant (`c` in `p = c ln n / (ε² λ̃)`).
    pub skeleton_c: f64,
    /// Skeleton accuracy `ε` (paper: a small constant like 1/6).
    pub skeleton_eps: f64,
    /// Known min-cut (under)estimate λ̃, fed to the skeleton's `p` in
    /// place of Matula's; authoritative when set.
    pub lambda_hint: Option<u64>,
    /// RNG seed for skeleton sampling.
    pub seed: u64,
}

impl Default for ExactParams {
    fn default() -> Self {
        ExactParams {
            two_respect: TwoRespectParams::default(),
            packing: PackingParams::default(),
            approx: ApproxParams::default(),
            interest_strategy: InterestStrategy::default(),
            skeleton_c: 12.0,
            skeleton_eps: 1.0 / 3.0,
            lambda_hint: None,
            seed: 0x5EED,
        }
    }
}

/// Diagnostics of one exact run.
#[derive(Debug, Clone, Default)]
pub struct ExactStats {
    /// The λ̃ fed to Theorem 2.4's `p`: `max(1, ⌊β/(2+ε)⌋)` from
    /// Matula's `β`, which is at most λ, or the caller's `lambda_hint`.
    pub lambda_estimate: u64,
    /// Skeleton sampling probability actually used.
    pub skeleton_p: f64,
    /// Edges of the skeleton after sampling.
    pub skeleton_edges: usize,
    /// Total weight of the packing input (after the certificate).
    pub certificate_weight: u64,
    /// Distinct trees the packing produced.
    pub num_trees: usize,
}

/// Result of the exact pipeline.
#[derive(Debug, Clone)]
pub struct ExactResult {
    pub cut: CutResult,
    pub stats: ExactStats,
    /// Whether the run completed every phase ([`SolveQuality::Exact`])
    /// or expired mid-pipeline and returned the best valid cut found so
    /// far ([`SolveQuality::Degraded`] naming the reason and phase).
    /// Degraded answers are still genuine cuts of the input — they can
    /// only over-estimate, never be silently wrong.
    pub quality: SolveQuality,
}

impl ExactParams {
    /// Paper-faithful constants throughout (the skeleton's `c` and `ε`,
    /// and `ApproxParams::paper` for callers composing §3); the sampling
    /// machinery then only engages for min-cuts far above `log n`,
    /// exactly as in the paper's regime.
    pub fn paper(seed: u64) -> Self {
        ExactParams {
            approx: ApproxParams::paper(seed),
            // Theorem 4.2's substrate choices (SMAWK row minima, O(1)
            // Euler-tour LCA) pinned for every packed tree.
            two_respect: TwoRespectParams::paper(),
            // The paper's Claim 4.13 search; pinned here so the preset
            // stays faithful even if the workspace default moves.
            interest_strategy: InterestStrategy::Centroid,
            skeleton_c: 36.0,
            skeleton_eps: 1.0 / 6.0,
            seed,
            ..ExactParams::default()
        }
    }
}

/// Matula's accuracy `ε` for λ̃: `β ≤ (2+ε)λ`, so `⌊β/(2+ε)⌋ ≤ λ`.
const MATULA_EPS: f64 = 0.5;

/// Exact minimum cut of `g` (Theorem 4.1 / 4.26), w.h.p.
pub fn exact_mincut(g: &Graph, params: &ExactParams) -> ExactResult {
    exact_mincut_metered(g, params, &Meter::disabled())
}

/// [`exact_mincut`] with work-span accounting. One-shot wrapper: builds
/// the graph-lifetime [`GraphContext`] and solves once; callers that
/// solve the same graph repeatedly should build the context themselves
/// and use [`exact_mincut_in`].
pub fn exact_mincut_metered(g: &Graph, params: &ExactParams, meter: &Meter) -> ExactResult {
    let ctx = GraphContext::build(g, meter);
    exact_mincut_in(&ctx, params, meter)
}

/// [`exact_mincut`] over a prebuilt [`GraphContext`]: the graph-lifetime
/// state (coalesced graph, connectivity, degrees, fallback cut) is
/// reused across calls; only the per-run sampling and per-tree contexts
/// are built here.
pub fn exact_mincut_in(ctx: &GraphContext<'_>, params: &ExactParams, meter: &Meter) -> ExactResult {
    exact_mincut_deadline_in(ctx, params, &Deadline::never(), meter)
}

/// [`exact_mincut`] under a cooperative [`Deadline`]: one-shot wrapper
/// over [`exact_mincut_deadline_in`].
pub fn exact_mincut_deadline(
    g: &Graph,
    params: &ExactParams,
    deadline: &Deadline,
    meter: &Meter,
) -> ExactResult {
    let ctx = GraphContext::build(g, meter);
    exact_mincut_deadline_in(&ctx, params, deadline, meter)
}

/// Map a phase-boundary [`Deadline::check`] error onto the degradation
/// flag. Only the deadline/budget variants can come out of `check`; the
/// defensive arm keeps the mapping total.
fn degrade_reason_of(e: PmcError) -> DegradeReason {
    match e {
        PmcError::DeadlineExpired { phase } => DegradeReason::DeadlineExpired { phase },
        PmcError::BudgetExhausted { phase } => DegradeReason::BudgetExhausted { phase },
        other => DegradeReason::InjectedFault { point: other.to_string() },
    }
}

/// The deadline-aware exact pipeline. The token is consulted at every
/// phase boundary ([`Deadline::check`], which also spends one unit of a
/// logical budget) and per tree inside the Phase 5 parallel loop
/// (non-consuming [`Deadline::expired`]). On expiry the run stops
/// where it is and returns the best *valid* cut accumulated so far —
/// at minimum the min-degree fallback [`GraphContext::min_degree_cut`]
/// — flagged [`SolveQuality::Degraded`] with the phase it died in. It
/// never blocks past the token and never returns an unflagged partial
/// answer.
pub fn exact_mincut_deadline_in(
    ctx: &GraphContext<'_>,
    params: &ExactParams,
    deadline: &Deadline,
    meter: &Meter,
) -> ExactResult {
    if let Some(cut) = ctx.trivial_cut() {
        // Degenerate inputs have exact answers regardless of budget.
        return ExactResult { cut, stats: ExactStats::default(), quality: SolveQuality::Exact };
    }
    let gc = ctx.graph();
    let mut stats = ExactStats::default();
    // The degradation ladder's floor: the min-degree cut, always a
    // genuine cut of `g`.
    let degraded = |stats: ExactStats, reason: pmc_fault::DegradeReason| ExactResult {
        cut: ctx.min_degree_cut(),
        stats,
        quality: SolveQuality::Degraded(reason),
    };

    // Phase 1: constant-factor underestimate of the min cut, from
    // Matula's deterministic bracket (sequential: O(m) work and depth
    // per contraction round). A caller's hint stays authoritative.
    if let Err(e) = deadline.check("phase1:approx") {
        return degraded(stats, degrade_reason_of(e));
    }
    pmc_fault::point("engine:phase1_approx");
    let lambda_est = match params.lambda_hint {
        Some(l) => l.max(1),
        None => {
            let (beta, rounds) = matula_approx_rounds(gc, MATULA_EPS);
            meter.add(CostKind::Misc, gc.m() as u64 * rounds);
            meter.record_depth("exact:lambda_rounds", rounds);
            ((beta as f64 / (2.0 + MATULA_EPS)) as u64).max(1)
        }
    };
    stats.lambda_estimate = lambda_est;

    // Phase 2: skeleton (p from Theorem 2.4; weights capped per
    // Observation 4.22). If the estimate was too optimistic and the
    // skeleton disconnects, re-sample denser: a disconnected skeleton
    // can only happen when p λ is too small, so doubling p restores the
    // Theorem 2.4 regime within O(log) retries.
    if let Err(e) = deadline.check("phase2:skeleton") {
        return degraded(stats, degrade_reason_of(e));
    }
    pmc_fault::point("engine:phase2_skeleton");
    let eps = params.skeleton_eps;
    let cap_scale = (params.skeleton_c * (gc.n().max(2) as f64).ln() / (eps * eps)).ceil();
    let cap = (8.0 * cap_scale) as u64;
    let mut p = skeleton_probability(gc.n(), eps, lambda_est, params.skeleton_c);
    let mut h = skeleton(gc, p, cap, params.seed, meter);
    let mut retries = 0;
    while !h.is_connected() && p < 1.0 {
        if deadline.expired() {
            return degraded(stats, deadline.degrade_reason("phase2:skeleton_retry"));
        }
        p = (p * 2.0).min(1.0);
        retries += 1;
        h = skeleton(gc, p, cap, params.seed.wrapping_add(retries), meter);
    }
    stats.skeleton_p = p;
    stats.skeleton_edges = h.m();

    // Phase 3: sparse certificate bounds the packing input weight.
    if let Err(e) = deadline.check("phase3:certificate") {
        return degraded(stats, degrade_reason_of(e));
    }
    pmc_fault::point("engine:phase3_certificate");
    let k_cert = 2 * cap;
    let hc = k_certificate(&h, k_cert, meter);
    stats.certificate_weight = hc.total_weight();

    // Phase 4: greedy packing.
    if let Err(e) = deadline.check("phase4:packing") {
        return degraded(stats, degrade_reason_of(e));
    }
    pmc_fault::point("engine:phase4_packing");
    let trees = greedy_tree_packing(&hc, &params.packing, meter);
    stats.num_trees = trees.len();

    // Phase 5: per-tree 2-respecting minimum cuts in the original graph.
    // The pipeline's interest-strategy knob overrides the per-solver
    // one. A skipped tree flags the whole run as degraded, because the
    // packing guarantee needs every tree.
    if let Err(e) = deadline.check("phase5:trees") {
        return degraded(stats, degrade_reason_of(e));
    }
    let tr_params =
        TwoRespectParams { interest_strategy: params.interest_strategy, ..params.two_respect };
    let (cut, skipped) = solve_packed_trees(ctx, &trees, &tr_params, deadline, meter);
    let quality = if skipped {
        SolveQuality::Degraded(deadline.degrade_reason("phase5:trees"))
    } else {
        SolveQuality::Exact
    };
    ExactResult { cut, stats, quality }
}

/// Phase 5: the 2-respecting minimum cut on every packed tree, in
/// parallel (the paper's outermost parallel loop), each in a
/// tree-lifetime context, reduced with `ctx`'s min-degree cut. Trees
/// are skipped once `deadline` expires; the flag says whether any was.
fn solve_packed_trees(
    ctx: &GraphContext<'_>,
    trees: &[Vec<(u32, u32)>],
    params: &TwoRespectParams,
    deadline: &Deadline,
    meter: &Meter,
) -> (CutResult, bool) {
    let skipped = AtomicBool::new(false);
    let from_trees = trees
        .par_iter()
        .map(|edges| {
            if deadline.expired() {
                // Relaxed: a monotone one-way flag read once after the
                // loop's join; the reduction itself synchronises.
                skipped.store(true, Ordering::Relaxed);
                return CutResult::infinite();
            }
            let tc = TreeContext::from_edges(ctx.graph(), edges, 0, params, meter);
            tc.solve(meter).cut
        })
        .reduce(CutResult::infinite, CutResult::min);
    // Relaxed: see the store above.
    (from_trees.min(ctx.min_degree_cut()), skipped.load(Ordering::Relaxed))
}

/// Exact min-cut for graphs whose minimum cut is already `O(polylog)`
/// (certificates, skeletons, hierarchy layers): packs trees directly on
/// `g` without the sampling phases. Returns a valid cut value of `g`
/// always; equals the minimum w.h.p. whenever the min cut is small
/// enough for the packing iteration budget — exactly the regime §3 uses
/// it in (layer classification errs only upward, which Claim 3.13
/// tolerates).
pub fn mincut_small(
    g: &Graph,
    two_respect: &TwoRespectParams,
    packing: &PackingParams,
    meter: &Meter,
) -> CutResult {
    let ctx = GraphContext::attach(g, meter);
    mincut_small_in(&ctx, two_respect, packing, meter)
}

/// [`mincut_small`] over a prebuilt [`GraphContext`] — the §3 hierarchy
/// and approximation layers call this once per layer graph, deriving
/// connectivity/degree state exactly once instead of on every probe.
pub fn mincut_small_in(
    ctx: &GraphContext<'_>,
    two_respect: &TwoRespectParams,
    packing: &PackingParams,
    meter: &Meter,
) -> CutResult {
    if let Some(cut) = ctx.trivial_cut() {
        return cut;
    }
    let trees = greedy_tree_packing(ctx.graph(), packing, meter);
    solve_packed_trees(ctx, &trees, two_respect, &Deadline::never(), meter).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_graph::graph::cut_of_partition;
    use pmc_graph::{generators, stoer_wagner_mincut};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_exact(g: &Graph, params: &ExactParams, label: &str) {
        let expect = stoer_wagner_mincut(g).value;
        let got = exact_mincut(g, params);
        assert_eq!(got.cut.value, expect, "{label}");
        // The reported side must realize the value.
        let mut side = vec![false; g.n()];
        for &v in &got.cut.side {
            side[v as usize] = true;
        }
        assert_eq!(cut_of_partition(g, &side), got.cut.value, "{label} side");
    }

    #[test]
    fn structured_graphs_exact() {
        let params = ExactParams::default();
        assert_exact(&generators::dumbbell(8, 10, 3), &params, "dumbbell");
        assert_exact(&generators::ring_of_cliques(4, 5, 6, 2), &params, "ring");
        assert_exact(&generators::grid(5, 6, 4), &params, "grid");
        assert_exact(&generators::hypercube(4, 3), &params, "hypercube");
        assert_exact(&generators::complete(12, 2), &params, "complete");
        assert_exact(&generators::cycle(25, 7), &params, "cycle");
    }

    #[test]
    fn random_graphs_exact_many_seeds() {
        let mut rng = StdRng::seed_from_u64(601);
        for trial in 0..10 {
            let n = 12 + trial * 2;
            let g = generators::gnm_connected(n, 3 * n, 9, &mut rng);
            let params = ExactParams { seed: 700 + trial as u64, ..ExactParams::default() };
            assert_exact(&g, &params, &format!("trial {trial}"));
        }
    }

    #[test]
    fn weighted_random_graphs_exact() {
        let mut rng = StdRng::seed_from_u64(602);
        for trial in 0..6 {
            let g = generators::gnm_connected(16, 60, 1000, &mut rng);
            let params = ExactParams { seed: trial, ..ExactParams::default() };
            assert_exact(&g, &params, &format!("weighted {trial}"));
        }
    }

    #[test]
    fn heavy_min_cut_graphs_exact() {
        // Min-cut large enough that the skeleton genuinely subsamples.
        let mut rng = StdRng::seed_from_u64(603);
        for trial in 0..4 {
            let g = generators::heavy_cycle_with_chords(14, 20, 3000, 80, &mut rng);
            let params = ExactParams { seed: 40 + trial, ..ExactParams::default() };
            assert_exact(&g, &params, &format!("heavy {trial}"));
        }
    }

    #[test]
    fn trivial_and_degenerate() {
        let params = ExactParams::default();
        // Single vertex: no cut.
        let g1 = Graph::from_edges(1, []);
        assert_eq!(exact_mincut(&g1, &params).cut.value, u64::MAX);
        // Two vertices.
        let g2 = Graph::from_edges(2, [(0, 1, 9)]);
        assert_eq!(exact_mincut(&g2, &params).cut.value, 9);
        // Disconnected.
        let g3 = Graph::from_edges(4, [(0, 1, 2), (2, 3, 2)]);
        let r = exact_mincut(&g3, &params);
        assert_eq!(r.cut.value, 0);
        assert!(!r.cut.side.is_empty() && r.cut.side.len() < 4);
    }

    #[test]
    fn lambda_hint_short_circuits_approx() {
        let g = generators::dumbbell(8, 10, 3);
        let params = ExactParams { lambda_hint: Some(2), ..ExactParams::default() };
        let r = exact_mincut(&g, &params);
        assert_eq!(r.cut.value, 3);
        assert_eq!(r.stats.lambda_estimate, 2);
    }

    /// Where `p` is already 1 at the minimum weighted degree δ ≥ λ, it
    /// is 1 at every λ̃ ≤ λ: the run is bit-identical to one hinted δ.
    #[test]
    fn unsampled_skeleton_is_bit_identical_to_min_degree_hint() {
        let mut graphs = vec![
            ("dumbbell", generators::dumbbell(8, 10, 3)),
            ("grid", generators::grid(5, 6, 4)),
            ("fishbone", generators::fishbone(5, 8).0),
        ];
        for seed in [611u64, 612, 613] {
            let mut rng = StdRng::seed_from_u64(seed);
            graphs.push(("gnm", generators::gnm_connected(18, 54, 9, &mut rng)));
            graphs.push(("power law", generators::power_law_community(60, 3, 4, 9, &mut rng)));
        }
        for (i, (name, g)) in graphs.iter().enumerate() {
            let params = ExactParams { seed: 800 + i as u64, ..ExactParams::default() };
            let delta = g.min_weighted_degree();
            assert!(
                skeleton_probability(g.n(), params.skeleton_eps, delta, params.skeleton_c) >= 1.0,
                "{name} {i}: p(δ) must be 1"
            );
            let matula = exact_mincut(g, &params);
            let hinted = exact_mincut(g, &ExactParams { lambda_hint: Some(delta), ..params });
            assert_eq!(matula.cut, hinted.cut, "{name} {i}: cut");
            assert_eq!(matula.stats.skeleton_p, 1.0, "{name} {i}: p");
            assert_eq!(hinted.stats.skeleton_p, 1.0, "{name} {i}: p");
            assert_eq!(matula.stats.skeleton_edges, hinted.stats.skeleton_edges, "{name} {i}");
            assert_eq!(matula.stats.num_trees, hinted.stats.num_trees, "{name} {i}: trees");
            assert_eq!(matula.cut.value, stoer_wagner_mincut(g).value, "{name} {i}: value");
        }
    }

    /// A dense near-clique samples (`p < 1`) at Matula's λ̃ ≤ λ, stays
    /// exact across sampling seeds, and meters Matula's rounds, not §3's
    /// hierarchy.
    #[test]
    fn near_clique_samples_at_matula_estimate() {
        let mut rng = StdRng::seed_from_u64(614);
        let g = generators::near_clique(40, 0.15, 200, &mut rng);
        let lambda = stoer_wagner_mincut(&g).value;
        let meter = Meter::enabled();
        let r = exact_mincut_metered(&g, &ExactParams::default(), &meter);
        assert!(r.stats.skeleton_p < 1.0, "p = {}", r.stats.skeleton_p);
        assert!(r.stats.lambda_estimate <= lambda, "λ̃ {} > λ {lambda}", r.stats.lambda_estimate);
        let depth = meter.report().depth;
        assert!(depth.contains_key("exact:lambda_rounds"));
        assert!(!depth.contains_key("approx:hierarchy_levels"));
        for seed in 0..20 {
            let params = ExactParams { seed, ..ExactParams::default() };
            assert_eq!(exact_mincut(&g, &params).cut.value, lambda, "seed {seed}");
        }
    }

    #[test]
    fn mincut_small_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(604);
        for trial in 0..8 {
            let g = generators::gnm_connected(15, 45, 6, &mut rng);
            let got = mincut_small(
                &g,
                &TwoRespectParams::default(),
                &PackingParams::default(),
                &Meter::disabled(),
            );
            let expect = stoer_wagner_mincut(&g).value;
            assert_eq!(got.value, expect, "trial {trial}");
        }
    }

    #[test]
    fn parallel_multigraph_input() {
        // Parallel edges must coalesce, not confuse the pipeline.
        let g = Graph::from_edges(
            4,
            [(0, 1, 2), (0, 1, 3), (1, 2, 4), (2, 3, 4), (3, 0, 1), (1, 3, 2)],
        );
        assert_exact(&g, &ExactParams::default(), "multigraph");
    }

    #[test]
    fn stats_populated() {
        let g = generators::ring_of_cliques(4, 4, 5, 2);
        let r = exact_mincut(&g, &ExactParams::default());
        assert!(r.stats.num_trees >= 1);
        assert!(r.stats.skeleton_p > 0.0);
        assert!(r.stats.lambda_estimate >= 1);
    }

    use pmc_graph::Graph;
}
