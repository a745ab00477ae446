//! The parallel `O(1)`-approximation of the minimum cut (§3,
//! Theorem 3.1) and its `(1 ± ε)` refinement.
//!
//! The hierarchy machinery: sub-sample the multigraph level by level
//! (Def. 3.3), truncate per-edge at the critical layer (Def. 3.9),
//! compute per-layer certificates with global budgets (Alg. 3.17), and
//! read the *skeleton layer* off the layer min-cut profile: the unique
//! layer `s` whose certificate min-cut lands in the calibration window
//! `[0.75, 1.25] · c_w log n` (Claims 3.6/3.11–3.13 give the w.h.p.
//! separation between the window and the layers above/below). The
//! estimate is then `value_s · 2^s`.
//!
//! Layer min-cuts use [`mincut_small`]: its output is always a genuine
//! cut value (never an underestimate), and Claims 3.12/3.13 only need
//! one-sided accuracy away from the window, so classification is safe
//! even where the packing budget is exceeded (see DESIGN.md).
//!
//! When even layer 0 sits below the window, the layer-0 certificate
//! preserves the min-cut exactly (Claim 3.18) and the "approximation"
//! is in fact exact — `ApproxResult::below_window` reports this.

use crate::engine::GraphContext;
use crate::exact::{mincut_small, mincut_small_in};
use crate::packing::PackingParams;
use crate::two_respect::TwoRespectParams;
use pmc_graph::Graph;
use pmc_parallel::meter::Meter;
use pmc_sparsify::certificate::k_certificate;
use pmc_sparsify::hierarchy::{CertificateHierarchy, ExclusiveHierarchy, HierarchyParams};
use pmc_sparsify::skeleton::{skeleton, skeleton_cap, skeleton_probability};
use rayon::prelude::*;

/// Parameters of the approximation phase.
#[derive(Debug, Clone)]
pub struct ApproxParams {
    pub hierarchy: HierarchyParams,
    /// Window centre as a multiple of `log2 n` (the paper's skeleton
    /// sampling target `100 log n`; the ratio to `crit_factor` = 500 is
    /// what matters, so the default tracks `hierarchy.crit_factor / 5`).
    pub window_center_factor: f64,
    pub two_respect: TwoRespectParams,
    pub packing: PackingParams,
}

impl Default for ApproxParams {
    fn default() -> Self {
        let hierarchy = HierarchyParams::practical(0xAB5EED);
        ApproxParams {
            window_center_factor: hierarchy.crit_factor / 5.0,
            hierarchy,
            two_respect: TwoRespectParams::default(),
            packing: PackingParams::default(),
        }
    }
}

impl ApproxParams {
    /// The constants as printed in the paper (§3: 500/400/200/100 log n).
    /// Only meaningful for min-cuts well above `500 log n`.
    pub fn paper(seed: u64) -> Self {
        let hierarchy = HierarchyParams::paper(seed);
        ApproxParams {
            window_center_factor: hierarchy.crit_factor / 5.0,
            hierarchy,
            two_respect: TwoRespectParams::default(),
            packing: PackingParams::default(),
        }
    }

    /// Lower edge of the window at this `n` (`0.75 · centre · log2 n`).
    pub fn window_low(&self, n: usize) -> u64 {
        (0.75 * self.window_center_factor * (n.max(2) as f64).log2()).ceil() as u64
    }
}

/// Outcome of the approximation.
#[derive(Debug, Clone)]
pub struct ApproxResult {
    /// The min-cut estimate (`value_s · 2^s`), a `(1 ± 1/3)`-factor
    /// estimate w.h.p. — exact when `below_window` is set.
    pub lambda: u64,
    /// The layer identified as the skeleton layer.
    pub layer: usize,
    /// Layer-certificate min-cut values, index = layer.
    pub layer_values: Vec<u64>,
    /// True when even layer 0 fell below the window: the certificate
    /// preserved the min-cut exactly and `lambda` is exact.
    pub below_window: bool,
}

/// Theorem 3.1: a constant-factor approximation of the minimum cut with
/// `O(m log n + n polylog n)` work and polylog depth.
/// # Example
///
/// ```
/// use pmc_mincut::{approx_mincut, ApproxParams};
/// use pmc_parallel::Meter;
///
/// // Small min cut: the layer-0 certificate answers exactly.
/// let g = pmc_graph::generators::dumbbell(8, 10, 3);
/// let a = approx_mincut(&g, &ApproxParams::default(), &Meter::disabled());
/// assert!(a.below_window);
/// assert_eq!(a.lambda, 3);
/// ```
pub fn approx_mincut(g: &Graph, params: &ApproxParams, meter: &Meter) -> ApproxResult {
    let ctx = GraphContext::attach(g, meter);
    approx_mincut_in(&ctx, params, meter)
}

/// [`approx_mincut`] over a prebuilt [`GraphContext`], so a caller
/// that holds one shares its coalesced graph and connectivity state
/// instead of re-deriving them.
pub fn approx_mincut_in(ctx: &GraphContext<'_>, params: &ApproxParams, meter: &Meter) -> ApproxResult {
    if ctx.n() < 2 || !ctx.is_connected() {
        return ApproxResult {
            lambda: if ctx.n() < 2 { u64::MAX } else { 0 },
            layer: 0,
            layer_values: Vec::new(),
            below_window: true,
        };
    }
    let g = ctx.graph();
    let hierarchy = ExclusiveHierarchy::build(g, &params.hierarchy, meter);
    let certs = CertificateHierarchy::build(g, &hierarchy, &params.hierarchy, meter);
    meter.record_depth("approx:hierarchy_levels", hierarchy.num_levels() as u64);
    // Layer min-cuts in parallel (§3.1.4 computes the O(log n) instances
    // simultaneously). Each layer's union graph gets its own
    // graph-lifetime context (connectivity + degrees derived once per
    // layer, not once per probe inside the solver).
    let layer_values: Vec<u64> = (0..certs.num_levels())
        .into_par_iter()
        .map(|i| {
            let u = certs.union_graph(g, i);
            let uctx = GraphContext::adopt(u, meter);
            let c = mincut_small_in(&uctx, &params.two_respect, &params.packing, meter);
            if c.value == u64::MAX {
                0
            } else {
                c.value
            }
        })
        .collect();
    let low = params.window_low(g.n());
    // Largest layer still at or above the window floor = the skeleton
    // layer (values only shrink going up the hierarchy, Claims 3.11-13).
    let layer = layer_values.iter().rposition(|&v| v >= low);
    match layer {
        Some(s) => ApproxResult {
            lambda: layer_values[s] << s,
            layer: s,
            layer_values,
            below_window: false,
        },
        None => ApproxResult {
            lambda: layer_values.first().copied().unwrap_or(0),
            layer: 0,
            layer_values,
            below_window: true,
        },
    }
}

/// The `(1 ± ε)` refinement stated after Theorem 3.1: re-skeletonize at
/// accuracy `ε` using the constant-factor estimate, then measure the
/// skeleton's min-cut exactly and rescale. When `p` is already 1 at the
/// minimum weighted degree δ ≥ λ, no estimate could make the skeleton
/// sample, so the hierarchy is skipped and the min cut measured exactly.
pub fn approx_mincut_eps(
    g: &Graph,
    eps: f64,
    params: &ApproxParams,
    seed: u64,
    meter: &Meter,
) -> u64 {
    assert!(eps > 0.0 && eps <= 1.0);
    let c = 24.0; // oversampling constant for the refinement skeleton
    let ctx = GraphContext::attach(g, meter);
    if let Some(cut) = ctx.trivial_cut() {
        return cut.value;
    }
    let exact = || mincut_small_in(&ctx, &params.two_respect, &params.packing, meter).value;
    if skeleton_probability(g.n(), eps, ctx.min_degree_cut().value, c) >= 1.0 {
        return exact();
    }
    let base = approx_mincut_in(&ctx, params, meter);
    if base.below_window {
        return base.lambda;
    }
    let lambda_under = (base.lambda / 2).max(1);
    let p = skeleton_probability(g.n(), eps, lambda_under, c);
    if p >= 1.0 {
        // The graph is already in the exactly-measurable regime.
        return exact();
    }
    let cap = skeleton_cap(g.n(), eps, c);
    let h = skeleton(g, p, cap, seed, meter);
    let hc = k_certificate(&h, 2 * cap, meter);
    let value = mincut_small(&hc, &params.two_respect, &params.packing, meter).value;
    if value == u64::MAX {
        return 0;
    }
    (value as f64 / p).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_graph::{generators, stoer_wagner_mincut};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_constant_factor(g: &Graph, params: &ApproxParams, factor: f64, label: &str) {
        let expect = stoer_wagner_mincut(g).value as f64;
        let got = approx_mincut(g, params, &Meter::disabled());
        let lam = got.lambda as f64;
        assert!(
            lam >= expect / factor && lam <= expect * factor,
            "{label}: estimate {lam} not within {factor}x of {expect}"
        );
    }

    #[test]
    fn small_cut_graphs_exact_via_window_floor() {
        // Min cut far below the window: layer 0 certificate is exact.
        let params = ApproxParams::default();
        for (g, lambda) in [
            (generators::dumbbell(8, 5, 3), 3),
            (generators::cycle(20, 2), 4),
            (generators::grid(5, 5, 1), 2),
        ] {
            let r = approx_mincut(&g, &params, &Meter::disabled());
            assert!(r.below_window, "min-cut {lambda} should be below the window");
            assert_eq!(r.lambda, lambda);
        }
    }

    #[test]
    fn heavy_graphs_constant_factor() {
        let mut rng = StdRng::seed_from_u64(701);
        for trial in 0..3 {
            let g = generators::heavy_cycle_with_chords(16, 30, 4000, 100, &mut rng);
            let params = ApproxParams {
                hierarchy: HierarchyParams::practical(900 + trial),
                ..ApproxParams::default()
            };
            check_constant_factor(&g, &params, 2.5, &format!("heavy {trial}"));
        }
    }

    #[test]
    fn dumbbell_heavy_bridge() {
        // lambda = 6000 (bridge), far above the window.
        let g = generators::dumbbell(10, 2000, 6000);
        check_constant_factor(&g, &ApproxParams::default(), 2.5, "dumbbell heavy");
    }

    #[test]
    fn layer_profile_monotone_through_window() {
        // Layer values should generally decay going up; the chosen layer
        // must sit at the window boundary.
        let mut rng = StdRng::seed_from_u64(702);
        let g = generators::heavy_cycle_with_chords(14, 24, 3000, 60, &mut rng);
        let params = ApproxParams::default();
        let r = approx_mincut(&g, &params, &Meter::disabled());
        assert!(!r.below_window);
        let low = params.window_low(g.n());
        assert!(r.layer_values[r.layer] >= low);
        for v in &r.layer_values[r.layer + 1..] {
            assert!(*v < low, "layers above s must be below the window");
        }
    }

    #[test]
    fn eps_refinement_tightens() {
        let g = generators::dumbbell(10, 2000, 6000);
        let params = ApproxParams::default();
        let lam = approx_mincut_eps(&g, 0.25, &params, 11, &Meter::disabled());
        let expect = 6000.0;
        assert!(
            (lam as f64) >= expect * 0.6 && (lam as f64) <= expect * 1.4,
            "eps-refined {lam} vs {expect}"
        );
    }

    #[test]
    fn eps_refinement_exact_when_small() {
        let g = generators::cycle(16, 3);
        let params = ApproxParams::default();
        let lam = approx_mincut_eps(&g, 0.3, &params, 12, &Meter::disabled());
        assert_eq!(lam, 6);
    }

    #[test]
    fn degenerate_inputs() {
        let params = ApproxParams::default();
        let g0 = Graph::from_edges(1, []);
        assert_eq!(approx_mincut(&g0, &params, &Meter::disabled()).lambda, u64::MAX);
        let g1 = Graph::from_edges(4, [(0, 1, 5), (2, 3, 5)]);
        assert_eq!(approx_mincut(&g1, &params, &Meter::disabled()).lambda, 0);
    }

    use pmc_graph::Graph;
}
