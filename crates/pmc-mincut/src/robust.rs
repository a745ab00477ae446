//! The robust solver entry point: the top rung of the degradation
//! ladder (DESIGN.md §12).
//!
//! [`exact_mincut_robust`] wraps the whole pipeline — context build
//! included — in a panic guard and guarantees a typed outcome:
//!
//! 1. **Exact** — every phase completed: the Theorem 4.1 answer,
//!    flagged [`SolveQuality::Exact`].
//! 2. **Degraded, still valid** — the deadline/budget expired, or an
//!    *injected* fault ([`pmc_fault::InjectedPanic`], the chaos
//!    plane's typed payload) killed the solve: the best valid cut
//!    available (at minimum the min-degree fallback), flagged
//!    [`SolveQuality::Degraded`] with the reason.
//! 3. **Typed error** — a panic that is *not* an injected fault is a
//!    genuine bug; it surfaces as [`PmcError::SolvePanicked`] with the
//!    payload's message instead of aborting the process.
//!
//! The one thing this entry point never does is hang, abort, or return
//! an unflagged partial answer — the property the chaos suite sweeps
//! seeded fault plans against.

use crate::engine::GraphContext;
use crate::exact::{exact_mincut_deadline_in, ExactParams, ExactResult, ExactStats};
use pmc_fault::{Deadline, DegradeReason, InjectedPanic, PmcError, SolveQuality};
use pmc_graph::{CutResult, Graph};
use pmc_parallel::meter::Meter;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The min-degree fallback computed from the raw graph alone — usable
/// even when the engine's own context build was the thing that died.
/// Mirrors [`crate::engine::GraphContext::trivial_cut`] +
/// [`crate::engine::GraphContext::min_degree_cut`] exactly.
fn raw_fallback_cut(g: &Graph) -> CutResult {
    if g.n() < 2 {
        return CutResult::infinite();
    }
    let labels = g.component_labels();
    if labels.iter().any(|&l| l != labels[0]) {
        let side = (0..g.n() as u32).filter(|&v| labels[v as usize] == labels[0]).collect();
        return CutResult { value: 0, side };
    }
    let (v, d) = g.min_weighted_degree_vertex();
    CutResult { value: d, side: vec![v] }
}

/// [`crate::exact_mincut`] hardened for a long-lived process: runs the
/// deadline-aware pipeline under a panic guard and always returns a
/// typed outcome (see the module docs for the ladder).
pub fn exact_mincut_robust(
    g: &Graph,
    params: &ExactParams,
    deadline: &Deadline,
    meter: &Meter,
) -> Result<ExactResult, PmcError> {
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let ctx = GraphContext::build(g, meter);
        exact_mincut_deadline_in(&ctx, params, deadline, meter)
    }));
    match attempt {
        Ok(result) => Ok(result),
        Err(payload) => {
            if let Some(injected) = InjectedPanic::from_payload(payload.as_ref()) {
                // Chaos-plane fault: degrade to the raw fallback, which
                // needs nothing the dead solve half-built.
                return Ok(ExactResult {
                    cut: raw_fallback_cut(g),
                    stats: ExactStats::default(),
                    quality: SolveQuality::Degraded(DegradeReason::InjectedFault {
                        point: injected.point.clone(),
                    }),
                });
            }
            // A genuine bug: surface it as a typed error, preserving
            // the panic message when there is one.
            let context = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(PmcError::SolvePanicked { context })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_graph::generators;

    #[test]
    fn robust_matches_plain_exact_when_nothing_goes_wrong() {
        let g = generators::dumbbell(6, 8, 3);
        let params = ExactParams::default();
        let plain = crate::exact::exact_mincut(&g, &params);
        let robust =
            exact_mincut_robust(&g, &params, &Deadline::never(), &Meter::disabled())
                .expect("fault-free robust solve");
        assert_eq!(robust.cut, plain.cut);
        assert!(robust.quality.is_exact());
    }

    #[test]
    fn expired_deadline_returns_flagged_min_degree_fallback() {
        let g = generators::ring_of_cliques(4, 5, 6, 2);
        let params = ExactParams::default();
        let deadline = Deadline::ticks(0);
        let r = exact_mincut_robust(&g, &params, &deadline, &Meter::disabled())
            .expect("degraded, not an error");
        assert!(r.quality.is_degraded());
        // The acceptance-criterion pin: the degraded cut is exactly the
        // engine's min-degree fallback.
        let ctx = crate::engine::GraphContext::build(&g, &Meter::disabled());
        assert_eq!(r.cut, ctx.min_degree_cut());
    }

    #[test]
    fn raw_fallback_handles_degenerate_graphs() {
        assert_eq!(raw_fallback_cut(&Graph::from_edges(1, [])), CutResult::infinite());
        let disc = Graph::from_edges(4, [(0, 1, 2), (2, 3, 2)]);
        let f = raw_fallback_cut(&disc);
        assert_eq!(f.value, 0);
        assert_eq!(f.side, vec![0, 1]);
    }
}
