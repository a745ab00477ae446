//! Workspace wiring smoke test.
//!
//! Exercises the `parallel_mincut::prelude` re-exports end to end —
//! build graphs through the re-exported generators, run every min-cut
//! entry point the prelude advertises, and assert cross-algorithm
//! agreement — so a broken re-export, a crate falling out of the
//! workspace, or a manifest wiring regression fails loudly here before
//! anything subtler does.

use parallel_mincut::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every prelude name used below comes from a different member crate,
/// so this single test transitively checks the whole dependency graph:
/// `pmc-graph` (generators, Stoer–Wagner, Matula),
/// `pmc-parallel` (Meter), and `pmc-mincut` (approx + exact pipeline,
/// which pulls in `pmc-tree`, `pmc-range`, `pmc-monge`,
/// `pmc-sparsify`).
#[test]
fn prelude_pipeline_agreement_on_random_graphs() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnm_connected(24, 60, 10, &mut rng);

        let oracle = stoer_wagner_mincut(&g);
        assert!(oracle.value > 0, "connected graph must have a positive cut");

        // Exact pipeline agrees with the oracle, and its reported
        // partition really cuts that much weight.
        let exact = exact_mincut(&g, &ExactParams { seed, ..ExactParams::default() });
        assert_eq!(exact.cut.value, oracle.value, "seed {seed}");
        let mut side = vec![false; g.n()];
        for &v in &exact.cut.side {
            side[v as usize] = true;
        }
        assert_eq!(cut_of_partition(&g, &side), exact.cut.value, "seed {seed}");

        // The constant-factor estimate brackets the truth (Theorem 3.1
        // windows are generous; 4x is far outside the failure
        // probability at this size).
        let approx = approx_mincut(&g, &ApproxParams::default(), &Meter::disabled());
        assert!(
            approx.lambda >= oracle.value / 4 && approx.lambda <= oracle.value * 4,
            "approx estimate {} too far from {} (seed {seed})",
            approx.lambda,
            oracle.value,
        );

        // Matula's approximation stays on the right side of the oracle.
        let matula = matula_approx(&g, 0.5);
        assert!(matula >= oracle.value, "seed {seed}");
        assert!(matula <= oracle.value * 3, "seed {seed}");
    }
}

/// The structured generators fix the min cut by construction; the whole
/// stack must reproduce those planted values.
#[test]
fn prelude_pipeline_on_planted_structures() {
    // Ring of k cliques joined by weight-2 bridges: min cut severs the
    // ring at two bridges.
    let ring = generators::ring_of_cliques(4, 5, 6, 2);
    assert_eq!(exact_mincut(&ring, &ExactParams::default()).cut.value, 4);
    assert_eq!(stoer_wagner_mincut(&ring).value, 4);

    // Planted bisection with a deliberately light bridge.
    let mut rng = StdRng::seed_from_u64(7);
    let planted = generators::planted_bisection(24, 80, 3, 9, 1, &mut rng);
    let oracle = stoer_wagner_mincut(&planted);
    assert_eq!(oracle.value, 3, "three weight-1 bridges are the planted cut");
    let exact = exact_mincut(&planted, &ExactParams::default());
    assert_eq!(exact.cut.value, oracle.value);
}

/// `TwoRespectParams` and the metering types are part of the prelude
/// contract too; a meter threaded through the exact pipeline must
/// observe work.
#[test]
fn prelude_metering_and_params_are_wired() {
    let mut rng = StdRng::seed_from_u64(11);
    let g = generators::gnm_connected(20, 40, 5, &mut rng);

    let meter = Meter::enabled();
    let exact = pmc_mincut::exact_mincut_metered(
        &g,
        &ExactParams { two_respect: TwoRespectParams::default(), ..ExactParams::default() },
        &meter,
    );
    assert_eq!(exact.cut.value, stoer_wagner_mincut(&g).value);

    let report: CostReport = meter.report();
    let cut_queries = report.work_of(CostKind::CutQuery);
    assert!(cut_queries > 0, "exact pipeline should issue cut queries, got report {report:?}");
}
