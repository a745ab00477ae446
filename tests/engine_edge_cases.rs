//! Engine-path edge cases: degenerate batches and graphs through the
//! two-level engine, and pool survivability under panicking jobs.

use parallel_mincut::prelude::*;
use pmc_fault::Deadline;
use pmc_graph::generators;
use pmc_mincut::exact_mincut_robust;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The deliberate job panics below are expected traffic; keep the
/// default hook quiet for them only.
fn silence_expected_job_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let expected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.starts_with("expected-job-panic"));
            if !expected {
                default(info);
            }
        }));
    });
}

fn path_tree_context<'g>(
    g: &'g Graph,
    params: &TwoRespectParams,
    meter: &Meter,
) -> TreeContext<'g> {
    let edges: Vec<(u32, u32)> = (0..g.n() as u32 - 1).map(|i| (i, i + 1)).collect();
    TreeContext::from_edges(g, &edges, 0, params, meter)
}

#[test]
fn empty_batches_are_empty_and_exact() {
    let g = generators::path(8, 5);
    let meter = Meter::disabled();
    let tc = path_tree_context(&g, &TwoRespectParams::default(), &meter);
    // A stale buffer is cleared, not appended to.
    let mut out = vec![1, 2, 3];
    tc.cut_batch_into(&[], &mut out, &meter);
    assert!(out.is_empty());
}

#[test]
fn single_vertex_and_empty_graphs_through_the_engine() {
    let meter = Meter::disabled();
    for n in [0usize, 1] {
        let g = Graph::from_edges(n, []);
        let ctx = GraphContext::build(&g, &meter);
        assert_eq!(ctx.trivial_cut(), Some(CutResult::infinite()), "n={n}");
        let r = exact_mincut(&g, &ExactParams::default());
        assert_eq!(r.cut, CutResult::infinite(), "n={n}");
        assert!(r.quality.is_exact(), "n={n}: a trivial answer is still exact");
        let robust =
            exact_mincut_robust(&g, &ExactParams::default(), &Deadline::never(), &meter)
                .expect("degenerate graphs are not errors");
        assert_eq!(robust.cut, r.cut, "n={n}");
    }
}

#[test]
fn disconnected_graphs_through_the_engine() {
    let meter = Meter::disabled();
    let g = Graph::from_edges(6, [(0, 1, 3), (1, 2, 3), (3, 4, 2), (4, 5, 2)]);
    let ctx = GraphContext::build(&g, &meter);
    let trivial = ctx.trivial_cut().expect("disconnected graph has a trivial cut");
    assert_eq!(trivial.value, 0);
    assert_eq!(trivial.side, vec![0, 1, 2], "vertex 0's component is one side");
    let r = exact_mincut(&g, &ExactParams::default());
    assert_eq!(r.cut.value, 0);
    assert!(r.quality.is_exact());
    let robust = exact_mincut_robust(&g, &ExactParams::default(), &Deadline::never(), &meter)
        .expect("disconnected is not an error");
    assert_eq!(robust.cut.value, 0);
}

#[test]
fn pool_survives_consecutive_panicking_jobs() {
    silence_expected_job_panics();
    const STORMS: usize = 10;
    for threads in [2usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build test pool");
        for i in 0..STORMS {
            // The panic must propagate to the joiner (the model suite
            // pins this), not kill the pool.
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.install(|| rayon::join(|| panic!("expected-job-panic {i}"), || 1))
            }));
            assert!(result.is_err(), "threads={threads} storm {i}: panic must propagate");
            // The very next job on the same pool still computes.
            let (a, b) = pool.install(|| {
                rayon::join(|| (0..100u64).sum::<u64>(), || (0..50u64).product::<u64>())
            });
            assert_eq!(a, 4950, "threads={threads} storm {i}");
            assert_eq!(b, 0, "threads={threads} storm {i}");
        }
        // And a full solve still works after the storms.
        let g = generators::ring_of_cliques(4, 5, 6, 2);
        let value = pool.install(|| exact_mincut(&g, &ExactParams::default()).cut.value);
        assert_eq!(value, 4);
    }
    assert!(rayon::pool_diagnostics().workers_live > 0, "pool died");
}
