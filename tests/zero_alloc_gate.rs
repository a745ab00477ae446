//! The zero-allocation gate as an integration test: with the counting
//! allocator installed for this whole test binary, the steady-state
//! batched query path (`cut_batch_into` into a warm buffer on a
//! `TreeContext`) must perform exactly zero heap allocations
//! (DESIGN.md §13). The gate runs once per cut-query grid: a graph
//! with `n² > 16·m` answers rectangles from the range tree, a denser
//! one from the prefix table (DESIGN.md §5).
//!
//! One `#[test]` only: the gauge is process-global, so sibling tests
//! running on harness threads would pollute the counters. CI also runs
//! it in a release build (`cargo test --release --test zero_alloc_gate`),
//! so the gate holds under the optimizer too.
//!
//! For the same reason no pool worker may exist while a batch is
//! measured. A parallel build spawns workers whose start-up runs
//! asynchronously and allocates (std's thread start copies the thread
//! name; each worker registers its deque; every steal scan snapshots
//! the deque registry), so one of them could allocate inside a measured
//! window after `TreeContext::from_edges` returned. The setup
//! therefore runs on a one-thread pool, where every `join` runs inline
//! and no worker is ever spawned, and the test asserts that before it
//! measures. The measured batches are sequential either way.

use parallel_mincut::prelude::*;
use pmc_bench::alloc_meter::{self, CountingAlloc};
use pmc_mincut::engine::TreeContext;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_batch_queries_allocate_nothing() {
    // `n² ≤ 16·m` picks the cut-query grid: density 0.5 (n²/m ≈ 20)
    // stays on the range tree, 0.8 (n²/m ≈ 3.3) takes the prefix table.
    for (density, on_table) in [(0.5, false), (0.8, true)] {
        gate(density, on_table);
    }
}

fn gate(density: f64, on_table: bool) {
    let n = 400usize;
    let setup = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("one-thread pool");
    let (graph, tree_edges) =
        setup.install(|| pmc_bench::workloads::graph_with_tree(n, density, 31));
    let (params, meter) = (TwoRespectParams::default(), Meter::disabled());
    let ctx = setup.install(|| TreeContext::from_edges(&graph, &tree_edges, 0, &params, &meter));
    let height = ctx.cut_query().range_height();
    assert_eq!(height == 1, on_table, "density {density}: grid height {height}");

    let mut rng = StdRng::seed_from_u64(9);
    // Hot duplicates mixed with uniform pairs, as a serving load sends.
    let hot: Vec<(u32, u32)> = (0..64)
        .map(|_| (rng.random_range(1..n as u32), rng.random_range(1..n as u32)))
        .collect();
    let pairs: Vec<(u32, u32)> = (0..2_000)
        .map(|i| {
            if i % 2 == 0 {
                hot[rng.random_range(0..hot.len())]
            } else {
                (rng.random_range(1..n as u32), rng.random_range(1..n as u32))
            }
        })
        .collect();

    let workers = rayon::pool_diagnostics().workers_live;
    assert_eq!(workers, 0, "a pool worker could allocate while a batch is measured");

    // Warm-up sizes the output buffer (and must visibly allocate —
    // otherwise the allocator isn't counting and the gate is vacuous).
    let mut cut_out: Vec<u64> = Vec::new();
    let (_, warm) = alloc_meter::measure(|| ctx.cut_batch_into(&pairs, &mut cut_out, &meter));
    assert!(warm.allocs > 0, "density {density}: counting allocator not engaged");
    let expect_cut = cut_out.clone();

    // Steady state: repeated batches reuse the warm buffer.
    for round in 0..5 {
        let (_, cut_gauge) =
            alloc_meter::measure(|| ctx.cut_batch_into(&pairs, &mut cut_out, &meter));
        assert_eq!(
            (cut_gauge.allocs, cut_gauge.peak_growth_bytes),
            (0, 0),
            "density {density} round {round}: cut_batch_into allocated"
        );
        assert_eq!(cut_out, expect_cut, "density {density} round {round}: values drifted");
    }

    // The values the zero-alloc path produced are the real ones.
    let q = ctx.cut_query();
    for (i, &(e, f)) in pairs.iter().enumerate().step_by(97) {
        assert_eq!(expect_cut[i], q.cut(e, f, &meter), "density {density} pair ({e},{f})");
    }
}
