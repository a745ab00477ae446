//! The rayon shim's contract with the workspace: real data-parallelism
//! on indexed sources, pool-scoped budgets, and determinism of every
//! combining consumer across thread counts.
//!
//! The unit suites inside `vendor/rayon` cover the executor in
//! isolation; this suite checks the properties the *algorithm crates*
//! rely on, through the same entry points they use.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::Mutex;

fn with_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(op)
}

/// The headline claim: a `par_iter().map(...)` at size observes more
/// than one OS thread under a multi-thread pool.
#[test]
fn par_iter_map_runs_on_multiple_threads() {
    let data: Vec<u64> = (0..200_000).collect();
    let ids: HashSet<std::thread::ThreadId> = with_pool(4, || {
        data.par_iter().map(|_| std::thread::current().id()).collect::<Vec<_>>()
    })
    .into_iter()
    .collect();
    assert!(
        ids.len() > 1,
        "a 4-thread pool must spread leaves over >1 thread, saw {}",
        ids.len()
    );
}

/// The converse: under `num_threads(1)` the whole pipeline — including
/// nested joins inside the leaves — stays on the calling thread. This
/// is what makes the `T1` baselines of E-depth/E-speedup honest.
#[test]
fn one_thread_pool_stays_single_threaded() {
    let seen = Mutex::new(HashSet::new());
    with_pool(1, || {
        (0..10_000u32).into_par_iter().for_each(|_| {
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        // A join tree below a par_iter leaf must not escape either.
        rayon::join(
            || seen.lock().unwrap().insert(std::thread::current().id()),
            || seen.lock().unwrap().insert(std::thread::current().id()),
        );
    });
    assert_eq!(seen.lock().unwrap().len(), 1);
}

/// Deterministic results: `collect` and `reduce` (a min and a sum)
/// byte-identical to the sequential run across seeds and thread counts.
#[test]
fn collect_and_reduce_deterministic_across_thread_counts() {
    for seed in [11, 12, 13] {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<u64> = (0..50_000).map(|_| rng.random_range(0..1_000_000)).collect();
        let expect_collect: Vec<u64> =
            data.iter().map(|&x| x.wrapping_mul(0x9E37_79B9)).filter(|x| x % 7 != 0).collect();
        let expect_min = data.iter().copied().fold(u64::MAX, u64::min);
        let expect_sum: u64 = data.iter().sum();
        for threads in [1, 2, 4] {
            let (got_collect, got_min, got_sum) = with_pool(threads, || {
                let c: Vec<u64> = data
                    .par_iter()
                    .map(|&x| x.wrapping_mul(0x9E37_79B9))
                    .filter(|x| x % 7 != 0)
                    .collect();
                let m = data.par_iter().map(|&x| x).reduce(|| u64::MAX, u64::min);
                let s = data.par_iter().map(|&x| x).reduce(|| 0, |a, b| a + b);
                (c, m, s)
            });
            assert_eq!(got_collect, expect_collect, "collect seed={seed} threads={threads}");
            assert_eq!(got_min, expect_min, "reduce seed={seed} threads={threads}");
            assert_eq!(got_sum, expect_sum, "sum seed={seed} threads={threads}");
        }
    }
}

/// `par_sort_unstable` byte-identical to `sort_unstable` across seeds
/// and thread counts (sizes straddling the merge-sort cutoff).
#[test]
fn par_sort_deterministic_across_thread_counts() {
    for seed in [31, 32] {
        let mut rng = StdRng::seed_from_u64(seed);
        for n in [1_000, 5_000, 60_000] {
            let data: Vec<u64> = (0..n).map(|_| rng.random_range(0..100_000)).collect();
            let mut expect = data.clone();
            expect.sort_unstable();
            for threads in [1, 2, 4] {
                let mut got = data.clone();
                with_pool(threads, || got.par_sort_unstable());
                assert_eq!(got, expect, "seed={seed} n={n} threads={threads}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Forcing tiny split cutoffs (`with_max_len`) must never change
    /// the result of an adapter chain, whatever the pool width.
    #[test]
    fn forced_small_cutoffs_match_sequential(
        len in 0usize..600,
        max_len in 1usize..8,
        threads in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<u32> = (0..len).map(|_| rng.random_range(0u32..10_000)).collect();
        let expect: Vec<u64> = data
            .iter()
            .map(|&x| u64::from(x) * 3)
            .filter(|x| x % 5 != 0)
            .collect();
        let expect_sum: u64 = expect.iter().sum();
        let (got, got_sum) = with_pool(threads, || {
            let v: Vec<u64> = data
                .par_iter()
                .with_max_len(max_len)
                .map(|&x| u64::from(x) * 3)
                .filter(|x| x % 5 != 0)
                .collect();
            let s: u64 = data
                .clone()
                .into_par_iter()
                .with_max_len(max_len)
                .map(|x| u64::from(x) * 3)
                .filter(|x| x % 5 != 0)
                .reduce(|| 0, |a, b| a + b);
            (v, s)
        });
        prop_assert_eq!(got, expect);
        prop_assert_eq!(got_sum, expect_sum);
    }

    /// Chunked views under forced splits: every chunk visited exactly
    /// once, under its own index, in order.
    #[test]
    fn forced_small_cutoffs_chunks(
        len in 1usize..400,
        chunk in 1usize..16,
        max_len in 1usize..6,
        threads in 1usize..6,
    ) {
        let data = vec![0u32; len];
        let got: Vec<u32> = with_pool(threads, || {
            data.par_chunks(chunk)
                .with_max_len(max_len)
                .enumerate()
                .flat_map_iter(|(c, items)| items.iter().map(move |&x| x + 1 + c as u32))
                .collect()
        });
        prop_assert_eq!(got.len(), len);
        for (i, &v) in got.iter().enumerate() {
            prop_assert_eq!(v, 1 + (i / chunk) as u32, "index {}", i);
        }
    }
}
