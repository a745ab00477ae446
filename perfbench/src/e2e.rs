//! `--trace 0`: the end-to-end metrics, with tracing off.
//!
//! After one warm-up slice, the run repeats rounds of: a short slice,
//! then `exact_mincut_in` on a 2-thread pool, a 1-thread pool and the
//! 2-thread pool again. The 2-thread solve is sampled twice per round
//! because it is the one that other tenants' load on either vCPU
//! moves most. A short slice is two complete set-ups, Stoer–Wagner
//! (the sequential baseline and the oracle), and a run of cut-query
//! batches through `TreeContext::cut_batch_into` on the graph's
//! spanning tree. Rounds spread the short samples over the whole run:
//! on a shared machine, load from other tenants comes and goes over
//! tens of seconds, and one burst of samples would catch only one
//! phase of it. Rounds continue while another one fits in the time
//! budget; the first always runs. Every answer is checked.

use crate::workload::{
    batch_ok, build_graph, build_serve_tree, side_value, solve_params, time_setups, PairGen,
    SetupTimes, Workload, BATCH,
};
use crate::{median, note_graph, peak_rss_mb, percentile, pool, timed, Report, POOL_THREADS};
use pmc_graph::{stoer_wagner_mincut, Graph};
use pmc_mincut::{exact_mincut_in, ExactResult, SolveQuality, TreeContext};
use pmc_parallel::Meter;
use std::time::{Duration, Instant};

/// Set-ups and batches per short slice.
const SLICE_SETUPS: usize = 2;
const SLICE_BATCHES: usize = 512;
/// Batches served per run at least: four slices for the p99 median.
const MIN_BATCHES: usize = 4 * SLICE_BATCHES;
/// Stoer–Wagner repeats within a slice until this much time is spent,
/// and at least twice.
const SW_SLICE: Duration = Duration::from_millis(250);
/// Batches per latency window for `batch_p50_ms`.
const WINDOW: usize = 64;

/// The short operations and their samples.
struct Short<'a, 'g> {
    text: &'a str,
    g: &'g Graph,
    tc: &'a TreeContext<'g>,
    lambda: u64,
    setups: Vec<f64>,
    sw: Vec<f64>,
    batches: Vec<f64>,
    pairs_gen: PairGen,
    pairs: Vec<(u32, u32)>,
    values: Vec<u64>,
}

impl Short<'_, '_> {
    fn slice(&mut self, rep: &mut Report) {
        self.setups.extend(
            time_setups(self.text, SLICE_SETUPS)
                .iter()
                .map(SetupTimes::total),
        );
        let (start, runs) = (Instant::now(), self.sw.len());
        while self.sw.len() < runs + 2 || start.elapsed() < SW_SLICE {
            let (cut, s) = timed(|| stoer_wagner_mincut(self.g));
            self.sw.push(s);
            assert_eq!(cut.value, self.lambda, "Stoer–Wagner is deterministic");
        }
        let meter = Meter::disabled();
        for _ in 0..SLICE_BATCHES {
            self.pairs_gen.fill(&mut self.pairs);
            let ((), s) = timed(|| {
                self.tc
                    .cut_batch_into(&self.pairs, &mut self.values, &meter)
            });
            self.batches.push(s);
            let ok = batch_ok(self.tc, &self.pairs, &self.values, self.lambda);
            rep.check(ok, || {
                format!(
                    "batch {} disagrees with cut_of_partition",
                    self.batches.len()
                )
            });
        }
    }
}

pub fn run(w: Workload, seed: u64, seconds: f64) -> Report {
    let mut rep = Report::default();
    let text = w.input(seed);
    let pool2 = pool(POOL_THREADS);
    let pool1 = pool(1);
    let (ctx, _, _) = pool2.install(|| build_graph(&text));
    let g = ctx.graph();
    let (tc, _) = pool2.install(|| build_serve_tree(g));
    let params = solve_params(seed);
    let meter = Meter::disabled();

    let mut short = Short {
        text: &text,
        g,
        tc: &tc,
        lambda: stoer_wagner_mincut(g).value,
        setups: vec![],
        sw: vec![],
        batches: vec![],
        pairs_gen: PairGen::new(tc.tree(), seed),
        pairs: Vec::with_capacity(BATCH),
        values: Vec::with_capacity(BATCH),
    };
    // Warm-up: a first slice pays for first-touch page faults and cold
    // caches; its answers are checked, its timings dropped.
    pool2.install(|| short.slice(&mut rep));
    short.setups.clear();
    short.sw.clear();
    short.batches.clear();

    let start = Instant::now();
    let (mut solve2, mut solve1) = (vec![], vec![]);
    let mut rounds = 0;
    loop {
        let round = Instant::now();
        pool2.install(|| short.slice(&mut rep));
        for p in [&pool2, &pool1, &pool2] {
            let (r, s) = timed(|| p.install(|| exact_mincut_in(&ctx, &params, &meter)));
            let threads = p.current_num_threads();
            if threads == 1 {
                &mut solve1
            } else {
                &mut solve2
            }
            .push(s);
            check_solve(&mut rep, g, &r, short.lambda, threads);
        }
        rounds += 1;
        if start.elapsed() + round.elapsed() > Duration::from_secs_f64(seconds) {
            break;
        }
    }
    while short.batches.len() < MIN_BATCHES {
        pool2.install(|| short.slice(&mut rep));
    }

    let (sw, batches) = (&short.sw, &short.batches);
    let solve_s = median(&solve2);
    // Load from other tenants switches a sequential operation between
    // two speeds about 1.5× apart, in phases of a fraction of a second to
    // seconds. The median of a few such samples jumps between the two
    // speeds as their shares cross one half; the mean moves in
    // proportion to the shares.
    let sw_s = mean(sw);
    let served: f64 = batches.iter().sum();
    rep.metric("setup_s", median(&short.setups), "s");
    rep.metric("solve_s", solve_s, "s");
    rep.metric("solve_1t_s", median(&solve1), "s");
    rep.metric("sw_s", sw_s, "s");
    rep.metric("ratio_vs_sw", solve_s / sw_s, "ratio");
    rep.metric("query_rate", (batches.len() * BATCH) as f64 / served, "1/s");
    // The mean of the medians of 64-batch windows, for the same reason
    // as `sw_s`; each window's median still drops single-batch stalls.
    let window_p50: Vec<f64> = batches.chunks(WINDOW).map(|c| percentile(c, 0.5)).collect();
    rep.metric("batch_p50_ms", 1e3 * mean(&window_p50), "ms");
    // The p99 of each slice (512 batches), then the median over slices:
    // a burst of load from another tenant moves one slice's tail, not
    // the run's.
    let slice_p99: Vec<f64> = batches
        .chunks(SLICE_BATCHES)
        .map(|c| percentile(c, 0.99))
        .collect();
    rep.metric("batch_p99_ms", 1e3 * median(&slice_p99), "ms");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");

    note_graph(&mut rep, &ctx, short.lambda);
    rep.note("rounds", rounds);
    rep.note("setups", short.setups.len());
    rep.note("solves_2t", solve2.len());
    rep.note("solves_1t", solve1.len());
    rep.note("sw_runs", sw.len());
    rep.note("batches", batches.len());
    rep
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Oracle for one solve: exact quality, the Stoer–Wagner value, and a
/// side that realizes it in the graph.
fn check_solve(rep: &mut Report, g: &Graph, r: &ExactResult, lambda: u64, threads: usize) {
    let side = side_value(g, &r.cut.side);
    let ok = matches!(r.quality, SolveQuality::Exact) && r.cut.value == lambda && side == lambda;
    rep.check(ok, || {
        format!(
            "{threads}-thread solve: value {} side {side} quality {:?}, Stoer–Wagner {lambda}",
            r.cut.value, r.quality
        )
    });
}
