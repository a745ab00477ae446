//! `--sweep`: the one-shot `ratio_vs_sw` size sweep over increasing n,
//! reported beside the gated workloads and not among them. One solve per
//! point and pool width, seed 1, `ExactParams::default()`.

use crate::{pool, timed, POOL_THREADS};
use pmc_bench::workloads;
use pmc_graph::stoer_wagner_mincut;
use pmc_mincut::{exact_mincut_in, ExactParams, GraphContext};
use pmc_parallel::Meter;

const POINTS: [(&str, &[usize]); 2] = [
    ("uniform", &[100, 200, 400, 800, 1200]),
    ("nearclique", &[50, 100, 200, 300, 400]),
];

pub fn run() {
    let meter = Meter::disabled();
    let params = ExactParams::default();
    let (pool1, pool2) = (pool(1), pool(POOL_THREADS));
    println!("| family | n | m | δ | λ | sw_s | solve_1t_s | solve_{POOL_THREADS}t_s | ratio_1t | ratio_{POOL_THREADS}t |");
    println!("| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |");
    for (family, sizes) in POINTS {
        for &n in sizes {
            let g = workloads::by_name(family, n, 1).graph;
            let ctx = GraphContext::build(&g, &meter);
            let (sw, sw_s) = timed(|| stoer_wagner_mincut(ctx.graph()));
            let (r1, t1) = timed(|| pool1.install(|| exact_mincut_in(&ctx, &params, &meter)));
            let (r2, t2) = timed(|| pool2.install(|| exact_mincut_in(&ctx, &params, &meter)));
            let agree = r1.cut.value == sw.value && r2.cut.value == sw.value;
            println!(
                "| {family} | {n} | {} | {} | {}{} | {sw_s:.3} | {t1:.3} | {t2:.3} | {:.2} | {:.2} |",
                ctx.m(),
                ctx.min_degree_cut().value,
                sw.value,
                if agree { "" } else { " (MISMATCH)" },
                t1 / sw_s,
                t2 / sw_s,
            );
        }
    }
}
