//! `pmc-bench` — the experiment runner: one subcommand per experiment of
//! DESIGN.md §6, each printing an aligned table and a reading guide.
//!
//! ```text
//! cargo run -p pmc-bench --release -- <experiment> [full] [--smoke [n]] [--workload w]
//! ```
//!
//! `full` selects the larger size ladder. `epsilon_sweep`, `ablation`,
//! `speedup`, `whp` and `whp packing` take `--smoke [n]`, the CI gates;
//! `speedup` also takes `--workload`.
//! Unknown experiments or arguments print usage and exit 2.
//!
//! End-to-end and per-phase wall time is the `perfbench` crate's job
//! (`perfbench/README.md`); these experiments reproduce the paper's
//! operation-count, quality, and scaling claims.

use pmc_bench::experiments::{
    measure_speedup_workload, run_ablation, run_approx_quality, run_depth_scaling,
    run_eps_sweep, run_gauges, run_packing_stats, run_table1, run_two_respect_scaling, run_whp,
};
use pmc_bench::{workloads, Table};
use pmc_graph::generators;
use pmc_mincut::PackingParams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

const EXPERIMENTS: &str = "table1 approx_quality two_respect_scaling packing_stats \
                           epsilon_sweep depth_scaling gauges ablation speedup whp 'whp packing'";

/// The arguments after the experiment name.
#[derive(Default)]
struct Opts {
    full: bool,
    /// `Some(n)` under `--smoke`, with the optional size that follows it.
    smoke: Option<Option<usize>>,
    workload: Option<String>,
}

fn parse(args: &[String]) -> Option<Opts> {
    let mut o = Opts::default();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "full" => o.full = true,
            "--smoke" => {
                let n = it.peek().and_then(|s| s.parse().ok());
                if n.is_some() {
                    it.next();
                }
                o.smoke = Some(n);
            }
            "--workload" => o.workload = Some(it.next()?.clone()),
            _ => return None,
        }
    }
    Some(o)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pmc-bench <experiment> [full] [--smoke [n]] [--workload w]\n  \
         experiments: {EXPERIMENTS}\n  \
         --smoke: epsilon_sweep, ablation, speedup, whp and 'whp packing' only; --workload \
         (uniform|fishbone|powerlaw|nearclique): speedup only"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else { return usage() };
    let (name, rest) = match rest.split_first() {
        Some((sub, tail)) if name == "whp" && sub == "packing" => ("whp packing", tail),
        _ => (name.as_str(), rest),
    };
    let Some(o) = parse(rest) else { return usage() };
    let takes_smoke =
        matches!(name, "epsilon_sweep" | "ablation" | "speedup" | "whp" | "whp packing");
    if (o.smoke.is_some() && !takes_smoke) || (o.workload.is_some() && name != "speedup") {
        return usage();
    }
    let ladder = |quick: &'static [usize], full: &'static [usize]| if o.full { full } else { quick };
    match name {
        "table1" => report(
            run_table1(ladder(&[128, 256, 512], &[128, 256, 512, 1024, 2048]), 0x71),
            "Table 1 — total work: this paper vs the no-filter baseline (non-sparse m ~ n^1.5)",
            "'ours/(m·lg n)' flattening = the O(m log n) work claim;\n\
             'naive/(m·lg⁴n)' bounded = the baseline tracks the GG18-era m·polylog profile;\n\
             'naive/ours' growing with n = the paper's Ω(log³ n) separation (Table 1's shape).",
        ),
        "approx_quality" => report(
            run_approx_quality(ladder(&[24, 48], &[24, 48, 96, 192]), 7),
            "Theorem 3.1 — approximation quality (λ̂/λ must stay within a constant band)",
            "λ̂/λ in [1/3, 3] = the O(1)-approximation; refined/λ near 1±ε = the refinement.",
        ),
        "two_respect_scaling" => report(
            run_two_respect_scaling(
                ladder(&[256, 512, 1024, 2048], &[256, 512, 1024, 2048, 4096, 8192]),
                0.5,
                42,
            ),
            "Theorem 4.2 — 2-respecting solver work vs m·lg m + n·lg³ n",
            "the ratio column flattening confirms the O(m log m + n log³ n) bound.",
        ),
        "packing_stats" => report(
            run_packing_stats(ladder(&[64, 128], &[64, 128, 256, 512]), 23),
            "Theorem 4.18 — packing statistics (some tree must 2-respect the optimum)",
            "'2-respecting trees' ≥ 1 realizes Karger's packing guarantee.",
        ),
        "epsilon_sweep" => eps_sweep(&o),
        "depth_scaling" => report(
            run_depth_scaling(ladder(&[128, 256, 512], &[128, 256, 512, 1024, 2048]), 13),
            "Depth — D̂ from T_p = W/p + D (Theorem 4.1 predicts D = O(log³ n))",
            "D̂/lg³n flattening = polylogarithmic depth in practice.",
        ),
        "gauges" => report(
            run_gauges(ladder(&[128, 256, 512], &[128, 256, 512, 1024, 2048]), 99),
            "Structural depth gauges (each bounded by the claimed polylog)",
            "packing iterations track lg²n; λ̃ rounds are Matula's sequential O(m) contraction\n\
             rounds (1–3 measured); range height is ⌈log_d n⌉ + 1 ≤ ⌈1/ε⌉ + 1 over the n grid\n\
             columns (at most 5 at the default ε = 1/4, whatever m), and 1 where n² ≤ 16·m puts\n\
             the grid in a prefix table (DESIGN.md §5); tree height is the\n\
             per-tree critical path of the cut-finding stage (max over packed trees);\n\
             graph/tree build are the engine's construction critical paths (DESIGN.md §8),\n\
             attributed separately from query depth.",
        ),
        "ablation" => ablation(&o),
        "speedup" => return speedup(&o),
        "whp" => return whp(&o, false),
        "whp packing" => return whp(&o, true),
        _ => return usage(),
    }
    ExitCode::SUCCESS
}

fn report(t: Table, title: &str, guide: &str) {
    t.print(title);
    println!("\nReading guide: {guide}");
}

/// E-4.26. Every ε must give the all-pairs oracle's value (asserted
/// inside the runner); `--smoke [n]` runs n = 256 by default for CI,
/// where ε = 0.08 is degree 2 and ε = 1 is degree n.
fn eps_sweep(o: &Opts) {
    let n = match o.smoke {
        Some(n) => n.unwrap_or(256),
        None if o.full => 4096,
        None => 1024,
    };
    report(
        run_eps_sweep(n, &[0.08, 0.15, 0.25, 0.5, 0.75, 1.0], 11),
        "Theorem 4.26 — ε sweep: build work falls with ε, query work rises (n^ε fan-out)",
        "dense graphs tolerate larger ε (build dominates); sparse prefer small ε.",
    );
    if o.smoke.is_some() {
        println!("\n--smoke: every ε agreed with the all-pairs oracle at n = {n}.");
    }
}

/// E-ablate. Every variant must agree with the all-pairs oracle
/// (asserted inside the runner), so the comparison cannot rot;
/// `--smoke` runs a reduced size for CI and also gates the LCA
/// substrate: sparse-table steps strictly below lifting's on the
/// coverage pass's query stream.
fn ablation(o: &Opts) {
    let n = match o.smoke {
        Some(n) => n.unwrap_or(128),
        None if o.full => 2048,
        None => 512,
    };
    let (t, summary) = run_ablation(n, 19);
    report(
        t,
        "Ablations — one 2-respecting solve, all variants must agree on the value",
        "the naive row shows the work the interest filter removes; 'interest qs' meters\n\
         Claim 4.13's O(log n) arm tracing; 'lca steps' is one per sparse-table query,\n\
         where binary lifting would take levels() per query (--smoke prints both totals).",
    );
    if o.smoke.is_some() {
        assert!(
            summary.sparse_lca_steps < summary.lifting_lca_steps,
            "sparse-table LCA steps ({}) not strictly below lifting's ({}) at n = {n}",
            summary.sparse_lca_steps,
            summary.lifting_lca_steps
        );
        println!(
            "\n--smoke: all variants agreed with the all-pairs oracle at n = {n}; \
             sparse LCA steps {} < lifting {}.",
            summary.sparse_lca_steps, summary.lifting_lca_steps
        );
    }
}

/// E-whp: misses against Stoer–Wagner. `whp` varies the sampling seed
/// on near-cliques whose skeleton samples: 1,000 seeds at n = 150
/// (`full` adds n = 300), or `--smoke [seeds]` (default 50). `whp
/// packing` varies the generator seed of `power_law(n, ·)`, whose
/// skeleton keeps every edge: 1,000 seeds at n = 400 (`full`: 800) over
/// `iterations_factor` ∈ {2, 1, 0.5} × `trees_factor` ∈ {4, 2}, or
/// `--smoke [seeds]` (default 20) at the default factors. The CI gates
/// exit nonzero on a miss at the default factors, or when the skeleton
/// does not sample (near-cliques) or does (power-law).
fn whp(o: &Opts, packing: bool) -> ExitCode {
    let d = PackingParams::default();
    let default = (d.iterations_factor, d.trees_factor);
    let mut grid = vec![default];
    if packing && o.smoke.is_none() {
        for f in [2.0, 1.0, 0.5] {
            grid.extend([(f, 4.0), (f, 2.0)].into_iter().filter(|&p| p != default));
        }
    }
    let seeds = match o.smoke {
        Some(n) => n.unwrap_or(if packing { 20 } else { 50 }) as u64,
        None => 1_000,
    };
    let sizes: &[usize] = match (packing, o.full) {
        (false, false) => &[150],
        (false, true) => &[150, 300],
        (true, false) => &[400],
        (true, true) => &[800],
    };
    let mut failed = false;
    for &n in sizes {
        let (t, counts) = if packing {
            run_whp(|seed| workloads::power_law(n, seed).graph, seeds, &grid)
        } else {
            let g = generators::near_clique(n, 0.15, 48, &mut StdRng::seed_from_u64(1));
            run_whp(|_| g.clone(), seeds, &grid)
        };
        report(
            t,
            "With high probability — exact vs Stoer–Wagner",
            "'misses' counts answers that differ from Stoer–Wagner (the pipeline only\n\
             over-estimates); 'sampled' counts solves whose skeleton kept p < 1 after retries.\n\
             The first row is the default packing factors.",
        );
        let c = &counts[0];
        if c.misses > 0 || (c.sampled > 0) == packing {
            eprintln!("FAIL at n = {n}: {} misses, {} of {seeds} solves sampled", c.misses, c.sampled);
            failed = true;
        }
    }
    ExitCode::from(u8::from(failed))
}

/// E-speedup gate: the chosen workload at `n` (defaults: 20 000 uniform,
/// 6 000 fishbone, 8 000 powerlaw, 1 500 nearclique) must run at least
/// 1.4× faster at 4 threads than the fixed 1-thread baseline (1.3× on
/// the fishbone skew adversary, which a static splitter strands on one
/// thread), with identical cut values. The ratio is only asserted where
/// the hardware has ≥ 4 threads; elsewhere value agreement is still
/// checked, unless `PMC_BENCH_STRICT=1` turns the skip into a failure.
fn speedup(o: &Opts) -> ExitCode {
    const SMOKE_THREADS: usize = 4;
    let which = o.workload.as_deref().unwrap_or("uniform");
    let (min_speedup, default_n) = match which {
        "uniform" => (1.4, 20_000),
        "fishbone" => (1.3, 6_000),
        // Dense regimes: smaller n, m is what grows (nearclique is
        // Θ(n²) edges — 1 500 vertices is already ~1M edges).
        "nearclique" => (1.4, 1_500),
        "powerlaw" => (1.4, 8_000),
        _ => return usage(),
    };
    let n = o.smoke.flatten().unwrap_or(default_n);
    let hw = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    let w = workloads::by_name(which, n, 17);
    let (t1, tp) = measure_speedup_workload(&w, SMOKE_THREADS);
    let ratio = t1 / tp;
    println!(
        "E-speedup smoke [{}]: n={}, T1={t1:.0} ms, T{SMOKE_THREADS}={tp:.0} ms, \
         speedup {ratio:.2}x (hardware threads: {hw})",
        w.name,
        w.graph.n()
    );
    if hw >= SMOKE_THREADS {
        assert!(
            ratio >= min_speedup,
            "[{}] speedup {ratio:.2}x at {SMOKE_THREADS} threads is below the \
             {min_speedup}x gate (T1={t1:.0} ms, Tp={tp:.0} ms)",
            w.name
        );
        println!("PASS: speedup >= {min_speedup}x");
    } else if std::env::var("PMC_BENCH_STRICT").is_ok_and(|v| v == "1") {
        // CI sets PMC_BENCH_STRICT=1: a runner too narrow to run the
        // gate is a job failure, not a silent green.
        eprintln!(
            "FAIL: {hw} hardware threads < {SMOKE_THREADS} required for the speedup \
             gate and PMC_BENCH_STRICT=1 — refusing to skip"
        );
        return ExitCode::from(2);
    } else {
        println!(
            "SKIPPED assertion: fewer than {SMOKE_THREADS} hardware threads; \
             value agreement across thread counts still checked"
        );
    }
    ExitCode::SUCCESS
}
