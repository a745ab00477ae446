//! `pmc` — command-line minimum cuts.
//!
//! ```text
//! pmc exact  <graph-file>            exact minimum cut (parallel pipeline)
//! pmc approx <graph-file> [eps]      O(1)- or (1±eps)-approximation, 0 < eps <= 1
//! pmc oracle <graph-file>            Stoer–Wagner (sequential oracle)
//! pmc gen <kind> <n> <out-file>      write a generated workload
//! pmc stats <graph-file>             basic graph statistics
//! ```
//!
//! Graph files use the text format of `pmc_graph::io`:
//! `p <n> <m>` header then `e <u> <v> <w>` lines (0-based vertices).

use parallel_mincut::prelude::*;
use pmc_graph::io::{parse_graph, write_graph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  pmc exact  <graph-file>\n  pmc approx <graph-file> [eps]\n  \
         pmc oracle <graph-file>\n  pmc gen <kind> <n> <out-file>   \
         (kinds: nonsparse sparse planted heavy grid)\n  pmc stats <graph-file>"
    );
    ExitCode::from(2)
}

/// An argument out of range: an `error:` line and the usage exit code.
fn bad_arg(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_graph(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the no-cut line when `value` is the `u64::MAX` every solver
/// returns for a graph with fewer than 2 vertices, and says whether it
/// did.
fn no_cut(value: u64) -> bool {
    if value == u64::MAX {
        println!("graph has fewer than 2 vertices: no cut");
    }
    value == u64::MAX
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { return usage() };
    match (cmd.as_str(), args.get(1), args.get(2), args.get(3)) {
        ("exact", Some(path), _, _) => {
            let g = match load(path) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let meter = Meter::enabled();
            let t0 = std::time::Instant::now();
            let r = pmc_mincut::exact::exact_mincut_metered(&g, &ExactParams::default(), &meter);
            let dt = t0.elapsed();
            if no_cut(r.cut.value) {
                return ExitCode::SUCCESS;
            }
            println!("minimum cut: {}", r.cut.value);
            println!("side ({} vertices): {:?}", r.cut.side.len(), preview(&r.cut.side));
            println!(
                "pipeline: lambda~={} p={:.4} skeleton_m={} trees={} time={dt:?}",
                r.stats.lambda_estimate,
                r.stats.skeleton_p,
                r.stats.skeleton_edges,
                r.stats.num_trees
            );
            print!("{}", meter.report().render());
            ExitCode::SUCCESS
        }
        ("approx", Some(path), eps, _) => {
            let eps = match eps.map(|s| (s, s.parse::<f64>())) {
                None => None,
                Some((_, Ok(e))) if e > 0.0 && e <= 1.0 => Some(e),
                Some((s, _)) => {
                    return bad_arg(&format!("eps must be a number in (0, 1], got {s:?}"))
                }
            };
            let g = match load(path) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let params = ApproxParams::default();
            match eps {
                Some(eps) => {
                    let lam = approx_mincut_eps(&g, eps, &params, 1, &Meter::disabled());
                    if !no_cut(lam) {
                        println!("(1±{eps}) approximation: {lam}");
                    }
                }
                None => {
                    let a = approx_mincut(&g, &params, &Meter::disabled());
                    if no_cut(a.lambda) {
                        return ExitCode::SUCCESS;
                    }
                    println!("O(1) approximation: {}", a.lambda);
                    println!("skeleton layer: {} (exact: {})", a.layer, a.below_window);
                }
            }
            ExitCode::SUCCESS
        }
        ("oracle", Some(path), _, _) => {
            let g = match load(path) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let t0 = std::time::Instant::now();
            let c = stoer_wagner_mincut(&g);
            if no_cut(c.value) {
                return ExitCode::SUCCESS;
            }
            println!("minimum cut (Stoer–Wagner): {} in {:?}", c.value, t0.elapsed());
            ExitCode::SUCCESS
        }
        ("gen", Some(kind), Some(n), Some(out)) => {
            let Ok(n) = n.parse::<usize>() else { return usage() };
            // The smallest `n` each kind's generator accepts.
            let min_n = match kind.as_str() {
                "grid" => 1,
                "nonsparse" | "sparse" => 2,
                "heavy" => 3,
                "planted" => 4,
                _ => return usage(),
            };
            if n < min_n {
                return bad_arg(&format!("gen {kind} needs n >= {min_n}, got {n}"));
            }
            let mut rng = StdRng::seed_from_u64(0xC11);
            let g = match kind.as_str() {
                "nonsparse" => generators::non_sparse(n, 0.5, 16, &mut rng),
                "sparse" => generators::gnm_connected(n, 3 * n, 16, &mut rng),
                "planted" => generators::planted_bisection(n, 6 * n, 3, 8, 1, &mut rng),
                "heavy" => generators::heavy_cycle_with_chords(n, 2 * n, 4000, 120, &mut rng),
                "grid" => {
                    let side = (n as f64).sqrt().ceil() as usize;
                    generators::grid(side, side, 2)
                }
                _ => return usage(),
            };
            if let Err(e) = std::fs::write(out, write_graph(&g)) {
                eprintln!("error: {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {kind} graph: n={} m={} -> {out}", g.n(), g.m());
            ExitCode::SUCCESS
        }
        ("stats", Some(path), _, _) => {
            let g = match load(path) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("n = {}", g.n());
            println!("m = {}", g.m());
            println!("total weight   = {}", g.total_weight());
            println!("components     = {}", g.num_components());
            println!("min weighted degree = {}", g.min_weighted_degree());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn preview(side: &[u32]) -> Vec<u32> {
    side.iter().copied().take(12).collect()
}
