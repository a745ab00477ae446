//! Work snapshot: the metered operation counts and pipeline statistics
//! of one exact solve on each benchmark graph, at 1 and 2 threads.
//!
//! The graphs are perfbench's two workloads, `nearclique-150` (the
//! skeleton samples, p < 1) and `powerlaw-800` (the answer comes from a
//! packed tree). Every [`CostKind`] count and the [`ExactStats`] fields
//! are pinned in [`EXPECTED`]. A change that leaves the solve path's
//! work alone leaves this table as it is; a change that moves work on
//! purpose re-pins it from the table the failing run prints.

use parallel_mincut::prelude::*;
use pmc_mincut::exact::{exact_mincut_metered, ExactStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// The measured table: one `graph threads field value` line per count.
const EXPECTED: &str = "\
nearclique-150 1 value 2699
nearclique-150 1 lambda_estimate 1079
nearclique-150 1 skeleton_p 0.5015279071013861
nearclique-150 1 skeleton_edges 9366
nearclique-150 1 num_trees 29
nearclique-150 1 cut_query 47045
nearclique-150 1 range_node 1524987
nearclique-150 1 monge_entry 7305
nearclique-150 1 forest_edge 0
nearclique-150 1 mst_edge 314996
nearclique-150 1 sample 9569
nearclique-150 1 tree_op 329701
nearclique-150 1 interest_query 39740
nearclique-150 1 lca_step 277501
nearclique-150 1 misc 28857
nearclique-150 2 value 2699
nearclique-150 2 lambda_estimate 1079
nearclique-150 2 skeleton_p 0.5015279071013861
nearclique-150 2 skeleton_edges 9366
nearclique-150 2 num_trees 29
nearclique-150 2 cut_query 47045
nearclique-150 2 range_node 1524987
nearclique-150 2 monge_entry 7305
nearclique-150 2 forest_edge 0
nearclique-150 2 mst_edge 314996
nearclique-150 2 sample 9569
nearclique-150 2 tree_op 329701
nearclique-150 2 interest_query 39740
nearclique-150 2 lca_step 277501
nearclique-150 2 misc 28857
powerlaw-800 1 value 4
powerlaw-800 1 lambda_estimate 1
powerlaw-800 1 skeleton_p 1.0
powerlaw-800 1 skeleton_edges 8691
powerlaw-800 1 num_trees 39
powerlaw-800 1 cut_query 279122
powerlaw-800 1 range_node 14336637
powerlaw-800 1 monge_entry 27857
powerlaw-800 1 forest_edge 0
powerlaw-800 1 mst_edge 2870962
powerlaw-800 1 sample 8691
powerlaw-800 1 tree_op 775749
powerlaw-800 1 interest_query 251265
powerlaw-800 1 lca_step 338949
powerlaw-800 1 misc 35564
powerlaw-800 2 value 4
powerlaw-800 2 lambda_estimate 1
powerlaw-800 2 skeleton_p 1.0
powerlaw-800 2 skeleton_edges 8691
powerlaw-800 2 num_trees 39
powerlaw-800 2 cut_query 279122
powerlaw-800 2 range_node 14336637
powerlaw-800 2 monge_entry 27857
powerlaw-800 2 forest_edge 0
powerlaw-800 2 mst_edge 2870962
powerlaw-800 2 sample 8691
powerlaw-800 2 tree_op 775749
powerlaw-800 2 interest_query 251265
powerlaw-800 2 lca_step 338949
powerlaw-800 2 misc 35564
";

fn with_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(op)
}

/// The rows of one metered solve of `g` at `threads` threads.
fn rows(out: &mut String, name: &str, g: &Graph, seed: u64, threads: usize) {
    let meter = Meter::enabled();
    let params = ExactParams { seed, ..ExactParams::default() };
    let r = with_pool(threads, || exact_mincut_metered(g, &params, &meter));
    let ExactStats { lambda_estimate, skeleton_p, skeleton_edges, num_trees, .. } = r.stats;
    let mut line = |field: &str, value: &dyn std::fmt::Display| {
        writeln!(out, "{name} {threads} {field} {value}").unwrap();
    };
    line("value", &r.cut.value);
    line("lambda_estimate", &lambda_estimate);
    line("skeleton_p", &format_args!("{skeleton_p:?}"));
    line("skeleton_edges", &skeleton_edges);
    line("num_trees", &num_trees);
    for kind in CostKind::ALL {
        line(kind.name(), &meter.get(kind));
    }
}

#[test]
fn benchmark_graphs_do_pinned_work() {
    let graphs = [
        (
            "nearclique-150",
            generators::near_clique(150, 0.15, 48, &mut StdRng::seed_from_u64(1)),
        ),
        ("powerlaw-800", pmc_bench::workloads::power_law(800, 1).graph),
    ];
    let mut actual = String::new();
    for (name, g) in &graphs {
        for threads in [1, 2] {
            rows(&mut actual, name, g, 7, threads);
        }
    }
    assert!(actual == EXPECTED, "work moved; the measured table is:\n{actual}");
}
