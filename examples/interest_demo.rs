//! Figure 1 of the paper, reproduced as a runnable program.
//!
//! The figure illustrates the *interest* relation (Definition 4.7) on a
//! small unweighted graph with a rooted spanning tree: edge `e` is
//! cross-interested in `f`, `f` in `e`, and `e'` is down-interested in
//! `f`. This program builds the graph, prints the full interest matrix,
//! and highlights the relations from the caption.
//!
//! ```sh
//! cargo run --release --example interest_demo
//! ```

use parallel_mincut::prelude::*;
use pmc_mincut::{CutQuery, InterestEngine, InterestSearch, InterestStrategy};
use pmc_tree::RootedTree;

fn main() {
    // The Figure-1 shape: solid tree edges, dashed non-tree edges that
    // concentrate weight between the subtree below e and the subtree
    // below f (unweighted in the figure; the dashed pair is modelled as
    // one edge of weight 2).
    //
    //            r=0
    //           /    \
    //          1      2
    //          |      |
    //    e ->  3      4  <- e'
    //                 |
    //                 5  <- f
    //    dashed: (3,5) weight 2
    let g = Graph::from_edges(
        6,
        [
            (0, 1, 1),
            (0, 2, 1),
            (1, 3, 1), // e  = tree edge with lower endpoint 3
            (2, 4, 1), // e' = tree edge with lower endpoint 4
            (4, 5, 1), // f  = tree edge with lower endpoint 5
            (3, 5, 2), // the dashed cross edges
        ],
    );
    let tree = std::sync::Arc::new(RootedTree::from_parents(0, &[0, 0, 0, 1, 2, 4]));
    let meter = Meter::disabled();
    let lca = LcaEngine::build(&tree, LcaStrategy::default(), &meter);
    let q = CutQuery::build(&g, &tree, &lca, 0.5, &meter);
    let engine = InterestEngine::build(&tree, InterestStrategy::default(), &meter);
    let search = InterestSearch::new(&q, &lca, &engine);

    let name = |v: u32| match v {
        3 => "e ",
        4 => "e'",
        5 => "f ",
        v => ["t1", "t2"][(v - 1) as usize],
    };

    println!("tree edges (by lower endpoint), their cov = w(Te):");
    for v in 1..6u32 {
        println!("  edge {} (vertex {v}): cov = {}", name(v), q.cov(v));
    }

    println!("\ninterest matrix (row edge interested in column edge?):");
    print!("      ");
    for f in 1..6u32 {
        print!("{:>4}", name(f));
    }
    println!();
    for e in 1..6u32 {
        print!("  {:>4}", name(e));
        for f in 1..6u32 {
            let mark = if e == f {
                "  . "
            } else if search.interesting(e, f, &meter) {
                "  X "
            } else {
                "  - "
            };
            print!("{mark}");
        }
        println!();
    }

    // The caption's three relations.
    let (e, f, e_prime) = (3u32, 5u32, 4u32);
    assert!(search.interesting(e, f, &meter), "e must be cross-interested in f");
    assert!(search.interesting(f, e, &meter), "f must be cross-interested in e");
    assert!(search.interesting(e_prime, f, &meter), "e' must be down-interested in f");
    println!("\nFigure 1 caption verified:");
    println!("  e  cross-interested in f   : yes");
    println!("  f  cross-interested in e   : yes");
    println!("  e' down-interested in f    : yes");

    // And the machinery built on it: the minimum 2-respecting cut of the
    // tree is the pair (e, f) — cutting both isolates the dashed mass.
    let out = two_respecting_mincut(&g, &tree, &TwoRespectParams::default(), &meter);
    println!(
        "\nminimum 2-respecting cut: value {} via pair ({}, {})",
        out.cut.value,
        name(out.pair.0),
        name(out.pair.1)
    );
    let oracle = stoer_wagner_mincut(&g);
    assert_eq!(out.cut.value, oracle.value);
    println!("matches the true minimum cut ({}).", oracle.value);
}
