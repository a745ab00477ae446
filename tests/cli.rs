//! The `pmc` binary rejects out-of-range arguments with an `error:`
//! line and exit code 2, and an unreadable graph file with an `error:`
//! line and exit code 1, instead of panicking inside a library
//! `assert!`, and still answers a valid request. A graph with fewer
//! than 2 vertices gets the same no-cut line from every solver.

use std::path::PathBuf;
use std::process::{Command, Output};

fn pmc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pmc")).args(args).output().expect("pmc runs")
}

/// A per-test file in the system temp directory.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pmc-cli-{}-{name}", std::process::id()))
}

fn assert_rejected(args: &[&str]) {
    let out = pmc(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: stderr {stderr}");
}

#[test]
fn approx_rejects_eps_outside_unit_interval() {
    let graph = temp_path("approx.txt");
    let graph_arg = graph.to_str().expect("utf-8 temp path");
    let out = pmc(&["gen", "sparse", "40", graph_arg]);
    assert!(out.status.success(), "gen: {}", String::from_utf8_lossy(&out.stderr));
    for eps in ["0", "2", "-1", "nan", "abc"] {
        assert_rejected(&["approx", graph_arg, eps]);
    }
    let out = pmc(&["approx", graph_arg, "0.5"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "approx 0.5: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.starts_with("(1±0.5) approximation: "), "approx 0.5: {stdout}");
    std::fs::remove_file(&graph).ok();
}

#[test]
fn gen_rejects_sizes_below_each_generators_minimum() {
    let out_file = temp_path("gen.txt");
    let out_arg = out_file.to_str().expect("utf-8 temp path");
    let too_small =
        [("nonsparse", "1"), ("sparse", "1"), ("heavy", "2"), ("planted", "3"), ("grid", "0")];
    for (kind, n) in too_small {
        assert_rejected(&["gen", kind, n, out_arg]);
    }
    assert!(!out_file.exists(), "a rejected gen must not write its output");
}

#[test]
fn stats_rejects_a_vertex_count_beyond_u32() {
    let graph = temp_path("huge-n.txt");
    let graph_arg = graph.to_str().expect("utf-8 temp path");
    for header in ["p 4294967294 0", "p 4294967295 1", "p 4294967296 1", "p 5000000000 0"] {
        std::fs::write(&graph, format!("{header}\ne 0 1 1\n")).expect("temp file written");
        let out = pmc(&["stats", graph_arg]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{header}: stderr {stderr}");
        assert!(stderr.starts_with("error: "), "{header}: stderr {stderr}");
        assert!(stderr.contains("vertices"), "{header}: stderr {stderr}");
    }
    std::fs::remove_file(&graph).ok();
}

#[test]
fn every_solver_reports_no_cut_below_two_vertices() {
    let graph = temp_path("one-vertex.txt");
    let graph_arg = graph.to_str().expect("utf-8 temp path");
    std::fs::write(&graph, "p 1 0\n").expect("temp file written");
    for args in [
        &["approx", graph_arg][..],
        &["approx", graph_arg, "0.5"],
        &["oracle", graph_arg],
        &["exact", graph_arg],
    ] {
        let out = pmc(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(stdout, "graph has fewer than 2 vertices: no cut\n", "{args:?}");
    }
    std::fs::remove_file(&graph).ok();
}
