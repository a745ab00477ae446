//! The `pmc` binary rejects out-of-range arguments with an `error:`
//! line and exit code 2 instead of panicking inside a library
//! `assert!`, and still answers a valid request.

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
