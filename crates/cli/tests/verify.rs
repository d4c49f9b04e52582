//! `kdash verify` end to end: generate a graph, build an index from it
//! (dense and sparsified), and audit the file through the binary.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The audit's sections, in the order `kdash verify` reports them.
const SECTIONS: [&str; 7] =
    ["header", "permutation", "graph", "linv", "uinv", "estimator", "sparsify"];

/// Runs `kdash` with `args`, asserts it exits 0, and returns its stdout.
fn kdash(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_kdash")).args(args).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "kdash {args:?} failed: {stdout}{stderr}");
    stdout
}

/// A fresh directory for one test, under the system temp directory.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kdash-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// Generates a ≈ 300-node graph in `dir` and builds an index of it at
/// `index` with the extra build `flags`.
fn build_index(dir: &Path, index: &Path, flags: &[&str]) {
    let edges = dir.join("edges.txt");
    kdash(&["gen", "dictionary", path(&edges), "--nodes", "300", "--seed", "7"]);
    kdash(&[&["build", path(&edges), path(index)], flags].concat());
}

#[test]
fn verify_reports_every_section_clean_on_both_tiers() {
    let dir = scratch_dir("verify");
    for (name, flags) in [("dense", &[][..]), ("sparsified", &["--drop-tol", "1e-4"][..])] {
        let index = dir.join(format!("{name}.kdash"));
        build_index(&dir, &index, flags);
        let out = kdash(&["verify", path(&index)]);
        let reported: Vec<&str> = out
            .lines()
            .filter_map(|line| line.strip_prefix("section "))
            .filter_map(|rest| rest.split_whitespace().next())
            .collect();
        assert_eq!(reported, SECTIONS, "{name}: {out}");
        assert!(out.lines().any(|line| line == "verify: clean"), "{name}: {out}");
        let summary = out.lines().find(|line| line.starts_with("{\"index\":")).unwrap();
        assert!(summary.contains("\"clean\":true,\"findings\":0,"), "{name}: {summary}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn verify_escapes_the_index_path_in_its_json_line() {
    let dir = scratch_dir("verify-escape");
    let index = dir.join("a\"b\\c.kdash");
    build_index(&dir, &index, &[]);
    let out = kdash(&["verify", path(&index)]);
    let escaped = path(&index).replace('\\', "\\\\").replace('"', "\\\"");
    let summary = out.lines().find(|line| line.starts_with("{\"index\":")).unwrap();
    assert!(summary.starts_with(&format!("{{\"index\":\"{escaped}\",\"version\":")), "{summary}");
    std::fs::remove_dir_all(&dir).unwrap();
}
