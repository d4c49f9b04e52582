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

/// Every node ordering `kdash build` takes.
const ORDERINGS: [&str; 7] =
    ["natural", "random", "degree", "cluster", "hybrid", "rcm", "mindegree"];

/// Edge lists whose weights sum past what a build can sum: the first's
/// two directions of one pair add up to ∞ in the undirected view the
/// clustering orderings build, and the second's node 0 has an infinite
/// out-weight, which would store its column of `A` as zeros.
const HUGE_WEIGHTS: [&str; 2] =
    ["0 1 1e308\n1 0 1e308\n1 2 1\n2 0 1\n", "0 1 1e308\n0 2 1e308\n1 0 1\n2 0 1\n"];

#[test]
fn huge_finite_weights_are_refused_typed_and_a_tenth_of_them_builds() {
    let dir = scratch_dir("huge-weights");
    let index = dir.join("huge.kdash");
    for (i, text) in HUGE_WEIGHTS.iter().enumerate() {
        let huge = dir.join(format!("huge{i}.txt"));
        let tenth = dir.join(format!("tenth{i}.txt"));
        std::fs::write(&huge, text).unwrap();
        std::fs::write(&tenth, text.replace("1e308", "1e307")).unwrap();
        for ordering in ORDERINGS {
            let out = Command::new(env!("CARGO_BIN_EXE_kdash"))
                .args(["build", path(&huge), path(&index), "--ordering", ordering])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "file {i}, {ordering}: {stderr}");
            assert!(stderr.contains("edge weights sum to inf"), "file {i}, {ordering}: {stderr}");
            kdash(&["build", path(&tenth), path(&index), "--ordering", ordering]);
            if i == 1 {
                // Node 0 splits its walk evenly between nodes 1 and 2.
                let out = kdash(&["query", path(&index), "0", "--k", "3"]);
                for node in ["node 1 ", "node 2 "] {
                    let line = out.lines().find(|line| line.contains(node)).unwrap();
                    assert!(line.ends_with("proximity 2.380952e-2"), "{ordering}: {out}");
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
