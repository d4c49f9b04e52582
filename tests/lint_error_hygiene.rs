//! Error-hygiene lint: library code must not grow new `unwrap()` /
//! `expect(` call sites.
//!
//! The robustness story — typed `PersistError`s, budget aborts,
//! panic-isolated queries — only holds if the library itself doesn't
//! panic on the paths those errors are supposed to cover. This test walks
//! every library crate's sources (tests, benches and binaries excluded),
//! counts panic-prone call sites outside `#[cfg(test)]` modules, and fails
//! if any file's count differs from its frozen allowance — above it, or
//! below it, where the spare budget would absorb the next new site
//! unnoticed.
//!
//! The allowlist below is the audited baseline: each entry is a call
//! site that was reviewed and found unreachable-by-construction (e.g.
//! an index freshly validated two lines above) or deliberately fatal
//! (e.g. a poisoned lock where unwinding is the right answer). Removing a
//! site means lowering its entry in the same change; adding one means a
//! new panic path slipped into library code — convert it to a typed error
//! instead, or argue its safety in review and bump the entry.

mod lint_common;

use lint_common::{library_code, rust_sources, workspace_root};
use std::collections::BTreeMap;

/// `(file path relative to the workspace root, audited call-site count)`.
const ALLOWLIST: &[(&str, usize)] = &[
    ("crates/baselines/src/blin.rs", 5),
    ("crates/baselines/src/bpa.rs", 3),
    ("crates/baselines/src/lib.rs", 1),
    ("crates/baselines/src/nblin.rs", 2),
    ("crates/community/src/louvain.rs", 1),
    // `LayerEstimator::advance` before a first `record_selected` is a
    // caller bug, not an input: `estimator::tests` pins the panic with
    // `#[should_panic]`.
    ("crates/core/src/estimator.rs", 1),
    ("crates/core/src/ordering.rs", 1),
    ("crates/datagen/src/ba.rs", 1),
    ("crates/datagen/src/collaboration.rs", 1),
    ("crates/datagen/src/dictionary.rs", 1),
    ("crates/datagen/src/er.rs", 1),
    ("crates/datagen/src/rmat.rs", 1),
    ("crates/datagen/src/sbm.rs", 2),
    ("crates/datagen/src/ws.rs", 1),
    ("crates/eval/src/timing.rs", 1),
    // `symmetrize`'s `expect`: not on the load path. An index build calls
    // it (for the clustering orderings) only after its weight-total
    // check, which keeps the sum of both directions of a pair finite.
    ("crates/graph/src/csr.rs", 1),
    ("crates/linalg/src/eigen.rs", 1),
    ("crates/linalg/src/svd.rs", 2),
    ("crates/sparse/src/rwr.rs", 1),
    // `to_csr`'s `expect`: `benchmark/` names the infallible `to_csc`
    // signature on top of it. Not on the load path: the loader builds a
    // store through `from_raw_parts`, which validates, and decodes none.
    ("crates/sparse/src/store.rs", 1),
];

/// Counts `.unwrap()` / `.expect(` call sites in the library portion of
/// one source file.
fn panic_sites(source: &str) -> usize {
    library_code(source)
        .map(|code| code.matches(".unwrap()").count() + code.matches(".expect(").count())
        .sum()
}

#[test]
fn library_code_does_not_grow_panic_sites() {
    let root = workspace_root();
    let allowed: BTreeMap<&str, usize> = ALLOWLIST.iter().copied().collect();

    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = entry.unwrap().path();
        // Benches are throwaway measurement code; binaries (src/bin) are
        // covered by their own CLI-level error handling.
        if krate.file_name().is_some_and(|n| n == "bench") {
            continue;
        }
        let src = krate.join("src");
        if src.is_dir() {
            rust_sources(&src, &mut files);
        }
    }
    assert!(files.len() > 30, "the source walk found too few files — lint is miswired");

    let mut violations = Vec::new();
    let mut seen = Vec::new();
    for path in files {
        let rel = path.strip_prefix(&root).unwrap().to_string_lossy().replace('\\', "/");
        if rel.contains("/src/bin/") {
            continue;
        }
        let count = panic_sites(&std::fs::read_to_string(&path).unwrap());
        let budget = allowed.get(rel.as_str()).copied().unwrap_or(0);
        if count > budget {
            violations.push(format!(
                "{rel}: {count} unwrap()/expect( call sites in library code \
                 (allowed: {budget}) — return a typed error instead, or audit \
                 the site and bump the allowlist in tests/lint_error_hygiene.rs"
            ));
        } else if count < budget {
            // Spare budget would silently absorb the next new panic site.
            violations.push(format!(
                "{rel}: {count} unwrap()/expect( call sites in library code \
                 (allowed: {budget}) — lower the allowlist entry to {count}, or \
                 remove it at 0"
            ));
        }
        if allowed.contains_key(rel.as_str()) {
            seen.push(rel);
        }
    }

    // A stale allowlist entry (file deleted or renamed) silently grants
    // budget to nothing; flag it so the list tracks reality.
    for (file, _) in ALLOWLIST {
        assert!(
            seen.iter().any(|s| s == file),
            "allowlist entry {file} matches no source file — remove or update it"
        );
    }

    assert!(violations.is_empty(), "\n{}\n", violations.join("\n"));
}

#[test]
fn hardened_files_stay_at_zero() {
    // The durability/robustness subsystems must stay panic-free in
    // library code — they are deliberately *not* in the allowlist. A
    // recovery path that can panic defeats its own purpose (journal.rs
    // and fault.rs run exactly when the process is picking up after a
    // crash), and the serving tier holds the same bar: a panic in a
    // worker, the epoch store, or the metrics path takes down queries
    // that admission control promised to answer.
    let root = workspace_root();
    for file in [
        "crates/core/src/persist.rs",
        "crates/core/src/batch.rs",
        "crates/core/src/audit.rs",
        "crates/core/src/fault.rs",
        "crates/dynamic/src/journal.rs",
        "crates/serve/src/lib.rs",
        "crates/serve/src/epoch.rs",
        "crates/serve/src/metrics.rs",
        "crates/serve/src/queue.rs",
        "crates/serve/src/server.rs",
    ] {
        let source = std::fs::read_to_string(root.join(file)).unwrap();
        assert_eq!(panic_sites(&source), 0, "{file} must stay free of unwrap/expect");
    }
}
