//! Public-surface ratchet: a crate's count of `pub` items may fall
//! freely and may rise only with an edit to the pin below.
//!
//! Every public item is something the next change has to keep working,
//! document and test; ROADMAP aim 2 counts it as a cost. This test walks
//! each workspace crate's sources, counts the lines outside `#[cfg(test)]`
//! modules that open a `pub fn | struct | enum | trait | const | type |
//! mod | use | static` item (`pub(crate)` and fields are not surface), and
//! fails when a crate exceeds its pin. Lowering a pin after a deletion
//! keeps the ratchet tight; raising one is a statement, in review, that
//! the new item earns its place.

mod lint_common;

use lint_common::{library_code, rust_sources, workspace_root};

/// `(crate directory under crates/, pinned count of pub items)`.
const PINS: &[(&str, usize)] = &[
    ("baselines", 32),
    ("bench", 7),
    ("cli", 0),
    ("community", 20),
    // −6: the uncalled scoped-thread batch engine's three entry points,
    // `BatchOutcome::{is_ok, ok, err}` and `IsolatedExecutor::index` go
    // (−7); the panic-injection seam moves onto the executor as the hidden
    // `IsolatedExecutor::run_hooked` (+1) — `IsolatedExecutor` is the one
    // isolated query runner.
    ("core", 166),
    ("datagen", 36),
    ("dynamic", 61),
    ("eval", 17),
    // −2: the `components` module and its `weakly_connected_components`
    // (one test caller; a BFS from one node says the same).
    ("graph", 96),
    // −1: the flat-vs-blocked result checker (no second layout to
    // compare).
    ("harness", 9),
    ("linalg", 52),
    ("serve", 58),
    // −12: the exact-only spellings of the one inversion driver — the
    // five `invert_*` forwarders, the dead nnz-sum helper, the four public
    // `SolveWorkspace` solves and `InvertOptions::{sequential, parallel}`
    // (`ε = 0` of `sparsify_*_with` is the exact inverse).
    ("sparse", 163),
];

const ITEM_KEYWORDS: [&str; 9] =
    ["fn", "struct", "enum", "trait", "const", "type", "mod", "use", "static"];

/// Lines of library code in `source` that open a public item.
fn pub_items(source: &str) -> usize {
    library_code(source)
        .filter(|code| {
            let mut words = code.split_whitespace();
            words.next() == Some("pub") && words.next().is_some_and(|w| ITEM_KEYWORDS.contains(&w))
        })
        .count()
}

#[test]
fn public_surface_does_not_grow() {
    let root = workspace_root();
    let mut crates: Vec<String> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    crates.sort();
    let pinned: Vec<&str> = PINS.iter().map(|&(name, _)| name).collect();
    assert_eq!(crates, pinned, "PINS must name every crate under crates/, sorted");

    let mut violations = Vec::new();
    for &(name, pin) in PINS {
        let mut files = Vec::new();
        rust_sources(&root.join("crates").join(name).join("src"), &mut files);
        let count: usize =
            files.iter().map(|path| pub_items(&std::fs::read_to_string(path).unwrap())).sum();
        if count > pin {
            violations.push(format!(
                "kdash-{name}: {count} pub items (pinned: {pin}) — make the new item private or \
                 pub(crate), or justify it and raise the pin in tests/lint_public_surface.rs"
            ));
        }
    }
    assert!(violations.is_empty(), "\n{}\n", violations.join("\n"));
}
