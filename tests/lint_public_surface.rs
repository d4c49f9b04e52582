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
    // −7: the paper's yardsticks leave the serving types for one
    // `paper` module with one spelling each — the index's and the
    // searcher's `top_k_unpruned`, `top_k_random_root` and
    // `top_k_from_root`, `top_k_merge_join` and `top_k_from_set_replay`
    // go (−8), `pub mod estimator` and its root re-export go (−2), the
    // hidden v4 writer (−1) and the uncalled Figure 5/6 ordering list
    // (−1); `pub mod paper`, its three functions and its estimator
    // re-export come (+5). The count now runs past a test-only item above
    // the test module; before this pin it read 166 either way. Then +1:
    // `fault::replace_atomic`, the one temp → fsync → rename → dir-fsync
    // protocol `save_atomic_with` and the journal's checkpoint share (the
    // journal's copy had drifted from it). Then −1:
    // `IndexAudit::total_findings` (one finding per check, no cap to count
    // past).
    ("core", 159),
    ("datagen", 36),
    ("dynamic", 61),
    ("eval", 17),
    // −1: `BfsTree::check_invariants` becomes test-only (only graph's own
    // tests call it). Then +2: `CsrGraph::check` and `Permutation::check`,
    // the constructors' own validation run on a built graph and
    // permutation (the index audit's one statement of them). Then +2:
    // `csr::check_pointers` and its `PointerFault`, the one pointer-array
    // rule the graph's, `L⁻¹`'s and `U⁻¹`'s raw-array validators share.
    ("graph", 99),
    // −1: the flat-vs-blocked result checker (no second layout to
    // compare).
    ("harness", 9),
    ("linalg", 52),
    // −1: `ServeLoop::queue_depth` (no caller; the metrics' high-water
    // mark is what the tier reports).
    ("serve", 57),
    // −4: the gather-kernel request layer folds into the one
    // `ResolvedKernel` token — the request enum with its `ALL`, `name`
    // and `resolve`, and `ResolvedKernel::is_simd` go (−5), the hidden
    // `ResolvedKernel::{reference, host_bodies}` come (+2); and
    // the blocked encoding's `row_values` turns private (−1). Then −1:
    // `ProximityStore::row_stats`, the table gone (a row's stats are read
    // off the encoding by `row_stat`). Then −20: the blocked encoding
    // folds into `ProximityStore` — the encoding's own type and its 20
    // methods go (−21), as do the store's two accessors to it (−2) and
    // `pub mod blocked` (−1, its one constant stays re-exported); the
    // store takes over `from_raw_parts`, `raw`, `num_runs` and `row_runs`
    // (+4). Its forwarders became the methods themselves. Then +2: the
    // build's inversion stage, both triangles in one worker pool —
    // `sparsify_factors_with` and the `SparsifiedFactors` it returns.
    // Then +1: `CscMatrix::check` and `ProximityStore::check`, the
    // constructors' own validation run on a built matrix and store (+2),
    // and the hidden `ProximityStore::column_sums_mut` goes (−1): the
    // store's own test stales a column sum now.
    ("sparse", 141),
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
fn test_only_items_above_the_library_do_not_hide_it() {
    let source = "\
pub struct Shown;
#[cfg(test)]
fn probe() {}
pub fn still_library() {}
#[cfg(test)]
#[allow(dead_code)]
mod tests {
    pub fn hidden() {}
}
";
    assert_eq!(pub_items(source), 2);
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
