//! Layering lint: five decisions stay behind the module that owns them.
//!
//! * How `U⁻¹` is laid out is `kdash-sparse`'s business. The tiers that
//!   change or serve an index hand the store column updates and take a
//!   store back; library code there that names a layout type, or an
//!   accessor that reveals one, has started to know what a splice does to
//!   which array.
//! * The bounds' constants are computed by
//!   `kdash_core::estimator::BoundConstants::of`; a second spelling of the
//!   `c′` formula in library code is a derivation that can drift from it.
//! * And they are derived by their owner: the index constructor
//!   (`KdashIndex::assemble`, in `precompute.rs`) calls that function on
//!   the graph it is handed, and the audit calls it as its independent
//!   recompute — nothing else does. A build, a load or an update that
//!   derived them itself and handed them in beside a graph could hand in
//!   the constants of another graph.
//! * Threads start in two places: the serving tier's worker pool and the
//!   inversion's column-solve pool. A third engine in library code is one
//!   more concurrent structure to test and explore, so it needs an edit
//!   here, in review.
//! * What proves stays apart from what serves: the paper's yardsticks
//!   (`kdash_core::paper`) and the kernel seams of the bit-identity suites
//!   (`Searcher::with_kernel`, `ResolvedKernel::{reference, host_bodies}`)
//!   are oracles, so the tiers that serve or change an index never name
//!   them — a query there runs the one serving kernel through the one
//!   driver.

mod lint_common;

use lint_common::{library_code, rust_sources, workspace_root};

const LAYOUT_NAMES: [&str; 5] =
    ["RowLayout", "as_blocked", "decode_row_into", "BlockedCsr", "CsrMatrix"];

/// `c′ = (1−c)/(1 − A_uu + c·A_uu)` as this workspace spells it, up to the
/// name of the diagonal entry.
const C_PRIME_FORMULA: &str = "(1.0 - c) / (1.0 - ";

/// What only the oracles and the suites that hold the driver to them
/// may name.
const YARDSTICK_NAMES: [&str; 4] = ["paper::", "with_kernel", "reference()", "host_bodies"];

/// The library files that may call `BoundConstants::of`: the index
/// constructor and the audit.
const BOUND_DERIVERS: [&str; 2] = ["crates/core/src/precompute.rs", "crates/core/src/audit.rs"];

/// The library files that may start a thread.
const THREAD_OWNERS: [&str; 2] = ["crates/serve/src/server.rs", "crates/sparse/src/inverse.rs"];

/// `file:line` of every library line under `dirs` that `matches`.
fn library_lines(dirs: &[&str], matches: impl Fn(&str) -> bool) -> Vec<String> {
    let mut files = Vec::new();
    for dir in dirs {
        rust_sources(&workspace_root().join(dir), &mut files);
    }
    let mut sites = Vec::new();
    for path in files {
        let source = std::fs::read_to_string(&path).unwrap();
        for (line, code) in library_code(&source).enumerate() {
            if matches(code) {
                sites.push(format!("{}:{}", path.display(), line + 1));
            }
        }
    }
    sites
}

#[test]
fn update_and_serving_tiers_do_not_name_the_row_layout() {
    let sites = library_lines(&["crates/dynamic/src", "crates/serve/src"], |code| {
        code.split(|c: char| !(c.is_alphanumeric() || c == '_')).any(|w| LAYOUT_NAMES.contains(&w))
    });
    assert!(sites.is_empty(), "go through ProximityStore, not its layout: {sites:?}");
}

#[test]
fn c_prime_is_derived_in_one_place() {
    let sites = library_lines(&["crates"], |code| code.contains(C_PRIME_FORMULA));
    assert_eq!(sites.len(), 1, "{sites:?}");
    assert!(sites[0].contains("crates/core/src/estimator.rs"), "{sites:?}");
}

#[test]
fn the_constructor_derives_the_bound_constants() {
    let sites = library_lines(&["crates"], |code| code.contains("BoundConstants::of("));
    for owner in BOUND_DERIVERS {
        let calls = sites.iter().filter(|s| s.contains(owner)).count();
        assert_eq!(calls, 1, "{owner} must call BoundConstants::of once: {sites:?}");
    }
    assert_eq!(sites.len(), BOUND_DERIVERS.len(), "only {BOUND_DERIVERS:?} derive: {sites:?}");
}

#[test]
fn threads_start_only_in_the_two_pools() {
    let sites = library_lines(&["crates"], |code| {
        ["thread::scope", "thread::spawn", ".spawn("].iter().any(|p| code.contains(p))
    });
    // Benches and binaries (`src/bin`, and the CLI's `src/main.rs` with
    // its load-generator clients) are not library code.
    let library: Vec<&String> = sites
        .iter()
        .filter(|s| !["crates/bench/", "/src/bin/", "/src/main.rs:"].iter().any(|p| s.contains(p)))
        .collect();
    let stray: Vec<_> =
        library.iter().filter(|s| !THREAD_OWNERS.iter().any(|f| s.contains(f))).collect();
    assert!(stray.is_empty(), "a thread starts outside {THREAD_OWNERS:?}: {stray:?}");
    for owner in THREAD_OWNERS {
        assert!(
            library.iter().any(|s| s.contains(owner)),
            "{owner} starts no thread any more — drop it from THREAD_OWNERS"
        );
    }
}

#[test]
fn serving_and_update_tiers_do_not_name_the_yardsticks() {
    let sites = library_lines(&["crates/dynamic/src", "crates/serve/src"], |code| {
        YARDSTICK_NAMES.iter().any(|name| code.contains(name))
    });
    assert!(sites.is_empty(), "serve through the one driver and its default kernel: {sites:?}");
}
