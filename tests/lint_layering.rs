//! Layering lint: six decisions stay behind the module that owns them.
//!
//! * How `U⁻¹` is laid out is `kdash-sparse`'s business. The tiers that
//!   change or serve an index hand the store column updates and take a
//!   store back; library code there that names a layout type, or an
//!   accessor that reveals one, has started to know what a splice does to
//!   which array.
//! * Inside `kdash-core`, the raw arrays behind a store are the file
//!   format's (`persist.rs`) alone: nothing else there builds a store from
//!   arrays or reads its arrays back. The audit re-proves a store through
//!   `ProximityStore::check` and reads its rows through the query path's
//!   accessors.
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

/// What names the store's encoding: layout types and accessors, then the
/// raw-array constructor and accessor (see [`names`]).
const LAYOUT_NAMES: [&str; 5] =
    ["RowLayout", "decode_row_into", "CsrMatrix", RAW_ARRAYS[0], RAW_ARRAYS[1]];

/// The store's raw-array constructor and accessor. `raw` is matched as
/// the call alone, since a variable may be called `raw`; within
/// `kdash-core` any other type's raw arrays are the format's business
/// too, so the spellings need not tell the store apart.
const RAW_ARRAYS: [&str; 2] = ["from_raw_parts", ".raw()"];

/// The library files in `crates/core/src` that may name [`RAW_ARRAYS`]:
/// the file format.
const RAW_ARRAY_OWNERS: [&str; 1] = ["crates/core/src/persist.rs"];

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

/// Whether `code` holds `pattern` as a whole token: where the pattern
/// starts or ends with an identifier character, the code may not continue
/// that identifier there.
fn names(code: &str, pattern: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(pattern).any(|(at, _)| {
        let before = code[..at].chars().next_back().filter(|_| pattern.starts_with(ident));
        let after = code[at + pattern.len()..].chars().next().filter(|_| pattern.ends_with(ident));
        !before.is_some_and(ident) && !after.is_some_and(ident)
    })
}

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
        LAYOUT_NAMES.iter().any(|name| names(code, name))
    });
    assert!(sites.is_empty(), "go through ProximityStore, not its layout: {sites:?}");
}

#[test]
fn only_the_format_and_its_fsck_reach_the_raw_arrays_in_core() {
    let sites = library_lines(&["crates/core/src"], |code| {
        RAW_ARRAYS.iter().any(|pattern| names(code, pattern))
    });
    let stray: Vec<_> =
        sites.iter().filter(|s| !RAW_ARRAY_OWNERS.iter().any(|f| s.contains(f))).collect();
    assert!(stray.is_empty(), "raw arrays outside {RAW_ARRAY_OWNERS:?}: {stray:?}");
    for owner in RAW_ARRAY_OWNERS {
        assert!(
            sites.iter().any(|s| s.contains(owner)),
            "{owner} names no raw array any more — drop it from RAW_ARRAY_OWNERS"
        );
    }
}

#[test]
fn a_pattern_names_only_whole_tokens() {
    assert!(names("let (p, i, v) = store.raw();", ".raw()"));
    assert!(!names("for (n, raw) in lines { raw.trim(); }", ".raw()"));
    assert!(names("ProximityStore::from_raw_parts(n, n, a)", "from_raw_parts"));
    assert!(!names("Thing::from_raw_parts_unchecked(a)", "from_raw_parts"));
    assert!(!names("type MyRowLayout = u8;", "RowLayout"));
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
