//! Layering lint: two decisions stay behind the module that owns them.
//!
//! * How `U⁻¹` is laid out is `kdash-sparse`'s business. The tiers that
//!   change or serve an index hand the store column updates and take a
//!   store back; library code there that names a layout type, or an
//!   accessor that reveals one, has started to know what a splice does to
//!   which array.
//! * The bounds' constants are computed by
//!   `kdash_core::estimator::BoundConstants::of`; a second spelling of the
//!   `c′` formula in library code is a derivation that can drift from it.

mod lint_common;

use lint_common::{library_code, rust_sources, workspace_root};

const LAYOUT_NAMES: [&str; 5] =
    ["RowLayout", "as_blocked", "decode_row_into", "BlockedCsr", "CsrMatrix"];

/// `c′ = (1−c)/(1 − A_uu + c·A_uu)` as this workspace spells it, up to the
/// name of the diagonal entry.
const C_PRIME_FORMULA: &str = "(1.0 - c) / (1.0 - ";

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
