//! What the source lints (`lint_error_hygiene`, `lint_public_surface`)
//! share: where the workspace is, which files a crate holds, and which
//! part of a file is library code.

use std::path::{Path, PathBuf};

pub fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/harness; the workspace root is two up.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

/// Recursively collects `.rs` files under `dir`.
pub fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The library portion of one source file: the lines before the
/// `#[cfg(test)]` that opens a `mod`, each with its `//` comment stripped
/// so documentation can still *discuss* the patterns a lint counts. A
/// test-only item or field above that module (a `#[cfg(test)] fn`, a
/// probe field) does not end the library code.
pub fn library_code(source: &str) -> impl Iterator<Item = &str> {
    let lines: Vec<&str> = source.lines().collect();
    let end = (0..lines.len()).find(|&at| opens_test_mod(&lines[at..])).unwrap_or(lines.len());
    lines.into_iter().take(end).map(|line| line.split("//").next().unwrap_or(line))
}

/// Whether `lines` start with a `#[cfg(test)]` whose item, past any
/// further attributes, is a module.
fn opens_test_mod(lines: &[&str]) -> bool {
    let Some(rest) = lines[0].trim_start().strip_prefix("#[cfg(test)]") else {
        return false;
    };
    let item = std::iter::once(rest)
        .chain(lines[1..].iter().copied())
        .map(str::trim_start)
        .find(|line| !line.is_empty() && !line.starts_with("#["));
    item.is_some_and(|line| {
        let line = line.strip_prefix("pub(crate) ").or(line.strip_prefix("pub ")).unwrap_or(line);
        line.starts_with("mod ")
    })
}
