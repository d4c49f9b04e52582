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

/// The library portion of one source file: the lines before its first
/// `#[cfg(test)]`, each with its `//` comment stripped so documentation
/// can still *discuss* the patterns a lint counts.
pub fn library_code(source: &str) -> impl Iterator<Item = &str> {
    source
        .lines()
        .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"))
        .map(|line| line.split("//").next().unwrap_or(line))
}
