//! Reproduction-map lint: every test `REPRODUCTION.md` cites exists.
//!
//! The map is how a reader checks a paper item against the code; a row
//! that names a test nobody can find (a rename, a deletion) sends them
//! nowhere. This test reads every backticked citation of a test in the
//! map and fails unless the file it names defines a `fn` of that name.
//! The citation forms are:
//!
//! * `module::tests::name` — a test of a library module, in whichever
//!   crate's `src/` holds `module.rs` (a nested `a::b` is `a/b.rs`);
//! * `…::name` — another test in the module or file cited just before;
//! * `tests/x.rs::name` — a test in a root test file;
//! * `tests/x.rs` (`a`, `b`) — tests in it, listed in parentheses; a bare
//!   `tests/x.rs` only has to exist.
//!
//! A citation that starts like a continuation in any other spelling
//! (`::name`, `..::name`) is refused, so that the map keeps one.

#[allow(dead_code)] // this lint reads no library code
mod lint_common;

use lint_common::{rust_sources, workspace_root};
use std::path::{Path, PathBuf};

/// One cited test, or one malformed citation.
#[derive(Debug, PartialEq)]
enum Citation {
    /// `name` must be a `fn` of `file` (a root test file) or of the
    /// library module `module`.
    Test { place: Place, name: String },
    /// A root test file cited without a test.
    File(String),
    /// A citation in no accepted form.
    Malformed(String),
}

#[derive(Debug, Clone, PartialEq)]
enum Place {
    File(String),
    Module(String),
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(is_ident_char)
}

/// The citations of tests in `text`, in order.
fn citations(text: &str) -> Vec<Citation> {
    let mut out = Vec::new();
    let mut last: Option<Place> = None;
    // The file whose parenthesised list of names is open.
    let mut listing: Option<String> = None;
    let mut rest = text;
    while let Some(open) = rest.find('`') {
        let before = &rest[..open];
        if listing.is_some() && before.contains(')') {
            listing = None;
        }
        let Some(len) = rest[open + 1..].find('`') else { break };
        let span = &rest[open + 1..open + 1 + len];
        rest = &rest[open + 2 + len..];
        if let Some(file) = &listing {
            if is_ident(span) {
                out.push(Citation::Test { place: Place::File(file.clone()), name: span.into() });
                continue;
            }
        }
        listing = None;
        let (path, name) = match span.rsplit_once("::") {
            Some((path, name)) => (path, name),
            None => (span, ""),
        };
        if span.starts_with("tests/") && name.is_empty() {
            if !(span.ends_with(".rs") && is_ident(&span["tests/".len()..span.len() - 3])) {
                out.push(Citation::Malformed(span.into()));
                continue;
            }
            last = Some(Place::File(span.into()));
            out.push(Citation::File(span.into()));
            if rest.trim_start().starts_with('(') {
                listing = Some(span.into());
            }
        } else if span.starts_with("tests/") {
            if !is_ident(name) || !path.ends_with(".rs") {
                out.push(Citation::Malformed(span.into()));
                continue;
            }
            last = Some(Place::File(path.into()));
            out.push(Citation::Test { place: Place::File(path.into()), name: name.into() });
        } else if path == "…" {
            match (&last, is_ident(name)) {
                (Some(place), true) => {
                    out.push(Citation::Test { place: place.clone(), name: name.into() })
                }
                _ => out.push(Citation::Malformed(span.into())),
            }
        } else if span.starts_with("::") || span.starts_with("..::") {
            out.push(Citation::Malformed(span.into()));
        } else if let Some(module) = path.strip_suffix("::tests") {
            if !is_ident(name) || !module.split("::").all(is_ident) {
                out.push(Citation::Malformed(span.into()));
                continue;
            }
            last = Some(Place::Module(module.into()));
            out.push(Citation::Test { place: Place::Module(module.into()), name: name.into() });
        }
    }
    out
}

/// The library files that can hold module `module`: `module.rs` or
/// `module/mod.rs` under some crate's `src/` (`a::b` is `a/b.rs`).
fn module_files(root: &Path, module: &str) -> Vec<PathBuf> {
    let mut files = Vec::new();
    rust_sources(&root.join("crates"), &mut files);
    let rel = module.replace("::", "/");
    files
        .into_iter()
        .filter(|path| {
            let path = path.to_string_lossy().replace('\\', "/");
            path.contains("/src/")
                && (path.ends_with(&format!("/src/{rel}.rs"))
                    || path.ends_with(&format!("/src/{rel}/mod.rs")))
        })
        .collect()
}

/// Whether `source` defines a `fn name`.
fn defines_fn(source: &str, name: &str) -> bool {
    source.match_indices(&format!("fn {name}")).any(|(at, found)| {
        let next = source[at + found.len()..].chars().next();
        let prev = source[..at].chars().next_back();
        next.is_some_and(|c| c == '(' || c == '<') && !prev.is_some_and(is_ident_char)
    })
}

#[test]
fn citations_parse_in_every_accepted_form() {
    let text = "| `rwr::tests::a`, `…::b` | `tests/x.rs::c`, `…::d` | `tests/y.rs` (`e`, `f`) and \
                `g` | `searcher::refine::tests::h`; `::i`, `..::j`, `tests/y.rs`, `kdash_sparse::lu`";
    let module =
        |m: &str, n: &str| Citation::Test { place: Place::Module(m.into()), name: n.into() };
    let file = |f: &str, n: &str| Citation::Test { place: Place::File(f.into()), name: n.into() };
    assert_eq!(
        citations(text),
        vec![
            module("rwr", "a"),
            module("rwr", "b"),
            file("tests/x.rs", "c"),
            file("tests/x.rs", "d"),
            Citation::File("tests/y.rs".into()),
            file("tests/y.rs", "e"),
            file("tests/y.rs", "f"),
            module("searcher::refine", "h"),
            Citation::Malformed("::i".into()),
            Citation::Malformed("..::j".into()),
            Citation::File("tests/y.rs".into()),
        ]
    );
    assert!(defines_fn("    fn a_test() {}\n", "a_test"));
    assert!(!defines_fn("    fn a_test_too() {}\n", "a_test"));
}

#[test]
fn every_test_the_reproduction_map_cites_exists() {
    let root = workspace_root();
    let map = std::fs::read_to_string(root.join("REPRODUCTION.md")).unwrap();
    let cited = citations(&map);
    let tests = cited.iter().filter(|c| matches!(c, Citation::Test { .. })).count();
    assert!(tests >= 20, "found only {tests} cited tests: is the map still parsed?");
    let mut missing = Vec::new();
    for citation in &cited {
        match citation {
            Citation::Malformed(span) => missing.push(format!(
                "`{span}`: not a citation form the map uses — write `…::name` to continue \
                 the previous module or file (see tests/lint_reproduction.rs)"
            )),
            Citation::File(file) => {
                if !root.join(file).is_file() {
                    missing.push(format!("`{file}`: no such file"));
                }
            }
            Citation::Test { place, name } => {
                let files = match place {
                    Place::File(file) => vec![root.join(file)],
                    Place::Module(module) => module_files(&root, module),
                };
                let found = files.iter().any(|path| {
                    std::fs::read_to_string(path).is_ok_and(|source| defines_fn(&source, name))
                });
                if !found {
                    missing.push(format!("{place:?}: no `fn {name}` in {files:?}"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "REPRODUCTION.md cites what does not exist:\n{}",
        missing.join("\n")
    );
}
