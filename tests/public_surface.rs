//! The public surface stays audited: every `pub fn` / `pub const` /
//! `pub static` of a workspace crate is named somewhere outside that
//! crate's own library code — another crate, a bin, the facade, a
//! test, a bench, an example, `benchmark/`, or one of the crate's own
//! doctests (which compile as outside callers). Those are the item
//! kinds that can only be used by name; types and traits can be reached
//! through a signature without being spelled, so the compiler holds
//! that line (`pub(crate)` by default, `dead_code` under `-D warnings`).
//!
//! Name-based, so it can only under-report (a method name shared by
//! several types counts as used) and needs no allowlist. An item this
//! test lists is either dead — delete it — or crate-internal — make it
//! `pub(crate)` and let the lint decide.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
}

/// The fenced code of a file's doc comments: its doctests.
fn doctests(text: &str) -> String {
    let mut fenced = false;
    let mut out = String::new();
    for line in text.lines().map(str::trim_start) {
        match line.strip_prefix("///").or(line.strip_prefix("//!")) {
            Some(doc) if doc.trim_start().starts_with("```") => fenced = !fenced,
            Some(doc) if fenced => out.extend([doc, "\n"]),
            Some(_) => {}
            None => fenced = false,
        }
    }
    out
}

/// The NAME of a `pub (const )?(fn|const|static) NAME` line.
fn public_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = ["const fn ", "fn ", "const ", "static "]
        .iter()
        .find_map(|kind| rest.strip_prefix(kind))?;
    words(rest).next()
}

#[test]
fn every_public_function_is_named_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in [
        "crates",
        "src",
        "tests",
        "examples",
        "benchmark/src",
        "benchmark/tests",
    ] {
        rust_files(&root.join(dir), &mut files);
    }
    let files: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path).expect("source file");
            (path, text)
        })
        .collect();

    let mut orphans = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("crate dir").path().join("src");
        // A crate's library: its `src/`, bins aside.
        let (own, outside): (Vec<_>, Vec<_>) = files
            .iter()
            .partition(|(path, _)| path.starts_with(&src) && !path.starts_with(src.join("bin")));
        let own_doctests: Vec<String> = own.iter().map(|(_, text)| doctests(text)).collect();
        let used: HashSet<&str> = outside
            .iter()
            .map(|(_, text)| text.as_str())
            .chain(own_doctests.iter().map(String::as_str))
            .flat_map(words)
            .collect();
        for (path, text) in own {
            let code = text.split("#[cfg(test)]").next().unwrap_or_default();
            for line in code.lines().filter(|l| !l.trim_start().starts_with("//")) {
                if let Some(name) = public_name(line).filter(|name| !used.contains(name)) {
                    orphans.push(format!("{}: {name}", path.display()));
                }
            }
        }
    }
    assert!(
        orphans.is_empty(),
        "pub items nothing outside their crate names ({}):\n{}",
        orphans.len(),
        orphans.join("\n")
    );
}
