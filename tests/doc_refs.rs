//! The prose documents cite only paths that exist: every inline code
//! span in README.md, docs/ARCHITECTURE.md and the verify skill that
//! is rooted at a source directory of this repository (`crates/`,
//! `tests/`, `examples/`, `docs/`, `src/`, `benchmark/`, `.github/`)
//! must name a file or directory of the checkout. A leading `/` means
//! the repository root. A span containing `*` is a glob and is
//! skipped; a `::item` or `:line` suffix is dropped before the check.
//! Fenced code blocks are skipped: their commands cite paths inside
//! other checkouts and build directories.

use std::fs;
use std::path::Path;

const DOCUMENTS: [&str; 3] = [
    "README.md",
    "docs/ARCHITECTURE.md",
    ".claude/skills/verify/SKILL.md",
];

const ROOTS: [&str; 7] = [
    "crates/",
    "tests/",
    "examples/",
    "docs/",
    "src/",
    "benchmark/",
    ".github/",
];

/// The inline code spans of a markdown text, outside fenced blocks.
fn code_spans(text: &str) -> Vec<String> {
    let mut fenced = false;
    let mut prose = String::new();
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.extend([line, "\n"]);
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}

/// The repository path a code span cites, if it is rooted at one of
/// [`ROOTS`] and is not a glob.
fn cited_path(span: &str) -> Option<&str> {
    let span = span.trim();
    let span = span.strip_prefix('/').unwrap_or(span);
    if !ROOTS.iter().any(|root| span.starts_with(root)) || span.contains('*') {
        return None;
    }
    let path = span.split_whitespace().next()?;
    let path = path.split("::").next()?;
    path.split(':').next()
}

#[test]
fn rooted_paths_in_the_docs_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut checked = 0;
    for document in DOCUMENTS {
        let text = fs::read_to_string(root.join(document)).expect("document");
        for span in code_spans(&text) {
            if let Some(path) = cited_path(&span) {
                checked += 1;
                if !root.join(path).exists() {
                    missing.push(format!("{document}: `{span}`"));
                }
            }
        }
    }
    assert!(checked > 0, "no rooted path found: the scanner is stale");
    assert!(
        missing.is_empty(),
        "docs cite paths that do not exist ({}):\n{}",
        missing.len(),
        missing.join("\n")
    );
}

#[test]
fn spans_and_paths_are_read_as_documented() {
    let text = "`crates/dd` and `/tests/x.rs::case`\n```bash\ncargo `crates/gone`\n```\n`src/a.rs:12` `crates/*/src` `cargo test`";
    let cited: Vec<_> = code_spans(text)
        .iter()
        .filter_map(|span| cited_path(span).map(str::to_owned))
        .collect();
    assert_eq!(cited, ["crates/dd", "tests/x.rs", "src/a.rs"]);
}
