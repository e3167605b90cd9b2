//! The prose documents cite only paths and symbols that exist.
//!
//! Paths: every inline code span in README.md, docs/ARCHITECTURE.md and
//! the verify skill that is rooted at a source directory of this
//! repository (`crates/`, `tests/`, `examples/`, `docs/`, `src/`,
//! `benchmark/`, `.github/`) must name a file or directory of the
//! checkout. A leading `/` means the repository root. A span containing
//! `*` is a glob and is skipped; a `::item` suffix is dropped before the
//! check.
//!
//! Line numbers: a span that cites a `file.rs:NN` line is rejected,
//! rooted or not. Line numbers go stale with any edit above them; cite
//! the file and a symbol in it instead.
//!
//! Symbols: every `Head::member` pair in an inline code span whose
//! `Head` is CamelCase must have its `Head` declared (`struct`, `enum`,
//! `trait`, `type`) or implemented (`impl Head`, `impl Trait for Head`)
//! and its `member` declared (`fn`, `const`, a field or a variant) in
//! some Rust file under `crates/`, `src/`, `tests/` or `examples/`.
//! Name-based: the member need not sit on that head, so a rename of a
//! type or the deletion of a method's last declaration is what fails.
//! [`SYMBOL_ALLOWLIST`] holds the cites of std items. A bare
//! `name()` span must name a `fn` declared in the same trees, and a
//! span that is one CamelCase name once generics are stripped
//! (`SimStats`, `Arc<dyn PolicyFactory>`) must name a type, trait or
//! variant declared there; [`TYPE_ALLOWLIST`] holds the std and OS
//! names the docs cite that way.
//!
//! Fenced code blocks are skipped by every check: their commands cite
//! paths inside other checkouts and build directories.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCUMENTS: [&str; 3] = [
    "README.md",
    "docs/ARCHITECTURE.md",
    ".claude/skills/verify/SKILL.md",
];

/// Symbol cites of items outside the workspace.
const SYMBOL_ALLOWLIST: [(&str, &str); 1] = [("Index", "index")];

/// Bare type cites of names outside the workspace: std types and
/// traits, and the kernel's peak-RSS field.
const TYPE_ALLOWLIST: [&str; 8] = [
    "Arc",
    "Clone",
    "HashMap",
    "HashSet",
    "String",
    "TcpListener",
    "Vec",
    "VmHWM",
];

/// The source trees symbol cites resolve against.
const SOURCE_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

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

/// Whether a code span cites a line of a Rust file (`file.rs:NN`).
fn cites_a_line(span: &str) -> bool {
    span.split(".rs:")
        .skip(1)
        .any(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
}

#[test]
fn rooted_paths_in_the_docs_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut checked = 0;
    for document in DOCUMENTS {
        let text = fs::read_to_string(root.join(document)).expect("document");
        for span in code_spans(&text) {
            if cites_a_line(&span) {
                missing.push(format!("{document}: `{span}` cites a line number"));
            }
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
        "docs cite missing paths or line numbers ({}):\n{}",
        missing.len(),
        missing.join("\n")
    );
}

#[test]
fn spans_and_paths_are_read_as_documented() {
    let text = "`crates/dd` and `/tests/x.rs::case`\n```bash\ncargo `crates/gone`\n```\n`src/a.rs:12` `crates/*/src` `cargo test`";
    let spans = code_spans(text);
    let cited: Vec<_> = spans
        .iter()
        .filter_map(|span| cited_path(span).map(str::to_owned))
        .collect();
    assert_eq!(cited, ["crates/dd", "tests/x.rs", "src/a.rs"]);
    let line_cites: Vec<_> = spans.iter().filter(|span| cites_a_line(span)).collect();
    assert_eq!(line_cites, ["src/a.rs:12"]);
    assert!(cites_a_line("see pool.rs:88 and ops.rs"));
    assert!(!cites_a_line("tests/x.rs::case"));
}

/// `span` with every `<…>` group removed, so `Arena<T>::get` reads
/// `Arena::get`. An unmatched `>` (as in `->`) is kept.
fn without_generics(span: &str) -> String {
    let mut depth = 0usize;
    let mut out = String::new();
    for c in span.chars() {
        match c {
            '<' => depth += 1,
            '>' if depth > 0 => depth -= 1,
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

fn is_camel_case(word: &str) -> bool {
    word.starts_with(|c: char| c.is_ascii_uppercase())
        && word.contains(|c: char| c.is_ascii_lowercase())
}

fn is_ident(word: &str) -> bool {
    word.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
        && word.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The `(Head, member)` pairs a code span cites: consecutive segments
/// of every `a::b::c` path whose head is CamelCase.
fn symbol_cites(span: &str) -> Vec<(String, String)> {
    let span = without_generics(span);
    let mut cites = Vec::new();
    for path in span.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':')) {
        let segments: Vec<&str> = path.split("::").collect();
        for pair in segments.windows(2) {
            if is_camel_case(pair[0]) && is_ident(pair[1]) {
                cites.push((pair[0].to_owned(), pair[1].to_owned()));
            }
        }
    }
    cites
}

/// The function a bare `name()` span cites.
fn bare_fn_cite(span: &str) -> Option<&str> {
    span.trim().strip_suffix("()").filter(|name| is_ident(name))
}

/// The type a span cites when it is one CamelCase name, generics
/// stripped: `SimStats`, `Arc<dyn PolicyFactory>` (cites `Arc`).
fn bare_type_cite(span: &str) -> Option<String> {
    let name = without_generics(span);
    let name = name.trim();
    (is_ident(name) && is_camel_case(name)).then(|| name.to_owned())
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The first identifier of `text`, `None` if it does not start with one.
fn leading_ident(text: &str) -> Option<&str> {
    let end = text
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(text.len());
    let word = &text[..end];
    is_ident(word).then_some(word)
}

/// What a source text declares: type names (declared or the self type
/// of an `impl`), member names (`fn`, `const`, fields, variants), and
/// among them the `fn` names.
#[derive(Default)]
struct Declared {
    heads: HashSet<String>,
    members: HashSet<String>,
    fns: HashSet<String>,
}

impl Declared {
    fn scan(&mut self, text: &str) {
        for line in text.lines() {
            let line = line.trim_start();
            let line = ["pub(crate) ", "pub(super) ", "pub "]
                .iter()
                .find_map(|vis| line.strip_prefix(vis))
                .unwrap_or(line);
            for (keyword, into_heads) in [
                ("struct ", true),
                ("enum ", true),
                ("trait ", true),
                ("type ", true),
                ("fn ", false),
                ("const fn ", false),
                ("const ", false),
            ] {
                if let Some(name) = line.strip_prefix(keyword).and_then(leading_ident) {
                    if keyword.ends_with("fn ") {
                        self.fns.insert(name.to_owned());
                    }
                    let set = if into_heads {
                        &mut self.heads
                    } else {
                        &mut self.members
                    };
                    set.insert(name.to_owned());
                }
            }
            if let Some(rest) = line.strip_prefix("impl") {
                if rest.starts_with([' ', '<']) {
                    // The self type: after the last ` for `, else the
                    // whole header; the last path segment, generics dropped.
                    let header = without_generics(rest.split(['{', '\n']).next().unwrap_or(""));
                    let header = header.split(" where ").next().unwrap_or("");
                    let target = header.rsplit(" for ").next().unwrap_or("").trim();
                    if let Some(name) = target.rsplit("::").next().and_then(leading_ident) {
                        self.heads.insert(name.to_owned());
                    }
                }
            }
            if let Some(name) = leading_ident(line) {
                let rest = &line[name.len()..];
                let field = rest.starts_with(':') && !rest.starts_with("::");
                let variant = name.starts_with(|c: char| c.is_ascii_uppercase())
                    && (rest == ","
                        || rest.starts_with('(')
                        || rest.starts_with(" {")
                        || rest.starts_with(" ="));
                if field || variant {
                    self.members.insert(name.to_owned());
                }
            }
        }
    }
}

#[test]
fn cited_symbols_in_the_docs_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in SOURCE_ROOTS {
        rust_files(&root.join(dir), &mut files);
    }
    let mut declared = Declared::default();
    for file in &files {
        declared.scan(&fs::read_to_string(file).expect("source file"));
    }
    let mut missing = Vec::new();
    let mut checked = 0;
    for document in DOCUMENTS {
        let text = fs::read_to_string(root.join(document)).expect("document");
        for span in code_spans(&text) {
            if let Some(name) = bare_fn_cite(&span) {
                checked += 1;
                if !declared.fns.contains(name) {
                    missing.push(format!("{document}: no fn `{name}` in `{span}`"));
                }
            }
            if let Some(name) = bare_type_cite(&span) {
                if !TYPE_ALLOWLIST.contains(&name.as_str()) {
                    checked += 1;
                    if !declared.heads.contains(&name) && !declared.members.contains(&name) {
                        missing.push(format!("{document}: no type `{name}` in `{span}`"));
                    }
                }
            }
            for (head, member) in symbol_cites(&span) {
                if SYMBOL_ALLOWLIST.contains(&(head.as_str(), member.as_str())) {
                    continue;
                }
                checked += 1;
                if !declared.heads.contains(&head) || !declared.members.contains(&member) {
                    missing.push(format!("{document}: `{head}::{member}` in `{span}`"));
                }
            }
        }
    }
    assert!(checked > 0, "no symbol cite found: the scanner is stale");
    assert!(
        missing.is_empty(),
        "docs cite symbols nothing declares ({}):\n{}",
        missing.len(),
        missing.join("\n")
    );
}

#[test]
fn symbols_and_declarations_are_read_as_documented() {
    let cites = symbol_cites(
        "`approxdd_sim::Strategy::Exact`, <Arena<T>>::get, Arena<T>::sweep(x) -> y, dd::ops, MAX::x",
    );
    let cites: Vec<_> = cites.iter().map(|(h, m)| format!("{h}::{m}")).collect();
    assert_eq!(cites, ["Strategy::Exact", "Arena::sweep"]);
    assert_eq!(bare_fn_cite(" heal() "), Some("heal"));
    for not_bare in ["heal(x)", "pool.heal()", "Pool::heal()", "()", "a b()"] {
        assert_eq!(bare_fn_cite(not_bare), None, "{not_bare}");
    }
    assert_eq!(bare_type_cite(" SimStats ").as_deref(), Some("SimStats"));
    assert_eq!(
        bare_type_cite("Arc<dyn PolicyFactory>").as_deref(),
        Some("Arc")
    );
    for not_a_type in [
        "Pool::heal",
        "heal()",
        "MAX_SHOTS",
        "policy",
        "A B",
        "Vec<u8> x",
    ] {
        assert_eq!(bare_type_cite(not_a_type), None, "{not_a_type}");
    }

    let mut declared = Declared::default();
    declared.scan(
        "pub struct Kept {\n    pub(crate) field: u8,\n}\nenum E {\n    Unit,\n    Tuple(u8),\n    Named { x: u8 },\n}\n\
         impl<T: Clone> fmt::Display for Wrapper<T> where T: Copy {\n    pub const fn method(&self) {}\n}\n\
         impl<'a> Plain<'a> {\n    const LIMIT: usize = 1;\n}",
    );
    let mut heads: Vec<_> = declared.heads.iter().map(String::as_str).collect();
    heads.sort_unstable();
    assert_eq!(heads, ["E", "Kept", "Plain", "Wrapper"]);
    for member in ["field", "Unit", "Tuple", "Named", "method", "LIMIT"] {
        assert!(declared.members.contains(member), "{member}");
    }
    let fns: Vec<_> = declared.fns.iter().map(String::as_str).collect();
    assert_eq!(fns, ["method"]);
}
