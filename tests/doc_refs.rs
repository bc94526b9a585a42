//! The docs name only what exists.
//!
//! README.md and PAPER.md point into the code: backticked `crates/…`
//! paths, and the types and functions they say live there. Code moves and
//! the prose does not follow by itself, so this test reads both documents
//! and checks every such reference:
//!
//! - every backticked `crates/…` path exists (a `:line` suffix is
//!   dropped: line numbers move with every change and are not checked);
//! - every symbol named with a source file is defined in that file — a
//!   backticked `Type`, `fn`, `Type::method` or `name()` in the
//!   parentheses right after the file (`` `crates/x.rs` (`Foo`, `bar`) ``),
//!   just before it (`` `Foo::bar` in `crates/x.rs` ``,
//!   `` `bar` (`crates/x.rs`) ``), or joined to it (`crates/x.rs::bar`).
//!
//! "Defined" means the file declares the name as an item (`fn`, `struct`,
//! `enum`, `trait`, `type`, `const`, `static`, `mod`, a macro), or as a
//! field or an enum variant; for a path like `Type::method` the last
//! segment must be defined and the first must occur in the file.

use std::fs;
use std::path::Path;

/// One backticked span of a line: its byte range (backticks included) and
/// its text.
struct Span<'a> {
    start: usize,
    end: usize,
    text: &'a str,
}

fn spans(line: &str) -> Vec<Span<'_>> {
    let mut out = Vec::new();
    let mut rest = 0;
    while let Some(open) = line[rest..].find('`').map(|i| rest + i) {
        let Some(close) = line[open + 1..].find('`').map(|i| open + 1 + i) else {
            break;
        };
        out.push(Span {
            start: open,
            end: close + 1,
            text: &line[open + 1..close],
        });
        rest = close + 1;
    }
    out
}

/// Rust keywords prose puts in backticks — "two `unsafe` blocks" — that
/// name no item.
const KEYWORDS: [&str; 8] = [
    "unsafe", "async", "dyn", "impl", "mut", "pub", "self", "Self",
];

/// `Foo`, `foo_bar`, `Foo::bar`, `bar()`: the shapes a symbol takes in
/// prose.
fn is_symbol(text: &str) -> bool {
    let text = text.strip_suffix("()").unwrap_or(text);
    !text.is_empty()
        && !KEYWORDS.contains(&text)
        && text.split("::").all(|segment| {
            let mut chars = segment.chars();
            chars
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
        })
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `word` occurs in `source` as a whole identifier.
fn mentions(source: &str, word: &str) -> bool {
    source.match_indices(word).any(|(at, _)| {
        let before = source[..at].chars().next_back();
        let after = source[at + word.len()..].chars().next();
        !before.is_some_and(is_ident_char) && !after.is_some_and(is_ident_char)
    })
}

/// Whether `source` declares `name`: as an item, a field or a variant.
fn defines(source: &str, name: &str) -> bool {
    const ITEMS: [&str; 9] = [
        "fn ",
        "struct ",
        "enum ",
        "trait ",
        "type ",
        "const ",
        "static ",
        "mod ",
        "macro_rules! ",
    ];
    let item = ITEMS.iter().any(|keyword| {
        let declared = format!("{keyword}{name}");
        source.match_indices(&declared).any(|(at, _)| {
            let before = source[..at].chars().next_back();
            let after = source[at + declared.len()..].chars().next();
            !before.is_some_and(is_ident_char) && !after.is_some_and(is_ident_char)
        })
    });
    item || source.lines().any(|line| {
        let line = line.trim_start();
        let line = line
            .strip_prefix("pub(crate) ")
            .or_else(|| line.strip_prefix("pub "))
            .unwrap_or(line);
        line.strip_prefix(name)
            .and_then(|rest| rest.chars().next())
            .is_some_and(|c| matches!(c, ',' | '(' | ' ' | ':' | '{'))
    })
}

/// What is wrong with `symbol` as a name defined in `file`, if anything.
fn check_symbol(root: &Path, file: &str, symbol: &str, problems: &mut Vec<String>) {
    let Ok(source) = fs::read_to_string(root.join(file)) else {
        return; // the missing path is reported on its own
    };
    let symbol = symbol.strip_suffix("()").unwrap_or(symbol);
    let segments: Vec<&str> = symbol.split("::").collect();
    let (first, last) = (segments[0], segments[segments.len() - 1]);
    if !defines(&source, last) || (segments.len() > 1 && !mentions(&source, first)) {
        problems.push(format!("`{symbol}` is not defined in `{file}`"));
    }
}

/// Every reference problem in one document.
fn check_document(root: &Path, doc: &str) -> Vec<String> {
    let text = fs::read_to_string(root.join(doc)).expect("the document exists");
    let mut problems = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let mut found = Vec::new();
        let spans = spans(line);
        for (i, span) in spans.iter().enumerate() {
            if !span.text.starts_with("crates/") {
                continue;
            }
            let (path, joined) = match span.text.split_once("::") {
                Some((path, symbol)) => (path, Some(symbol)),
                None => (span.text, None),
            };
            let path = match path.rsplit_once(':') {
                Some((file, line)) if line.chars().all(|c| c.is_ascii_digit()) => file,
                _ => path,
            };
            if !root.join(path).exists() {
                found.push(format!("`{path}` does not exist"));
                continue;
            }
            if !path.ends_with(".rs") {
                continue;
            }
            let mut symbols: Vec<&str> = joined.into_iter().collect();
            // `crates/x.rs` (`Foo`, `bar`, …): the parenthetical after it.
            if line[span.end..].starts_with(" (") {
                let close = closing_paren(line, span.end + 1);
                symbols.extend(
                    spans[i + 1..]
                        .iter()
                        .take_while(|s| s.end <= close)
                        .map(|s| s.text)
                        .filter(|text| is_symbol(text)),
                );
            }
            // `Foo::bar` in `crates/x.rs`, and `bar` (`crates/x.rs`) — with
            // `a`/`b` naming both.
            let gap = |j: usize| &line[spans[j - 1].end..spans[j].start];
            if i > 0 && matches!(gap(i), " in " | " (") {
                let mut j = i - 1;
                while is_symbol(spans[j].text) {
                    symbols.push(spans[j].text);
                    if j == 0 || gap(j) != "/" {
                        break;
                    }
                    j -= 1;
                }
            }
            for symbol in symbols {
                check_symbol(root, path, symbol, &mut found);
            }
        }
        problems.extend(
            found
                .into_iter()
                .map(|p| format!("{doc}:{}: {p}", number + 1)),
        );
    }
    problems
}

/// The byte offset of the `)` closing the `(` at `open`, or the line's
/// end.
fn closing_paren(line: &str, open: usize) -> usize {
    let mut depth = 0usize;
    for (at, c) in line[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' if depth <= 1 => return open + at,
            ')' => depth -= 1,
            _ => {}
        }
    }
    line.len()
}

#[test]
fn every_path_and_symbol_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let problems: Vec<String> = ["README.md", "PAPER.md"]
        .iter()
        .flat_map(|doc| check_document(root, doc))
        .collect();
    assert!(
        problems.is_empty(),
        "{} stale reference(s):\n{}",
        problems.len(),
        problems.join("\n")
    );
}

#[test]
fn the_checker_catches_a_moved_function_and_a_missing_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = std::env::temp_dir().join(format!("sft-doc-refs-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    let doc = dir.join("DOC.md");
    fs::write(
        &doc,
        "| row | `crates/network/src/tcp.rs` (`flush_loop` writer), \
         `crates/network/src/socket.rs` (`flush_loop`, `io_loop`), \
         `crates/network/src/gone.rs`, `FrameDecoder::read_from` in \
         `crates/network/src/frame.rs` |\n",
    )
    .expect("write doc");
    let problems = check_document(root, doc.to_str().expect("utf-8 path"));
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(problems.len(), 2, "{problems:#?}");
    assert!(problems[0].ends_with("`flush_loop` is not defined in `crates/network/src/tcp.rs`"));
    assert!(problems[1].ends_with("`crates/network/src/gone.rs` does not exist"));
}
