//! The docs name only what exists.
//!
//! README.md, PAPER.md, ROADMAP.md and the verify skill
//! (`.claude/skills/verify/SKILL.md`) point into the code: backticked
//! `crates/…` paths, and the types and functions they say live there.
//! Code moves and the prose does not follow by itself, so this test reads
//! the documents and checks every such reference:
//!
//! - every backticked `crates/…` path exists (a `:line` suffix is
//!   dropped: line numbers move with every change and are not checked);
//!   `<crate>/src/…` and `<crate>/tests/…`, the short form ROADMAP.md
//!   writes, are read as `crates/<crate>/…` when that crate exists, and a
//!   span holding `…` or `*` is a pattern, not a path;
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
//!
//! Command lines are checked too: in README.md, PAPER.md, the verify
//! skill and the CI workflow, every `-p CRATE` after a `cargo` names a
//! workspace crate, every `--bin NAME` and `--test NAME` names a binary or
//! test target that crate (or, without `-p`, some workspace crate)
//! builds, and every binary run from `target/release/NAME` or
//! `target/debug/NAME` is one some workspace crate builds.

use std::collections::BTreeMap;
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
            let Some(text) = crate_path(root, span.text) else {
                continue;
            };
            let (path, joined) = match text.split_once("::") {
                Some((path, symbol)) => (path, Some(symbol)),
                None => (text.as_str(), None),
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

/// The `crates/…` path a backticked span names, if it names one: as
/// written, or with `crates/` put before a `<crate>/src/…` or
/// `<crate>/tests/…` short form when `crates/<crate>` exists. Spans with
/// `…` or `*` are patterns and name none.
fn crate_path(root: &Path, text: &str) -> Option<String> {
    if text.contains(['…', '*']) {
        return None;
    }
    if text.starts_with("crates/") {
        return Some(text.to_string());
    }
    let (krate, rest) = text.split_once('/')?;
    let short = (rest.starts_with("src/") || rest.starts_with("tests/"))
        && root.join("crates").join(krate).is_dir();
    short.then(|| format!("crates/{text}"))
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

/// The build-and-run notes kept beside the code.
const VERIFY_SKILL: &str = ".claude/skills/verify/SKILL.md";

#[test]
fn every_path_and_symbol_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let problems: Vec<String> = ["README.md", "PAPER.md", "ROADMAP.md", VERIFY_SKILL]
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

/// The `"…"` value of a `key = "…"` manifest line.
fn manifest_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let (k, v) = line.split_once('=')?;
    (k.trim() == key).then(|| v.trim().trim_matches('"'))
}

/// Every workspace crate's package name, with the targets (`bin NAME`,
/// `test NAME`) it builds: those its manifest declares, plus those Cargo
/// infers from `src/main.rs`, `src/bin/` and `tests/` — one per `*.rs`
/// file or per subdirectory with a `main.rs`, unless a declared target's
/// `path` claims that file (no crate here turns `autobins` or `autotests`
/// off).
fn workspace_targets(root: &Path) -> BTreeMap<String, Vec<String>> {
    let mut dirs = vec![root.to_path_buf()];
    let crates = fs::read_dir(root.join("crates")).expect("crates/ exists");
    dirs.extend(crates.map(|entry| entry.expect("readable crates/").path()));
    let mut out = BTreeMap::new();
    for dir in dirs {
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let (mut package, mut targets, mut declared, mut kind) = (None, vec![], vec![], "");
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                kind = match line {
                    "[package]" => "package",
                    "[[bin]]" => "bin",
                    "[[test]]" => "test",
                    _ => "",
                };
            } else if kind == "package" {
                package = package.or(manifest_value(line, "name"));
            } else if !kind.is_empty() {
                targets.extend(manifest_value(line, "name").map(|name| format!("{kind} {name}")));
                declared.extend(manifest_value(line, "path").map(|path| dir.join(path)));
            }
        }
        let Some(package) = package else { continue };
        let mut files = vec![(dir.join("src/main.rs"), format!("bin {package}"))];
        for (sub, kind) in [("src/bin", "bin"), ("tests", "test")] {
            let entries = fs::read_dir(dir.join(sub)).into_iter().flatten();
            for path in entries.map(|entry| entry.expect("readable dir").path()) {
                let name = path.file_stem().and_then(|n| n.to_str()).unwrap_or("");
                let target = format!("{kind} {name}");
                files.push(match path.is_dir() {
                    true => (path.join("main.rs"), target),
                    false => (path, target),
                });
            }
        }
        targets.extend(files.into_iter().filter_map(|(file, target)| {
            let rust = file.is_file() && file.extension().is_some_and(|e| e == "rs");
            (rust && !declared.contains(&file)).then_some(target)
        }));
        out.insert(package.to_string(), targets);
    }
    out
}

/// Every `-p`/`--package`, `--bin` and `--test` of a `cargo` command line
/// in `doc` that names no workspace crate, or a target its crate (without
/// `-p`, any workspace crate) does not build; and every
/// `target/{release,debug}/NAME` that no workspace crate builds as a
/// binary.
fn check_commands(root: &Path, doc: &str, crates: &BTreeMap<String, Vec<String>>) -> Vec<String> {
    let text = fs::read_to_string(root.join(doc)).expect("the document exists");
    let mut problems = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let words: Vec<&str> = line
            .split_whitespace()
            .map(|w| w.trim_matches(|c: char| !(c.is_ascii_alphanumeric() || "-_".contains(c))))
            .skip_while(|w| *w != "cargo")
            .collect();
        let mut package: Option<&str> = None;
        for pair in words.windows(2) {
            let (flag, value) = (pair[0], pair[1]);
            let problem = match flag {
                "-p" | "--package" => {
                    package = Some(value);
                    (!crates.contains_key(value))
                        .then(|| format!("`-p {value}` names no workspace crate"))
                }
                "--bin" | "--test" => {
                    let target = format!("{} {value}", &flag[2..]);
                    let built = crates.iter().any(|(krate, targets)| {
                        package.is_none_or(|p| p == krate) && targets.contains(&target)
                    });
                    let owner = package.map_or("any workspace crate".into(), |p| format!("`{p}`"));
                    (!built).then(|| format!("`{flag} {value}` is not a target of {owner}"))
                }
                _ => None,
            };
            problems.extend(problem.map(|p| format!("{doc}:{}: {p}", number + 1)));
        }
        for (at, _) in line.match_indices("target/") {
            let path = &line[at..];
            let end = path.find(|c: char| !(c.is_ascii_alphanumeric() || "-_/".contains(c)));
            let path = &path[..end.unwrap_or(path.len())];
            let name = path
                .strip_prefix("target/release/")
                .or_else(|| path.strip_prefix("target/debug/"));
            let Some(name) = name.filter(|name| !name.is_empty()) else {
                continue;
            };
            let target = format!("bin {name}");
            if !crates.values().any(|targets| targets.contains(&target)) {
                problems.push(format!(
                    "{doc}:{}: `{path}` is not a binary of any workspace crate",
                    number + 1
                ));
            }
        }
    }
    problems
}

#[test]
fn every_cargo_command_the_docs_give_names_a_real_crate_and_binary() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = workspace_targets(root);
    let problems: Vec<String> = [
        "README.md",
        "PAPER.md",
        ".github/workflows/ci.yml",
        VERIFY_SKILL,
    ]
    .iter()
    .flat_map(|doc| check_commands(root, doc, &crates))
    .collect();
    assert!(
        problems.is_empty(),
        "{} stale command line(s):\n{}",
        problems.len(),
        problems.join("\n")
    );
}

/// A fixture workspace with declared and inferred targets: the checker
/// names every flag that matches none, and only those.
#[test]
fn the_command_checker_catches_a_gone_target_and_a_wrong_crate() {
    let root = std::env::temp_dir().join(format!("sft-doc-refs-cmd-{}", std::process::id()));
    for dir in [
        "crates/tool/src/bin/multi",
        "crates/tool/tests/support",
        "crates/other",
    ] {
        fs::create_dir_all(root.join(dir)).expect("temp dir");
    }
    let files = [
        ("Cargo.toml", "[workspace]\n"),
        ("crates/other/Cargo.toml", "[package]\nname = \"other\"\n"),
        (
            "crates/tool/Cargo.toml",
            "[package]\nname = \"tool\"\n[[bin]]\nname = \"declared\"\n\
             path = \"src/bin/declared_file.rs\"\n[[test]]\nname = \"named\"\n\
             path = \"tests/named_file.rs\"\n",
        ),
        ("crates/tool/src/main.rs", ""),
        ("crates/tool/src/bin/declared_file.rs", ""),
        ("crates/tool/src/bin/auto.rs", ""),
        ("crates/tool/src/bin/multi/main.rs", ""),
        ("crates/tool/src/bin/notes.txt", ""),
        ("crates/tool/tests/it.rs", ""),
        ("crates/tool/tests/named_file.rs", ""),
        ("crates/tool/tests/support/helper.rs", ""),
        (
            "DOC.md",
            "cargo run --release -p tool --bin gone -- 4 10\n\
             `cargo test -q -p toolz`\n\
             cargo run -p other --bin auto\n\
             cargo build -p tool --bin tool --bin declared --bin auto --bin multi\n\
             mkdir -p gone && cargo run --bin auto\n\
             cargo run --bin gone\n\
             cargo test -p tool --test it --test named --test gone -- --ignored\n\
             cargo test -p tool --bin declared_file --test named_file --test support\n\
             target/release/gone --flag && target/debug/auto ./target/release/declared\n\
             timing `target/release/*`, not target/tmp/\n",
        ),
    ];
    for (path, text) in files {
        fs::write(root.join(path), text).expect("write fixture");
    }
    let problems = check_commands(&root, "DOC.md", &workspace_targets(&root));
    let _ = fs::remove_dir_all(&root);
    let expected = [
        ":1: `--bin gone` is not a target of `tool`",
        ":2: `-p toolz` names no workspace crate",
        ":3: `--bin auto` is not a target of `other`",
        ":6: `--bin gone` is not a target of any workspace crate",
        ":7: `--test gone` is not a target of `tool`",
        // A declared target's file infers no second name, and a
        // directory without a `main.rs` is no target.
        ":8: `--bin declared_file` is not a target of `tool`",
        ":8: `--test named_file` is not a target of `tool`",
        ":8: `--test support` is not a target of `tool`",
        ":9: `target/release/gone` is not a binary of any workspace crate",
    ];
    assert_eq!(problems.len(), expected.len(), "{problems:#?}");
    for (problem, want) in problems.iter().zip(expected) {
        assert!(problem.ends_with(want), "{problem} (wanted {want})");
    }
}

#[test]
fn the_checker_catches_a_moved_function_and_a_missing_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = std::env::temp_dir().join(format!("sft-doc-refs-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    let doc = dir.join("DOC.md");
    fs::write(
        &doc,
        "| row | `crates/network/src/tcp.rs` (`make_room` pump), \
         `crates/network/src/socket.rs` (`make_room`, `adopt_dialled`), \
         `crates/network/src/gone.rs`, `FrameDecoder::read_from` in \
         `crates/network/src/frame.rs` |\n",
    )
    .expect("write doc");
    let problems = check_document(root, doc.to_str().expect("utf-8 path"));
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(problems.len(), 2, "{problems:#?}");
    assert!(problems[0].ends_with("`make_room` is not defined in `crates/network/src/tcp.rs`"));
    assert!(problems[1].ends_with("`crates/network/src/gone.rs` does not exist"));
}

#[test]
fn the_checker_reads_short_crate_paths_and_skips_patterns() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = std::env::temp_dir().join(format!("sft-doc-refs-short-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    let doc = dir.join("DOC.md");
    fs::write(
        &doc,
        "- `network/src/frame.rs` (`FrameDecoder`, `make_room`), \
         `network/tests/gone.rs`, `crates/*/src`, `sim/src/…`, \
         `benchmark/src/cluster.rs`\n",
    )
    .expect("write doc");
    let problems = check_document(root, doc.to_str().expect("utf-8 path"));
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(problems.len(), 2, "{problems:#?}");
    assert!(problems[0].ends_with("`make_room` is not defined in `crates/network/src/frame.rs`"));
    assert!(problems[1].ends_with("`crates/network/tests/gone.rs` does not exist"));
}
