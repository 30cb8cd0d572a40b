//! Every `pub fn` has a caller. A public function under `crates/*/src`
//! whose name appears, outside comments and string literals, only in its
//! own definition and in unit tests (the trailing `mod tests` of any crate
//! source, its own file's or another's) is code that nothing runs but
//! tests, and this test fails on it. A doctest is a comment here: it does
//! not count as a caller. The callers it counts are every `.rs` file under
//! `crates/`, `src/`, `tests/`, `examples/` and `benchmark/src`, less the
//! crate sources' unit test modules, read and never written.
//!
//! The limit: this is a name check, not a call graph. A common name
//! (`new`, `len`, `remove`) always passes, because some other definition or
//! call spells it; a function that only another uncalled function calls
//! passes too. It never flags a function that is in use. To tell a file's
//! tests apart it also holds that every `#[cfg(test)]` in `crates/*/src` is
//! one trailing `mod tests` that runs to the end of the file.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// The `.rs` files under `dir`, recursively; none if `dir` is absent.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable entry").path();
        if path.is_dir() && !path.ends_with("target") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `src` with every comment and the contents of every string literal
/// blanked to spaces. Char literals are skipped, so `'"'` opens no string.
fn blank_comments_and_strings(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 0;
                loop {
                    if b[i..].starts_with(b"/*") {
                        depth += 1;
                        out[i..i + 2].fill(b' ');
                        i += 2;
                    } else if b[i..].starts_with(b"*/") {
                        depth -= 1;
                        out[i..i + 2].fill(b' ');
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if b[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'r' if (b.get(i + 1) == Some(&b'"') || b[i + 1..].starts_with(b"#\""))
                && (i == 0 || !is_ident(b[i - 1])) =>
            {
                let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
                let mut close = vec![b'"'];
                close.resize(hashes + 1, b'#');
                i += hashes + 2;
                while !b[i..].starts_with(&close) {
                    out[i] = b' ';
                    i += 1;
                }
                i += close.len();
            }
            b'"' => {
                i += 1;
                while b[i] != b'"' {
                    let step = if b[i] == b'\\' { 2 } else { 1 };
                    out[i..i + step].fill(b' ');
                    i += step;
                }
                i += 1;
            }
            // A char literal ('x', '\n', '"'); a lifetime ('a) is left alone.
            b'\'' if b.get(i + 1) == Some(&b'\\') => {
                i += 2;
                while b[i] != b'\'' {
                    i += 1;
                }
                i += 1;
            }
            b'\'' if b.get(i + 2) == Some(&b'\'') => i += 3,
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("only whole comments and string contents are blanked")
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Every identifier in `code`, with its byte offset.
fn identifiers(code: &str) -> impl Iterator<Item = (usize, &str)> {
    let b = code.as_bytes();
    let mut i = 0;
    std::iter::from_fn(move || {
        while i < b.len() && !is_ident(b[i]) {
            i += 1;
        }
        let start = i;
        while i < b.len() && is_ident(b[i]) {
            i += 1;
        }
        (start < i).then(|| (start, &code[start..i]))
    })
}

/// The byte offset where `code`'s trailing `#[cfg(test)] mod tests { … }`
/// starts, or its length if it has none. Panics if a `#[cfg(test)]` is
/// anything other than that one trailing module.
fn test_module_start(file: &Path, code: &str) -> usize {
    let mut marks = code.match_indices("#[cfg(test)]").map(|(at, _)| at);
    let Some(at) = marks.next() else {
        return code.len();
    };
    let shape = || {
        format!(
            "{}: `#[cfg(test)]` must be one trailing `mod tests`",
            file.display()
        )
    };
    assert!(marks.next().is_none(), "{}", shape());
    let rest = code[at + "#[cfg(test)]".len()..].trim_start();
    let body = rest.strip_prefix("mod tests").map(str::trim_start);
    let body = body
        .and_then(|b| b.strip_prefix('{'))
        .unwrap_or_else(|| panic!("{}", shape()));
    let mut depth = 1;
    let close = body.bytes().position(|c| {
        depth += i32::from(c == b'{') - i32::from(c == b'}');
        depth == 0
    });
    let close = close.unwrap_or_else(|| panic!("{}", shape()));
    assert!(body[close + 1..].trim().is_empty(), "{}", shape());
    at
}

#[test]
fn every_public_function_has_a_caller_outside_its_own_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();

    // How often each name is spelled outside the crate sources' unit
    // test modules, and every `pub fn` of a crate source: its file and name.
    let mut uses: HashMap<String, usize> = HashMap::new();
    let mut defined: Vec<(&Path, &str)> = Vec::new();
    let sources: Vec<(&Path, String)> = files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).expect("readable source");
            (
                f.strip_prefix(root).expect("under the root"),
                blank_comments_and_strings(&text),
            )
        })
        .collect();
    for (rel, code) in &sources {
        let crate_src = rel.starts_with("crates")
            && rel
                .components()
                .nth(2)
                .is_some_and(|c| c.as_os_str() == "src");
        let tests_at = if crate_src {
            test_module_start(rel, code)
        } else {
            code.len()
        };
        for (at, ident) in identifiers(&code[..tests_at]) {
            *uses.entry(ident.to_owned()).or_default() += 1;
            let line_so_far = code[..at].rsplit('\n').next().unwrap_or_default().trim();
            if crate_src && (line_so_far == "pub fn" || line_so_far == "pub const fn") {
                defined.push((rel, ident));
            }
        }
    }

    // Outside every unit test module, a `pub fn`'s name must appear more
    // than once: once is its definition.
    let uncalled: Vec<String> = defined
        .iter()
        .filter(|(_, name)| uses[*name] <= 1)
        .map(|(rel, name)| format!("{}: {name}", rel.display()))
        .collect();
    assert!(
        uncalled.is_empty(),
        "{} `pub fn`s have no caller outside their own unit tests; delete them or call them:\n{}",
        uncalled.len(),
        uncalled.join("\n")
    );
}
