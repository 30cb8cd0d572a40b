//! Every `pub fn` has a caller. A public function under `crates/*/src`
//! that no code calls, outside comments, string literals and unit tests
//! (the trailing `mod tests` of any crate source, its own file's or
//! another's), is code that nothing runs but tests, and this test fails on
//! it. A doctest is a comment here: it does not count as a caller. The
//! callers it counts are every `.rs` file under `crates/`, `src/`, `tests/`,
//! `examples/` and `benchmark/src`, less the crate sources' unit test
//! modules, read and never written.
//!
//! A caller is call syntax, not a bare name: `.name(` (or `.name::<`) for a
//! method, `Type::name` or `module::name` as a call or as a value, and for a
//! free function also a bare `name(`. rustfmt puts a free function's `pub
//! fn` at the start of its line and a method's inside its indented `impl`,
//! so the indent tells the two apart. A field, a local or an unrelated
//! identifier that shares the name is not a caller.
//!
//! The limit: this matches call syntax by name, not a call graph. A method
//! that shares its name with another type's method (`new`, `len`) passes
//! when either is called, and a function that only another uncalled
//! function calls passes too. It never flags a function that is in use. To
//! tell a file's tests apart it also holds that every `#[cfg(test)]` in
//! `crates/*/src` is one trailing `mod tests` that runs to the end of the
//! file.

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

    // How often each name is called as a method or through a path, how
    // often bare, and every `pub fn` of a crate source: its file, its name
    // and whether it is a free function.
    let mut path_calls: HashMap<String, usize> = HashMap::new();
    let mut bare_calls: HashMap<String, usize> = HashMap::new();
    let mut defined: Vec<(&Path, &str, bool)> = Vec::new();
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
        let code = &code[..tests_at];
        for (at, ident) in identifiers(code) {
            let before = &code[..at];
            let after = code[at + ident.len()..].trim_start();
            let called = after.starts_with('(') || after.starts_with("::<");
            // A segment followed by `::` names a module or a type.
            let segment = after.starts_with("::") && !called;
            let line_so_far = before.rsplit('\n').next().unwrap_or_default();
            if (before.ends_with("::") && !segment) || (before.ends_with('.') && called) {
                *path_calls.entry(ident.to_owned()).or_default() += 1;
            } else if matches!(line_so_far.trim(), "pub fn" | "pub const fn") {
                if crate_src {
                    defined.push((rel, ident, line_so_far.starts_with("pub")));
                }
            } else if called && !before.ends_with('.') && !before.trim_end().ends_with("fn") {
                *bare_calls.entry(ident.to_owned()).or_default() += 1;
            }
        }
    }

    // Outside every unit test module, a `pub fn` must be called: a method
    // or a path through call syntax, a free function also bare.
    let calls = |map: &HashMap<String, usize>, name: &str| map.get(name).copied().unwrap_or(0);
    let uncalled: Vec<String> = defined
        .iter()
        .filter(|(_, name, free)| {
            calls(&path_calls, name) + if *free { calls(&bare_calls, name) } else { 0 } == 0
        })
        .map(|(rel, name, _)| format!("{}: {name}", rel.display()))
        .collect();
    assert!(
        uncalled.is_empty(),
        "{} `pub fn`s have no caller outside their own unit tests; delete them or call them:\n{}",
        uncalled.len(),
        uncalled.join("\n")
    );
}
