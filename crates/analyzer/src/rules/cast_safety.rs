//! Rule `cast-safety`: wire/codec paths must not silently truncate.
//!
//! A lossy `as` cast in an encode/decode path corrupts data *quietly* —
//! the PR-8 seed bug was `n as i64` in the JSON number writer mangling
//! non-integral and out-of-range doubles. In scope:
//!
//! - every file under `crates/codec/src/` (the wire formats),
//! - `crates/fog/src/timer_wheel.rs` (slot math feeding the sync
//!   scheduler),
//! - the `UpdateRecord` codec functions in `crates/fog/src/sync.rs`
//!   (`encode_record`/`decode_record`/`encode_acks`/`decode_acks`),
//!   located via the item graph.
//!
//! In-scope code (outside test lines) must not use numeric `as` casts —
//! use `From`/`Into` widening (`u64::from`, `usize::from`) where lossless,
//! `try_into()`/`checked_*` with an honest error path where not — and may
//! use `wrapping_*` arithmetic only on a line carrying a `//` comment
//! saying why wraparound is correct there.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::graph::{Graph, Workspace};
use crate::lexer::Tok;
use crate::source::SourceFile;

use super::Finding;

pub const NAME: &str = "cast-safety";

/// Directory prefixes whose every file is wire/codec scope.
const PATH_SCOPES: &[&str] = &["crates/codec/src/", "crates/fog/src/timer_wheel.rs"];

/// Qualified fn names that are wire/codec scope wherever they live.
const FN_SCOPES: &[&str] = &[
    "encode_record",
    "decode_record",
    "encode_acks",
    "decode_acks",
];

/// Cast-target type names considered numeric (plus `char`, which `as`
/// reaches only lossily from integers).
const NUMERIC: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "char",
];

pub fn check(ws: &Workspace, graph: &Graph, out: &mut Vec<Finding>) {
    // Whole-file scopes.
    for wf in &ws.files {
        if PATH_SCOPES
            .iter()
            .any(|p| wf.source.rel_path.starts_with(p))
        {
            scan(&wf.source, 0..wf.source.tokens.len(), None, out);
        }
    }
    // Fn scopes, outside the whole-file paths (avoid double reporting).
    for node in &graph.nodes {
        if !FN_SCOPES.contains(&node.qual.as_str()) {
            continue;
        }
        let source = &ws.files[node.file].source;
        if PATH_SCOPES.iter().any(|p| source.rel_path.starts_with(p)) {
            continue;
        }
        if let Some(body) = node.item.body.clone() {
            scan(source, body, Some(&node.qual), out);
        }
    }
}

fn scan(source: &SourceFile, range: Range<usize>, symbol: Option<&str>, out: &mut Vec<Finding>) {
    let tokens = &source.tokens;
    let mut seen_lines: BTreeSet<(u32, &'static str)> = BTreeSet::new();
    for i in range {
        let Some(t) = tokens.get(i) else { continue };
        if source.is_test_line(t.line) {
            continue;
        }
        match &t.tok {
            Tok::Ident(kw) if kw == "as" => {
                let Some(Tok::Ident(ty)) = tokens.get(i + 1).map(|t| &t.tok) else {
                    continue;
                };
                if !NUMERIC.contains(&ty.as_str()) {
                    continue;
                }
                push(
                    source,
                    t.line,
                    symbol,
                    out,
                    format!(
                        "`as {ty}` cast in a wire/codec path silently truncates: \
                     use `{ty}::from`/`usize::from` where the widening is lossless, \
                     or `try_into()`/`checked_*` with an honest error path"
                    ),
                );
            }
            Tok::Ident(m) if m.starts_with("wrapping_") || m.starts_with("unchecked_") => {
                // One finding per (line, kind) — chained wrapping ops on a
                // justified line stay quiet together.
                let kind: &'static str = if m.starts_with("wrapping_") {
                    "wrapping"
                } else {
                    "unchecked"
                };
                if source.snippet(t.line).contains("//") || !seen_lines.insert((t.line, kind)) {
                    continue;
                }
                push(
                    source,
                    t.line,
                    symbol,
                    out,
                    format!(
                        "`{m}` in a wire/codec path needs a same-line `//` comment \
                     saying why {kind} arithmetic is correct here (or use `checked_*`)"
                    ),
                );
            }
            _ => {}
        }
    }
}

fn push(source: &SourceFile, line: u32, symbol: Option<&str>, out: &mut Vec<Finding>, msg: String) {
    match symbol {
        Some(s) => out.push(Finding::at_symbol(NAME, source, line, s, msg)),
        None => out.push(Finding::at(NAME, source, line, msg)),
    }
}
