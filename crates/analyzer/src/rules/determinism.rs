//! Rule `determinism`: every experiment must be bit-for-bit reproducible
//! from its seed, so wall clocks and OS entropy are banned from platform
//! code, and hash-order iteration must not feed serialized output.
//!
//! Two checks:
//!
//! 1. **Wall-clock / entropy tokens** (per file). `Instant`, `SystemTime`,
//!    `UNIX_EPOCH`, `thread_rng`, `from_entropy` are flagged in lib and bin
//!    targets outside `#[cfg(test)]`. Use `swamp_sim::SimTime` / seeded
//!    `SimRng` instead.
//! 2. **Unordered iteration feeding serialization** (graph-scoped, PR 8).
//!    Iterating a `HashMap`/`HashSet` local or field
//!    (`.iter()`/`.keys()`/`.values()`/`.into_iter()`/`for … in`) is
//!    flagged when — and only when — the iterating function is reachable
//!    from a serialization/export entry point: the `ObsSnapshot`/report
//!    renderers, the `EXPERIMENTS.md` table writers, and the wire
//!    encoders (see [`EXPORT_ENTRY_NAMES`]). The PR-3 version used a
//!    file-level marker heuristic ("mentions `to_json` somewhere") that
//!    both over-flagged unrelated functions in serializing files and
//!    missed iteration in helper files; call-graph reachability replaces
//!    it. Use `BTreeMap`/`BTreeSet`, or collect and sort before emitting.

use std::collections::BTreeSet;

use crate::graph::{Graph, Workspace};
use crate::lexer::{is_ident, is_punct, Tok, Token};
use crate::source::{SourceFile, TargetKind};

use super::Finding;

pub const NAME: &str = "determinism";

const BANNED: &[(&str, &str)] = &[
    (
        "Instant",
        "use swamp_sim::SimTime (sim clock) instead of the wall clock",
    ),
    (
        "SystemTime",
        "use swamp_sim::SimTime (sim clock) instead of the wall clock",
    ),
    (
        "UNIX_EPOCH",
        "use swamp_sim::SimTime (sim clock) instead of the wall clock",
    ),
    (
        "thread_rng",
        "use a seeded swamp_sim::SimRng stream instead of OS entropy",
    ),
    (
        "from_entropy",
        "use a seeded swamp_sim::SimRng stream instead of OS entropy",
    ),
];

/// Function names that emit serialized/exported bytes: any fn with one of
/// these names (free or method) roots the hash-iteration walk. Covers the
/// obs export (`to_json_string`/`to_pretty_string`/`to_compact_string`,
/// `to_markdown`, `render`), the pilots report writers (`push_row`,
/// `to_json`), and the wire encoders (`encode`, `encode_record`,
/// `encode_acks`).
pub const EXPORT_ENTRY_NAMES: &[&str] = &[
    "to_json",
    "to_json_string",
    "to_markdown",
    "to_pretty_string",
    "to_compact_string",
    "render",
    "push_row",
    "encode",
    "encode_record",
    "encode_acks",
];

pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if !matches!(file.kind, TargetKind::Lib | TargetKind::Bin) {
        return;
    }
    let tokens = &file.tokens;
    // A `use std::time::Instant` line and each call site all flag, which
    // is intentional — removal fixes every finding at once.
    for t in tokens.iter() {
        let Tok::Ident(name) = &t.tok else { continue };
        let Some((_, fix)) = BANNED.iter().find(|(b, _)| b == name) else {
            continue;
        };
        if file.is_test_line(t.line) {
            continue;
        }
        out.push(Finding::at(
            NAME,
            file,
            t.line,
            format!("non-deterministic API `{name}`: {fix}"),
        ));
    }
}

/// Graph-scoped hash-iteration check: flags unordered iteration only in
/// functions reachable from a serialization/export entry point.
pub fn check_graph(ws: &Workspace, graph: &Graph, out: &mut Vec<Finding>) {
    let entries: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            EXPORT_ENTRY_NAMES.contains(&n.item.name.as_str())
                && !n.is_test
                && matches!(
                    ws.files[n.file].source.kind,
                    TargetKind::Lib | TargetKind::Bin
                )
        })
        .map(|(i, _)| i)
        .collect();
    let reach = graph.reach(&entries, &BTreeSet::new(), &|n| {
        !n.is_test
            && matches!(
                ws.files[n.file].source.kind,
                TargetKind::Lib | TargetKind::Bin
            )
    });
    // Hash-typed names are collected per *file* (fields and locals alike
    // bind in file scope for a name-based checker); iteration sites are
    // only flagged inside reachable bodies.
    let mut hash_names_of_file: Vec<Option<Vec<String>>> = vec![None; ws.files.len()];
    for &idx in reach.parent.keys() {
        let node = &graph.nodes[idx];
        let source = &ws.files[node.file].source;
        let Some(body) = node.item.body.clone() else {
            continue;
        };
        let names =
            hash_names_of_file[node.file].get_or_insert_with(|| collect_hash_names(&source.tokens));
        if names.is_empty() {
            continue;
        }
        let tokens = &source.tokens;
        for i in body {
            let Some(Tok::Ident(name)) = tokens.get(i).map(|t| &t.tok) else {
                continue;
            };
            if !names.contains(name) || source.is_test_line(tokens[i].line) {
                continue;
            }
            if is_iteration_site(tokens, i) {
                let path = graph.path(&reach, idx).join(" → ");
                out.push(Finding::at_symbol(
                    NAME,
                    source,
                    tokens[i].line,
                    &node.qual,
                    format!(
                        "hash-order iteration of `{name}` feeds serialized output \
                         (reachable via {path}); use BTreeMap/BTreeSet or sort \
                         before emitting"
                    ),
                ));
            }
        }
    }
}

/// Names bound to a `HashMap`/`HashSet` type anywhere in the file:
/// `name: HashMap<…>` fields and arguments, and `let name = HashMap::new()`.
fn collect_hash_names(tokens: &[Token]) -> Vec<String> {
    let mut hash_names: Vec<String> = Vec::new();
    for i in 0..tokens.len() {
        let is_hash_ty = matches!(&tokens[i].tok,
            Tok::Ident(s) if s == "HashMap" || s == "HashSet");
        if !is_hash_ty {
            continue;
        }
        // `name : [&] ['a] [mut] HashMap` (field, param, or annotated let).
        let mut j = i;
        while j >= 1 {
            match &tokens[j - 1].tok {
                Tok::Punct('&') | Tok::Lifetime => j -= 1,
                Tok::Ident(s) if s == "mut" => j -= 1,
                _ => break,
            }
        }
        if j >= 2 && is_punct(tokens, j - 1, ':') && !is_punct(tokens, j - 2, ':') {
            if let Some(Tok::Ident(name)) = tokens.get(j - 2).map(|t| &t.tok) {
                hash_names.push(name.clone());
            }
        }
        // `let name = HashMap::new(…)` / `= HashSet::with_capacity(…)`.
        if i >= 2 && is_punct(tokens, i - 1, '=') {
            if let Some(Tok::Ident(name)) = tokens.get(i - 2).map(|t| &t.tok) {
                hash_names.push(name.clone());
            }
        }
    }
    hash_names
}

/// `name.iter()` / `.keys()` / `.values()` / `.into_iter()`, or
/// `for x in [&] name {`.
fn is_iteration_site(tokens: &[Token], i: usize) -> bool {
    let method_iter = is_punct(tokens, i + 1, '.')
        && matches!(tokens.get(i + 2).map(|t| &t.tok),
            Some(Tok::Ident(m)) if m == "iter" || m == "keys" || m == "values" || m == "into_iter")
        && is_punct(tokens, i + 3, '(');
    let for_iter = (is_ident(tokens, i.wrapping_sub(1), "in")
        || (is_punct(tokens, i.wrapping_sub(1), '&') && is_ident(tokens, i.wrapping_sub(2), "in")))
        && is_punct(tokens, i + 1, '{');
    method_iter || for_iter
}
