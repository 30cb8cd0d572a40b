//! Rule `obs-name-drift`: every family-prefixed instrument name string
//! (`"net.*"`, `"sync.*"`, `"ingest.*"`, …) used anywhere in the workspace
//! must resolve to exactly one registration site, with matching kind.
//!
//! PR 4 closed the typo'd-counter bug *dynamically*: `ObsSnapshot` lookups
//! return `Err(ObsError::Unknown)` instead of silently minting a zero.
//! But a typo in a test assertion that only runs `is_ok()`-blind, or a
//! counter renamed at the registration site while a dashboard query keeps
//! the old string, still drifts. This rule closes the hole statically:
//!
//! - a **registration** is `obs.counter("…")` / `gauge` / `hist` /
//!   `span` — the receiver is literally the `obs` handle (the workspace
//!   convention for instrument-struct constructors: `fn register(obs:
//!   &mut Obs)`);
//! - a **read** is the same four method names on any other receiver
//!   (snapshots, reports, `Metrics` views), in any target including
//!   tests;
//! - every family-prefixed read must name a registered instrument, with
//!   the same kind; every family-prefixed name may have at most one
//!   non-test library registration site.
//!
//! Names outside the family prefixes (scratch names in obs's own unit
//! tests, sim's legacy `Metrics` fixtures) are not checked. Deliberate
//! negative tests of the Unknown-instrument error path carry allowlist
//! entries with `contains =` the typo'd name.

use std::collections::BTreeMap;

use crate::graph::Workspace;
use crate::lexer::{is_punct, str_at, Tok};
use crate::source::TargetKind;

use super::Finding;

pub const NAME: &str = "obs-name-drift";

/// Instrument name families under the drift contract (see DESIGN.md §15).
pub const FAMILIES: &[&str] = &[
    "net.",
    "sync.",
    "cloud.",
    "ingest.",
    "relay.",
    "platform.",
    "security.",
    "shard.",
];

const METHODS: &[&str] = &["counter", "gauge", "hist", "span"];

struct Site {
    file: usize,
    line: u32,
    kind: &'static str,
    /// Non-test library registration (counts toward the exactly-one rule).
    canonical: bool,
}

pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    let mut regs: BTreeMap<String, Vec<Site>> = BTreeMap::new();
    let mut reads: Vec<(String, Site)> = Vec::new();
    for (fi, wf) in ws.files.iter().enumerate() {
        let tokens = &wf.source.tokens;
        for i in 0..tokens.len() {
            // `<recv> . <method> ( "name"`.
            if !is_punct(tokens, i, '.') || !is_punct(tokens, i + 2, '(') {
                continue;
            }
            let Some(kind) = METHODS.iter().find(
                |m| matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Ident(s)) if s == *m),
            ) else {
                continue;
            };
            let Some(name) = str_at(tokens, i + 3) else {
                continue;
            };
            if !FAMILIES.iter().any(|f| name.starts_with(f)) {
                continue;
            }
            let line = tokens[i].line;
            let is_reg = i >= 1 && matches!(&tokens[i - 1].tok, Tok::Ident(r) if r == "obs");
            let site = Site {
                file: fi,
                line,
                kind,
                canonical: is_reg
                    && wf.source.kind == TargetKind::Lib
                    && !wf.source.is_test_line(line),
            };
            if is_reg {
                regs.entry(name.to_owned()).or_default().push(site);
            } else {
                reads.push((name.to_owned(), site));
            }
        }
    }
    // At most one canonical registration site per name.
    for (name, sites) in &regs {
        let canonical: Vec<&Site> = sites.iter().filter(|s| s.canonical).collect();
        for extra in canonical.iter().skip(1) {
            let source = &ws.files[extra.file].source;
            let first = &ws.files[canonical[0].file].source;
            out.push(Finding::at(
                NAME,
                source,
                extra.line,
                format!(
                    "instrument `{name}` is registered more than once (first at \
                     {}:{}); one name must mean one instrument",
                    first.rel_path, canonical[0].line
                ),
            ));
        }
    }
    // Every read resolves, with matching kind.
    for (name, site) in &reads {
        let source = &ws.files[site.file].source;
        match regs.get(name) {
            None => out.push(Finding::at(
                NAME,
                source,
                site.line,
                format!(
                    "instrument name `{name}` does not resolve to any \
                     registration site (`obs.counter/gauge/hist/span`): \
                     typo'd or renamed-away name"
                ),
            )),
            Some(sites) => {
                if !sites.iter().any(|s| s.kind == site.kind) {
                    let reg = &sites[0];
                    let reg_src = &ws.files[reg.file].source;
                    out.push(Finding::at(
                        NAME,
                        source,
                        site.line,
                        format!(
                            "instrument `{name}` is registered as a `{}` \
                             ({}:{}) but read as a `{}`",
                            reg.kind, reg_src.rel_path, reg.line, site.kind
                        ),
                    ));
                }
            }
        }
    }
}
