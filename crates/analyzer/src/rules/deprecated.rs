//! Rule `deprecated-api`: APIs that went through their deprecation window
//! and have been **removed** must never come back — not as new call sites
//! (the compiler already rejects those) and, more importantly, not as
//! fresh *definitions* re-introducing the old shape under the old name.
//! The rule bans the names themselves, so a revival fails CI in the same
//! commit that writes it.
//!
//! Two shapes are policed, everywhere — library, binary and test code
//! alike (the removal left nothing for tests to pin):
//!
//! - **Constructors** (`Platform::new`, `FogSync::new`): both types are
//!   builder-only; any qualified `Type::new` path is flagged.
//! - **Getters** (`.sync_health(…)`, `.acks_refused(…)`, `.metrics(…)`):
//!   superseded by the one observe surface — `degraded_mode()` plus the
//!   typed `sync.*` gauges, the `cloud.acks_refused` counter, and
//!   `observe()` respectively. No workspace type may grow methods with
//!   these names again.

use crate::lexer::{is_ident, is_path2, is_punct};
use crate::source::SourceFile;

use super::Finding;

pub const NAME: &str = "deprecated-api";

/// (type, method, replacement) — removed constructors, banned as
/// qualified paths everywhere.
const REMOVED_CONSTRUCTORS: &[(&str, &str, &str)] = &[
    (
        "Platform",
        "new",
        "Platform::builder(config).seed(seed).build()",
    ),
    ("FogSync", "new", "FogSync::builder(node, cloud)…build()"),
];

/// (method, replacement) — removed methods whose names are unambiguous in
/// the workspace, banned as `.method(` on any receiver.
const REMOVED_ANY_RECEIVER: &[(&str, &str)] = &[
    (
        "sync_health",
        "`degraded_mode()` plus the `sync.pending` / `sync.in_flight` gauges in `observe()`",
    ),
    (
        "acks_refused",
        "the `cloud.acks_refused` counter in `observe()`",
    ),
    ("metrics", "`observe()`"),
];

pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        for (ty, method, replacement) in REMOVED_CONSTRUCTORS {
            if !is_path2(tokens, i, ty, method) {
                continue;
            }
            out.push(Finding::at(
                NAME,
                file,
                tokens[i].line,
                format!("removed API `{ty}::{method}` must not come back: use `{replacement}`"),
            ));
        }
    }
    // Method-shaped bans: `<recv> . <method> (`.
    for i in 0..tokens.len() {
        if !is_punct(tokens, i, '.') || !is_punct(tokens, i + 2, '(') {
            continue;
        }
        if let Some((method, replacement)) = REMOVED_ANY_RECEIVER
            .iter()
            .find(|(m, _)| is_ident(tokens, i + 1, m))
        {
            out.push(Finding::at(
                NAME,
                file,
                tokens[i].line,
                format!("removed method `.{method}(…)` must not come back: use {replacement}"),
            ));
        }
    }
}
