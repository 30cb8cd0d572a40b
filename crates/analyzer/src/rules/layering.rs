//! Rule `layering`: the crate-dependency DAG is declared here and every
//! workspace manifest is checked against it, so an accidental
//! `swamp-net → swamp-pilots` edge (or any other layer inversion) fails CI
//! instead of quietly fusing layers.
//!
//! The table lists, per workspace package, exactly which *workspace*
//! dependencies it may declare (normal + dev). External registry deps are
//! out of scope — the offline build bans them anyway. A package missing
//! from the table is itself a finding: adding a crate means declaring its
//! place in the architecture.

use crate::manifest::Manifest;

use super::Finding;

pub const NAME: &str = "layering";

/// The architecture: substrate (sim/codec/crypto) → domain (net, agro,
/// sensors) → services (irrigation, fog, security, views) → platform
/// (core) → harness (pilots). `swamp-analyzer` and the substrate depend
/// on nothing. `swamp` is the root umbrella package.
pub const ALLOWED_DEPS: &[(&str, &[&str])] = &[
    ("swamp-sim", &[]),
    ("swamp-codec", &[]),
    ("swamp-crypto", &[]),
    ("swamp-analyzer", &[]),
    ("swamp-obs", &["swamp-sim"]),
    ("swamp-net", &["swamp-sim", "swamp-obs"]),
    ("swamp-agro", &["swamp-sim"]),
    ("swamp-sensors", &["swamp-sim", "swamp-codec", "swamp-agro"]),
    (
        "swamp-irrigation",
        &["swamp-sim", "swamp-agro", "swamp-sensors"],
    ),
    (
        "swamp-fog",
        &["swamp-sim", "swamp-obs", "swamp-net", "swamp-codec"],
    ),
    ("swamp-views", &["swamp-sim", "swamp-codec", "swamp-fog"]),
    ("swamp-workload", &["swamp-sim", "swamp-codec"]),
    (
        "swamp-security",
        &[
            "swamp-sim",
            "swamp-obs",
            "swamp-codec",
            "swamp-crypto",
            "swamp-net",
            "swamp-sensors",
            "swamp-agro",
        ],
    ),
    (
        "swamp-core",
        &[
            "swamp-sim",
            "swamp-obs",
            "swamp-codec",
            "swamp-crypto",
            "swamp-net",
            "swamp-sensors",
            "swamp-security",
            "swamp-irrigation",
            "swamp-fog",
            "swamp-views",
        ],
    ),
    (
        "swamp-shard",
        &[
            "swamp-sim",
            "swamp-obs",
            "swamp-codec",
            "swamp-net",
            "swamp-sensors",
            "swamp-fog",
            "swamp-core",
        ],
    ),
    (
        "swamp-pilots",
        &[
            "swamp-sim",
            "swamp-obs",
            "swamp-codec",
            "swamp-crypto",
            "swamp-net",
            "swamp-agro",
            "swamp-sensors",
            "swamp-irrigation",
            "swamp-fog",
            "swamp-security",
            "swamp-workload",
            "swamp-core",
            "swamp-shard",
        ],
    ),
    (
        "swamp",
        &[
            "swamp-sim",
            "swamp-obs",
            "swamp-codec",
            "swamp-crypto",
            "swamp-net",
            "swamp-agro",
            "swamp-sensors",
            "swamp-irrigation",
            "swamp-fog",
            "swamp-security",
            "swamp-workload",
            "swamp-core",
            "swamp-shard",
            "swamp-pilots",
        ],
    ),
];

/// Checks one workspace manifest against [`ALLOWED_DEPS`]. `rel_path` is
/// the manifest's workspace-relative path for findings.
pub fn check(
    manifest: &Manifest,
    rel_path: &str,
    workspace_members: &[String],
    out: &mut Vec<Finding>,
) {
    let Some((_, allowed)) = ALLOWED_DEPS.iter().find(|(n, _)| *n == manifest.name) else {
        out.push(finding(
            rel_path,
            format!(
                "package `{}` is not in the declared dependency DAG \
                 (crates/analyzer/src/rules/layering.rs); declare its layer to add it",
                manifest.name
            ),
        ));
        return;
    };
    for dep in manifest.deps.iter().chain(manifest.dev_deps.iter()) {
        // Only workspace-internal edges are layering-relevant.
        if !workspace_members.iter().any(|m| m == dep) {
            continue;
        }
        if !allowed.contains(&dep.as_str()) {
            out.push(finding(
                rel_path,
                format!(
                    "undeclared dependency edge `{}` → `{dep}`: not allowed by the \
                     layering DAG (crates/analyzer/src/rules/layering.rs)",
                    manifest.name
                ),
            ));
        }
    }
}

/// Sanity-checks [`ALLOWED_DEPS`] itself: every allowed dep must be a known
/// package and the declared graph must be acyclic (defense against editing
/// the table into an inconsistent state).
pub fn check_table(out: &mut Vec<Finding>) {
    let names: Vec<&str> = ALLOWED_DEPS.iter().map(|(n, _)| *n).collect();
    for (name, allowed) in ALLOWED_DEPS {
        for dep in *allowed {
            if !names.contains(dep) {
                out.push(finding(
                    "crates/analyzer/src/rules/layering.rs",
                    format!("DAG table lists unknown package `{dep}` under `{name}`"),
                ));
            }
        }
    }
    // Cycle check by repeated leaf elimination (Kahn).
    let mut remaining: Vec<(&str, Vec<&str>)> =
        ALLOWED_DEPS.iter().map(|(n, d)| (*n, d.to_vec())).collect();
    loop {
        let leaves: Vec<&str> = remaining
            .iter()
            .filter(|(_, deps)| deps.is_empty())
            .map(|(n, _)| *n)
            .collect();
        if leaves.is_empty() {
            break;
        }
        remaining.retain(|(n, _)| !leaves.contains(n));
        for (_, deps) in remaining.iter_mut() {
            deps.retain(|d| !leaves.contains(d));
        }
    }
    if !remaining.is_empty() {
        let cycle: Vec<&str> = remaining.iter().map(|(n, _)| *n).collect();
        out.push(finding(
            "crates/analyzer/src/rules/layering.rs",
            format!("DAG table contains a dependency cycle among {cycle:?}"),
        ));
    }
}

/// Transitive closure of [`ALLOWED_DEPS`] for `pkg`, including `pkg`
/// itself. The call graph uses this to keep name-based resolution inside
/// the architecture: a call in `swamp-core` can only resolve into
/// packages core may depend on — never "upward" into pilots or sideways
/// into the analyzer just because a method name collides.
pub fn dep_closure(pkg: &str) -> std::collections::BTreeSet<&'static str> {
    let mut out = std::collections::BTreeSet::new();
    let Some((canonical, direct)) = ALLOWED_DEPS.iter().find(|(n, _)| *n == pkg) else {
        return out;
    };
    out.insert(*canonical);
    let mut pending: Vec<&[&str]> = vec![direct];
    while let Some(deps) = pending.pop() {
        for d in deps {
            if out.insert(d) {
                if let Some((_, dd)) = ALLOWED_DEPS.iter().find(|(n, _)| n == d) {
                    pending.push(dd);
                }
            }
        }
    }
    out
}

fn finding(path: &str, message: String) -> Finding {
    Finding {
        rule: NAME,
        path: path.to_owned(),
        line: 1,
        message,
        snippet: String::new(),
        symbol: String::new(),
    }
}
