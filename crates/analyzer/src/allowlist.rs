//! The committed exception file: `analyzer.allow.toml`.
//!
//! Every entry must carry a written justification; entries that stop
//! matching anything are themselves reported (stale exceptions rot the
//! guarantee). Format — an array of tables, strings only:
//!
//! ```toml
//! [[allow]]
//! rule = "determinism"
//! path = "crates/pilots/src/bin/bench_obs.rs"   # file or directory prefix
//! contains = "Instant"                          # optional line substring
//! justification = "wall-clock bench harness; output never reaches EXPERIMENTS.md"
//!
//! [[allow]]
//! rule = "hot-path-alloc"
//! symbol = "Platform::rebuild_routes"           # qualified fn name scope
//! justification = "cold reconfiguration path, runs outside the pump loop"
//! ```
//!
//! `symbol =` entries scope to the qualified name of the containing
//! function (`Type::name` or bare `name`). For `hot-path-alloc` they
//! additionally *cut* the named function out of the hot-path walk (a
//! cold/setup path); a symbol scope that no longer cuts anything or
//! matches any finding fails as `allowlist-unused`, same as a stale path
//! entry.

/// One exception entry.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    pub rule: String,
    /// Workspace-relative path prefix (`/`-separated). A directory prefix
    /// covers every file under it.
    pub path: String,
    /// Optional substring the offending source line must contain; empty
    /// matches any line in `path`.
    pub contains: String,
    /// Optional qualified-fn-name scope (`Type::name` or `name`); empty
    /// matches findings with any (or no) symbol. An entry may carry
    /// `symbol` without `path`.
    pub symbol: String,
    pub justification: String,
    /// Line in `analyzer.allow.toml` where the entry starts (diagnostics).
    pub defined_at: u32,
}

/// Problems found while reading the allowlist itself.
#[derive(Clone, Debug)]
pub struct AllowlistError {
    pub line: u32,
    pub message: String,
}

/// Parses allowlist text. Returns entries plus any format errors; errors
/// are reported as findings so a malformed allowlist cannot silently allow
/// everything (or nothing).
pub fn parse(text: &str, known_rules: &[&str]) -> (Vec<AllowEntry>, Vec<AllowlistError>) {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut errors = Vec::new();
    let mut current: Option<AllowEntry> = None;

    let mut close = |cur: &mut Option<AllowEntry>, errors: &mut Vec<AllowlistError>| {
        if let Some(e) = cur.take() {
            if e.rule.is_empty() || (e.path.is_empty() && e.symbol.is_empty()) {
                errors.push(AllowlistError {
                    line: e.defined_at,
                    message: "allow entry needs `rule` plus `path` and/or `symbol`".to_owned(),
                });
            } else if e.justification.trim().len() < 10 {
                errors.push(AllowlistError {
                    line: e.defined_at,
                    message: format!(
                        "allow entry for rule `{}` needs a written `justification` (≥ 10 chars)",
                        e.rule
                    ),
                });
            } else if !known_rules.contains(&e.rule.as_str()) {
                errors.push(AllowlistError {
                    line: e.defined_at,
                    message: format!("unknown rule `{}` in allow entry", e.rule),
                });
            } else {
                entries.push(e);
            }
        }
    };

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = strip_comment(raw).trim().to_owned();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            close(&mut current, &mut errors);
            current = Some(AllowEntry {
                rule: String::new(),
                path: String::new(),
                contains: String::new(),
                symbol: String::new(),
                justification: String::new(),
                defined_at: lineno,
            });
            continue;
        }
        if line.starts_with('[') {
            close(&mut current, &mut errors);
            errors.push(AllowlistError {
                line: lineno,
                message: format!(
                    "unexpected section `{line}` (only [[allow]] tables are supported)"
                ),
            });
            continue;
        }
        let Some(eq) = line.find('=') else {
            errors.push(AllowlistError {
                line: lineno,
                message: format!("unparseable line: `{line}`"),
            });
            continue;
        };
        let key = line[..eq].trim().to_owned();
        let Some(value) = parse_string(line[eq + 1..].trim()) else {
            errors.push(AllowlistError {
                line: lineno,
                message: format!("value for `{key}` must be a double-quoted string"),
            });
            continue;
        };
        match current.as_mut() {
            None => errors.push(AllowlistError {
                line: lineno,
                message: format!("`{key}` outside any [[allow]] entry"),
            }),
            Some(e) => match key.as_str() {
                "rule" => e.rule = value,
                "path" => e.path = value,
                "contains" => e.contains = value,
                "symbol" => e.symbol = value,
                "justification" => e.justification = value,
                other => errors.push(AllowlistError {
                    line: lineno,
                    message: format!("unknown key `{other}` in allow entry"),
                }),
            },
        }
    }
    close(&mut current, &mut errors);
    (entries, errors)
}

/// Parses a double-quoted TOML basic string with the common escapes.
fn parse_string(v: &str) -> Option<String> {
    let inner = v.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                '\\' => out.push('\\'),
                '"' => out.push('"'),
                other => {
                    out.push('\\');
                    out.push(other);
                }
            },
            other => out.push(other),
        }
    }
    None
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

impl AllowEntry {
    /// Does this entry cover a finding at `path`:`snippet` inside fn
    /// `symbol`? (An empty `self.path` prefix matches every path.)
    pub fn matches(&self, rule: &str, path: &str, snippet: &str, symbol: &str) -> bool {
        self.rule == rule
            && path.starts_with(&self.path)
            && (self.contains.is_empty() || snippet.contains(&self.contains))
            && (self.symbol.is_empty() || self.symbol == symbol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: &[&str] = &["determinism", "panic-freedom"];

    #[test]
    fn parses_entries_and_rejects_missing_justification() {
        let (entries, errors) = parse(
            r#"
# exceptions
[[allow]]
rule = "determinism"
path = "crates/x/src/bin/bench.rs"
contains = "Instant"
justification = "wall-clock bench; output is a bench artifact"

[[allow]]
rule = "panic-freedom"
path = "crates/y/"
justification = "harness code may abort loudly"
"#,
            RULES,
        );
        assert_eq!(entries.len(), 2);
        assert!(errors.is_empty());
        assert!(entries[0].matches(
            "determinism",
            "crates/x/src/bin/bench.rs",
            "let t = Instant::now();",
            ""
        ));
        assert!(!entries[0].matches("determinism", "crates/x/src/lib.rs", "Instant", ""));
        assert!(!entries[0].matches("panic-freedom", "crates/x/src/bin/bench.rs", "Instant", ""));
    }

    #[test]
    fn symbol_scoped_entries_parse_and_match() {
        let (entries, errors) = parse(
            "[[allow]]\nrule = \"determinism\"\nsymbol = \"Platform::setup\"\n\
             justification = \"cold setup path, allocation is fine here\"\n",
            RULES,
        );
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(entries.len(), 1);
        assert!(entries[0].matches("determinism", "crates/x/src/lib.rs", "x", "Platform::setup"));
        assert!(!entries[0].matches("determinism", "crates/x/src/lib.rs", "x", "Platform::pump"));
        assert!(!entries[0].matches("determinism", "crates/x/src/lib.rs", "x", ""));
    }

    #[test]
    fn short_justification_is_an_error() {
        let (entries, errors) = parse(
            "[[allow]]\nrule = \"determinism\"\npath = \"x\"\njustification = \"meh\"\n",
            RULES,
        );
        assert!(entries.is_empty());
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let (entries, errors) = parse(
            "[[allow]]\nrule = \"nope\"\npath = \"x\"\njustification = \"long enough words\"\n",
            RULES,
        );
        assert!(entries.is_empty());
        assert_eq!(errors.len(), 1);
    }
}
