//! Fixture tests: for every rule, one snippet that must trip it and one
//! that must stay clean, exercised through the same `analyze_str` path the
//! workspace walk uses.

use std::collections::BTreeSet;

use swamp_analyzer::allowlist;
use swamp_analyzer::manifest;
use swamp_analyzer::rules::{layering, Finding, RULE_NAMES};
use swamp_analyzer::source::TargetKind;
use swamp_analyzer::{analyze_files_with_cold, analyze_str, apply_allowlist};

fn lib(src: &str) -> Vec<Finding> {
    analyze_str("crates/x/src/lib.rs", "swamp-x", TargetKind::Lib, src)
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- determinism

#[test]
fn determinism_flags_wall_clock_and_entropy() {
    let bad = r#"
        pub fn now_ms() -> u128 {
            let t = std::time::Instant::now();
            t.elapsed().as_millis()
        }
        pub fn seed() -> u64 { rand::thread_rng().gen() }
    "#;
    let f = lib(bad);
    let det: Vec<_> = f.iter().filter(|f| f.rule == "determinism").collect();
    assert!(det.len() >= 2, "Instant and thread_rng both flag: {f:?}");
    assert!(det.iter().any(|f| f.message.contains("Instant")));
    assert!(det.iter().any(|f| f.message.contains("thread_rng")));
}

#[test]
fn determinism_ignores_tests_and_benches() {
    let in_test = r#"
        #[cfg(test)]
        mod tests {
            #[test]
            fn timing() { let _t = std::time::Instant::now(); }
        }
    "#;
    assert!(lib(in_test).iter().all(|f| f.rule != "determinism"));
    // Bench targets are outside the rule's scope entirely.
    let f = analyze_str(
        "crates/x/benches/b.rs",
        "swamp-x",
        TargetKind::Bench,
        "fn main() { let t = std::time::Instant::now(); }",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn determinism_flags_hash_iteration_feeding_serialization() {
    let bad = r#"
        use std::collections::HashMap;
        pub fn to_json(counters: &HashMap<String, u64>) -> String {
            let mut out = String::new();
            for (k, v) in counters.iter() {
                out.push_str(&format!("{k}={v},"));
            }
            out
        }
    "#;
    let f = lib(bad);
    assert!(
        f.iter()
            .any(|f| f.rule == "determinism" && f.message.contains("hash-order")),
        "{f:?}"
    );
}

#[test]
fn determinism_allows_btree_iteration_in_serializers() {
    let good = r#"
        use std::collections::BTreeMap;
        pub fn to_json(counters: &BTreeMap<String, u64>) -> String {
            let mut out = String::new();
            for (k, v) in counters.iter() {
                out.push_str(&format!("{k}={v},"));
            }
            out
        }
    "#;
    assert!(lib(good).is_empty(), "{:?}", lib(good));
}

// -------------------------------------------------------------- panic-freedom

#[test]
fn panic_freedom_flags_unwrap_expect_and_macros() {
    let bad = r#"
        pub fn f(v: Option<u32>) -> u32 { v.unwrap() }
        pub fn g(v: Option<u32>) -> u32 { v.expect("always set") }
        pub fn h(x: u32) -> u32 {
            match x { 0 => unreachable!("impossible"), n => n }
        }
    "#;
    let f = lib(bad);
    let pf: Vec<_> = f.iter().filter(|f| f.rule == "panic-freedom").collect();
    assert_eq!(pf.len(), 3, "{f:?}");
}

#[test]
fn panic_freedom_exempts_documented_panics_and_tests() {
    let good = r#"
        /// Returns the value.
        ///
        /// # Panics
        /// Panics if `v` is `None` — callers guarantee it is set.
        pub fn f(v: Option<u32>) -> u32 { v.expect("caller guarantees Some") }

        pub fn safe(v: Option<u32>) -> u32 { v.unwrap_or(0) }

        /// Asserting invariants stays legal.
        pub fn idx(xs: &[u32], i: usize) -> u32 {
            assert!(i < xs.len(), "bounds");
            xs[i]
        }

        #[cfg(test)]
        mod tests {
            #[test]
            fn t() { Some(1u32).unwrap(); panic!("fine in tests"); }
        }
    "#;
    assert!(lib(good).is_empty(), "{:?}", lib(good));
}

#[test]
fn panic_freedom_exempts_own_expect_combinator() {
    let parser = r#"
        impl Parser {
            fn expect(&mut self, b: u8) -> Result<(), Error> { self.eat(b) }
            pub fn array(&mut self) -> Result<(), Error> {
                self.expect(b'[')
            }
        }
    "#;
    assert!(lib(parser).is_empty(), "{:?}", lib(parser));
    // But `Option::expect` through a non-self receiver still flags there.
    let mixed = r#"
        impl Parser {
            fn expect(&mut self, b: u8) -> Result<(), Error> { self.eat(b) }
            pub fn first(v: Option<u8>) -> u8 { v.expect("non-empty") }
        }
    "#;
    assert_eq!(rules_of(&lib(mixed)), vec!["panic-freedom"]);
}

// -------------------------------------------------------------- error-discard

#[test]
fn error_discard_flags_wildcard_let_and_statement_ok() {
    let bad = r#"
        pub fn f(r: Result<u32, ()>) {
            let _ = r;
        }
        pub fn g(m: &mut std::collections::BTreeMap<u32, u32>) {
            m.remove(&1).ok_or(()).ok();
        }
    "#;
    let f = lib(bad);
    let ed: Vec<_> = f.iter().filter(|f| f.rule == "error-discard").collect();
    assert_eq!(ed.len(), 2, "{f:?}");
}

#[test]
fn error_discard_allows_bindings_and_value_position_ok() {
    let good = r#"
        pub fn f(r: Result<u32, ()>) -> Option<u32> {
            let _kept = r;
            let v = Some(3u32);
            let as_opt = Err::<u32, ()>(()).ok();
            foo(v.ok_or(()).ok());
            return as_opt;
        }
        fn foo(_v: Option<u32>) {}
    "#;
    assert!(lib(good).is_empty(), "{:?}", lib(good));
}

#[test]
fn error_discard_only_applies_to_lib_targets() {
    let f = analyze_str(
        "crates/x/src/bin/tool.rs",
        "swamp-x",
        TargetKind::Bin,
        "fn main() { let _ = std::fs::remove_file(\"x\"); }",
    );
    assert!(f.is_empty(), "{f:?}");
}

// ------------------------------------------------------------------- layering

#[test]
fn layering_flags_undeclared_edge_and_unknown_package() {
    let members: Vec<String> = layering::ALLOWED_DEPS
        .iter()
        .map(|(n, _)| (*n).to_owned())
        .collect();
    // swamp-net must not depend on swamp-core (inverted layer).
    let m = manifest::parse(
        "[package]\nname = \"swamp-net\"\n[dependencies]\nswamp-core = { path = \"../core\" }\n",
    );
    let mut out = Vec::new();
    layering::check(&m, "crates/net/Cargo.toml", &members, &mut out);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].message.contains("swamp-core"));

    // A package absent from the table is itself a finding.
    let m = manifest::parse("[package]\nname = \"swamp-rogue\"\n");
    let mut out = Vec::new();
    layering::check(&m, "crates/rogue/Cargo.toml", &members, &mut out);
    assert_eq!(out.len(), 1, "{out:?}");

    // A declared edge passes.
    let m = manifest::parse(
        "[package]\nname = \"swamp-fog\"\n[dependencies]\nswamp-net = { path = \"../net\" }\n",
    );
    let mut out = Vec::new();
    layering::check(&m, "crates/fog/Cargo.toml", &members, &mut out);
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn layering_table_is_internally_consistent() {
    let mut out = Vec::new();
    layering::check_table(&mut out);
    assert!(out.is_empty(), "DAG table broken: {out:?}");
}

// ------------------------------------------------------------- deprecated-api

#[test]
fn deprecated_api_flags_removed_constructors_everywhere() {
    let bad = "pub fn make() -> Platform { Platform::new(DeploymentConfig::CloudOnly, 1) }";
    let f = analyze_str("crates/x/src/lib.rs", "swamp-x", TargetKind::Lib, bad);
    assert!(
        f.iter()
            .any(|f| f.rule == "deprecated-api" && f.message.contains("builder")),
        "{f:?}"
    );
    // Unlike most rules, deprecated-api also covers test targets: the
    // constructors are gone, so no test may call (or re-grow) them.
    let f = analyze_str(
        "crates/x/tests/t.rs",
        "swamp-x",
        TargetKind::Test,
        "fn t() { let _s = FogSync::new(\"fog\", \"cloud\", 8); }",
    );
    assert!(f.iter().any(|f| f.rule == "deprecated-api"), "{f:?}");
    // Since PR 7 even the former defining files' unit tests are covered:
    // there is no shim left to pin, so a revival there must fail too.
    let f = analyze_str(
        "crates/core/src/platform.rs",
        "swamp-core",
        TargetKind::Lib,
        r#"
        #[cfg(test)]
        mod tests {
            #[test]
            fn shim_revival() { let _p = Platform::new(Config::CloudOnly, 1); }
        }
        "#,
    );
    assert!(f.iter().any(|f| f.rule == "deprecated-api"), "{f:?}");
}

#[test]
fn deprecated_api_flags_removed_getters_on_any_receiver() {
    for bad in [
        "pub fn f(p: &Platform) -> SyncHealth { p.sync_health() }",
        "pub fn f(s: &CloudStore) -> u64 { s.acks_refused() }",
        "pub fn f(n: &Network) -> Metrics { n.metrics() }",
    ] {
        let f = lib(bad);
        assert!(
            f.iter()
                .any(|f| f.rule == "deprecated-api" && f.message.contains("removed method")),
            "expected a finding for {bad:?}: {f:?}"
        );
    }
    // Test code is covered too — the getters no longer exist anywhere.
    let f = analyze_str(
        "crates/x/tests/t.rs",
        "swamp-x",
        TargetKind::Test,
        "fn t(p: &Platform) { let _ = p.sync_health(); }",
    );
    assert!(f.iter().any(|f| f.rule == "deprecated-api"), "{f:?}");
    // A field access without a call stays legal.
    assert!(lib("pub fn f(r: &Report) -> &Metrics { &r.metrics }").is_empty());
}

#[test]
fn deprecated_api_ignores_other_types_new() {
    let good = "pub fn f() -> Network { Network::new(7) }";
    assert!(lib(good).is_empty(), "{:?}", lib(good));
}

// ------------------------------------------------------------------ allowlist

#[test]
fn allowlist_suppresses_matching_findings_only() {
    let findings = lib("pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\npub fn g() { let _ = std::fs::remove_file(\"x\"); }");
    assert_eq!(findings.len(), 2);
    let (entries, errors) = allowlist::parse(
        r#"
[[allow]]
rule = "panic-freedom"
path = "crates/x/"
justification = "fixture: harness code may abort loudly"
"#,
        RULE_NAMES,
    );
    assert!(errors.is_empty(), "{errors:?}");
    let (kept, allowed) = apply_allowlist(findings, &entries);
    assert_eq!(rules_of(&kept), vec!["error-discard"]);
    assert_eq!(allowed.len(), 1);
    assert!(allowed[0].justification.contains("abort loudly"));
}

// ------------------------------------------------------------- hot-path-alloc

#[test]
fn hot_path_alloc_flags_transitive_allocation_with_path() {
    let bad = r#"
        impl Platform {
            pub fn pump(&mut self) { self.step(); }
            fn step(&mut self) { let label = format!("tick"); push(label); }
        }
        fn push(_s: String) {}
    "#;
    let f = lib(bad);
    let hp: Vec<_> = f.iter().filter(|f| f.rule == "hot-path-alloc").collect();
    assert_eq!(hp.len(), 1, "{f:?}");
    assert_eq!(hp[0].symbol, "Platform::step");
    assert!(
        hp[0].message.contains("Platform::pump → Platform::step"),
        "finding must carry the reachability path: {}",
        hp[0].message
    );
}

#[test]
fn hot_path_alloc_stays_quiet_off_the_hot_path() {
    // The same allocation in a function *not* reachable from an entry.
    let good = r#"
        impl Platform {
            pub fn pump(&mut self) { self.count += 1; }
            pub fn describe(&self) -> String { format!("{} pumps", self.count) }
        }
    "#;
    assert!(lib(good).iter().all(|f| f.rule != "hot-path-alloc"));
}

#[test]
fn hot_path_alloc_cold_symbol_cuts_the_subtree_and_reports_use() {
    let src = r#"
        impl Platform {
            pub fn pump(&mut self) { self.setup(); }
            fn setup(&mut self) { self.name = String::new(); }
        }
    "#;
    let files = [("crates/x/src/lib.rs", "swamp-x", TargetKind::Lib, src)];
    let (f, used) = analyze_files_with_cold(&files, &BTreeSet::new());
    assert!(f.iter().any(|f| f.rule == "hot-path-alloc"), "{f:?}");
    assert!(used.is_empty());

    let cold: BTreeSet<String> = ["Platform::setup".to_owned()].into_iter().collect();
    let (f, used) = analyze_files_with_cold(&files, &cold);
    assert!(f.iter().all(|f| f.rule != "hot-path-alloc"), "{f:?}");
    assert!(
        used.contains("Platform::setup"),
        "a cut that fired must be reported so stale detection can spare it"
    );
}

// ---------------------------------------------------------------- cast-safety

#[test]
fn cast_safety_flags_numeric_casts_in_codec_files() {
    let bad = "pub fn write(n: f64, out: &mut String) { out.push_str(&fmt(n as i64)); }";
    let f = analyze_str(
        "crates/codec/src/fake.rs",
        "swamp-codec",
        TargetKind::Lib,
        bad,
    );
    assert!(
        f.iter()
            .any(|f| f.rule == "cast-safety" && f.message.contains("as i64")),
        "{f:?}"
    );
}

#[test]
fn cast_safety_covers_wire_fns_by_symbol_outside_codec_paths() {
    let bad = "fn encode_record(x: u32) -> u16 { x as u16 }";
    let f = lib(bad);
    let cs: Vec<_> = f.iter().filter(|f| f.rule == "cast-safety").collect();
    assert_eq!(cs.len(), 1, "{f:?}");
    assert_eq!(cs[0].symbol, "encode_record");
    // The same cast in an unscoped fn is out of the rule's reach.
    assert!(lib("fn helper(x: u32) -> u16 { x as u16 }")
        .iter()
        .all(|f| f.rule != "cast-safety"));
}

#[test]
fn cast_safety_wrapping_needs_a_same_line_comment() {
    let bare = "pub fn slot(x: u64) -> u64 { x.wrapping_add(1) }";
    let f = analyze_str(
        "crates/codec/src/fake.rs",
        "swamp-codec",
        TargetKind::Lib,
        bare,
    );
    assert!(
        f.iter()
            .any(|f| f.rule == "cast-safety" && f.message.contains("wrapping")),
        "{f:?}"
    );
    let justified =
        "pub fn slot(x: u64) -> u64 { x.wrapping_add(1) // wraps at the rotation boundary\n}";
    let f = analyze_str(
        "crates/codec/src/fake.rs",
        "swamp-codec",
        TargetKind::Lib,
        justified,
    );
    assert!(f.iter().all(|f| f.rule != "cast-safety"), "{f:?}");
}

// ----------------------------------------------------- concurrency-discipline

#[test]
fn concurrency_flags_mutable_statics_and_locks_in_scope() {
    let f = lib("static mut GLOBAL: u32 = 0;");
    assert!(
        f.iter()
            .any(|f| f.rule == "concurrency-discipline" && f.message.contains("static mut")),
        "{f:?}"
    );
    // The planted violation from the issue: a Mutex captured from outside
    // the scope, acquired inside the worker closure.
    let bad = r#"
        use std::sync::Mutex;
        pub fn run(xs: &mut [u32]) {
            let total = Mutex::new(0u32);
            std::thread::scope(|s| {
                for chunk in xs.chunks_mut(2) {
                    s.spawn(|| { let mut t = total.lock(); bump(&mut t, chunk); });
                }
            });
        }
        fn bump(_t: &mut u32, _c: &mut [u32]) {}
    "#;
    let f = lib(bad);
    assert!(
        f.iter()
            .any(|f| f.rule == "concurrency-discipline" && f.message.contains("lock acquisition")),
        "{f:?}"
    );
    // A lock *type* named directly inside the region is flagged too.
    let named = r#"
        pub fn run(xs: &mut [u32]) {
            std::thread::scope(|s| {
                let total = std::sync::Mutex::new(0u32);
                let (a, _b) = xs.split_at_mut(1);
                s.spawn(|| { a[0] += *total.lock().unwrap(); });
            });
        }
    "#;
    let f = lib(named);
    assert!(
        f.iter()
            .any(|f| f.rule == "concurrency-discipline" && f.message.contains("`Mutex`")),
        "{f:?}"
    );
}

#[test]
fn concurrency_flags_locks_reachable_from_worker_calls() {
    let bad = r#"
        pub fn run(xs: &mut [u32]) {
            std::thread::scope(|s| {
                let (a, b) = xs.split_at_mut(1);
                s.spawn(|| work(a));
                s.spawn(|| work(b));
            });
        }
        fn work(xs: &mut [u32]) { tally(xs); }
        fn tally(xs: &mut [u32]) {
            let _guard = GLOBAL_LOCK.lock();
            use std::sync::Mutex;
            xs[0] += 1;
        }
    "#;
    let f = lib(bad);
    assert!(
        f.iter().any(|f| f.rule == "concurrency-discipline"
            && f.message.contains("worker-reachable")
            && f.message.contains("tally")),
        "{f:?}"
    );
}

#[test]
fn concurrency_requires_the_disjoint_chunk_split() {
    let bad = r#"
        pub fn run(n: usize) {
            std::thread::scope(|s| {
                for _ in 0..n { s.spawn(|| step()); }
            });
        }
        fn step() {}
    "#;
    let f = lib(bad);
    assert!(
        f.iter()
            .any(|f| f.rule == "concurrency-discipline" && f.message.contains("disjoint-chunk")),
        "{f:?}"
    );
    // Disjoint chunks, no shared state: the sanctioned pattern is clean.
    let good = r#"
        pub fn run(xs: &mut [u32]) {
            std::thread::scope(|s| {
                let (a, b) = xs.split_at_mut(1);
                s.spawn(|| bump(a));
                s.spawn(|| bump(b));
            });
        }
        fn bump(xs: &mut [u32]) { xs[0] += 1; }
    "#;
    assert!(
        lib(good).iter().all(|f| f.rule != "concurrency-discipline"),
        "{:?}",
        lib(good)
    );
}

// -------------------------------------------------------------- obs-name-drift

#[test]
fn obs_name_drift_flags_unregistered_and_kind_mismatched_reads() {
    let src = r#"
        pub fn register(obs: &mut Obs) -> Instruments {
            Instruments {
                sent: obs.counter("net.sent"),
                depth: obs.gauge("net.depth"),
            }
        }
        pub fn report(snap: &ObsSnapshot) {
            let _ok = snap.gauge("net.depth");
            let _typo = snap.counter("net.snet");
            let _wrong_kind = snap.gauge("net.sent");
        }
    "#;
    let f = lib(src);
    let drift: Vec<_> = f.iter().filter(|f| f.rule == "obs-name-drift").collect();
    assert_eq!(drift.len(), 2, "{f:?}");
    assert!(drift
        .iter()
        .any(|f| f.message.contains("net.snet") && f.message.contains("does not resolve")));
    assert!(drift
        .iter()
        .any(|f| f.message.contains("net.sent") && f.message.contains("read as a `gauge`")));
}

#[test]
fn obs_name_drift_rejects_duplicate_registrations_and_skips_foreign_names() {
    let dup = r#"
        pub fn a(obs: &mut Obs) { obs.counter("net.dup"); }
        pub fn b(obs: &mut Obs) { obs.counter("net.dup"); }
    "#;
    let f = lib(dup);
    assert!(
        f.iter()
            .any(|f| f.rule == "obs-name-drift" && f.message.contains("more than once")),
        "{f:?}"
    );
    // Names outside the family prefixes are not under the contract.
    let scratch = r#"
        pub fn report(snap: &ObsSnapshot) { let _x = snap.counter("scratch.count"); }
    "#;
    assert!(lib(scratch).iter().all(|f| f.rule != "obs-name-drift"));
}

// -------------------------------------------- determinism (graph tightening)

#[test]
fn determinism_hash_iteration_outside_export_paths_is_clean() {
    // PR 3's file-marker heuristic would have flagged this whenever the
    // file also mentioned an export fn; the graph scope does not.
    let good = r#"
        use std::collections::HashMap;
        pub fn total(counters: &HashMap<String, u64>) -> u64 {
            let mut t = 0;
            for (_k, v) in counters.iter() {
                t += v;
            }
            t
        }
    "#;
    assert!(
        lib(good).iter().all(|f| f.rule != "determinism"),
        "{:?}",
        lib(good)
    );
}

#[test]
fn determinism_hash_iteration_flags_transitively_from_export_entries() {
    let bad = r#"
        use std::collections::HashMap;
        pub fn to_json(m: &HashMap<String, u64>) -> String { emit(m) }
        fn emit(m: &HashMap<String, u64>) -> String {
            let mut out = String::new();
            for (k, _v) in m.iter() {
                out.push_str(k);
            }
            out
        }
    "#;
    let f = lib(bad);
    assert!(
        f.iter().any(|f| f.rule == "determinism"
            && f.symbol == "emit"
            && f.message.contains("to_json → emit")),
        "{f:?}"
    );
}
