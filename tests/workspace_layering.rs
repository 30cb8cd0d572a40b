//! The crate-layering DAG: substrate (sim, codec, crypto) → domain (obs,
//! net, agro, sensors) → services (irrigation, fog, views, workload,
//! security) → platform (core, shard) → harness (pilots) → umbrella.
//! Cargo rejects a dependency cycle but not a non-cyclic inversion such as
//! `swamp-agro → swamp-obs`; this test does. Adding a crate or an edge
//! means declaring it here.

/// `package: workspace crates it may depend on` (normal and dev), minus
/// the `swamp-` prefix; `swamp` itself is the umbrella package. A row may
/// only name rows above it, which keeps the table acyclic.
const LAYERS: &str = "\
sim:
codec:
crypto:
obs: sim
net: sim obs
agro: sim
sensors: sim codec agro
irrigation: sim agro sensors
fog: sim obs net codec
views: sim codec fog
workload: sim codec
security: sim obs codec crypto net sensors agro
core: sim obs codec crypto net sensors security irrigation fog views
shard: sim obs codec net sensors fog core
pilots: sim obs codec crypto net agro sensors irrigation fog security workload core shard
swamp: sim obs codec crypto net agro sensors irrigation fog security workload core shard pilots";

#[test]
fn every_manifest_stays_inside_its_layer() {
    let mut table: Vec<(&str, Vec<&str>)> = Vec::new();
    for row in LAYERS.lines() {
        let (name, deps) = row.split_once(':').expect("`name: deps` rows");
        let deps: Vec<&str> = deps.split_whitespace().collect();
        let above = |d: &&str| table.iter().any(|(n, _)| n == d);
        assert!(deps.iter().all(above), "{name} names a row not above it");
        table.push((name, deps));
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ exists");
    let dirs = crates.map(|e| e.expect("readable entry").path());
    // Not every entry of crates/ is a package (clippy.toml): skip those.
    let manifests = dirs.chain([root.to_owned()]).map(|d| d.join("Cargo.toml"));
    for text in manifests.filter_map(|m| std::fs::read_to_string(m).ok()) {
        let name = text.lines().find_map(|l| l.strip_prefix("name = \""));
        let name = name.expect("a package name").trim_end_matches('"');
        let name = name.strip_prefix("swamp-").unwrap_or(name);
        let row = table.iter().find(|(n, _)| *n == name);
        let (_, allowed) = row.unwrap_or_else(|| panic!("`{name}` has no row in LAYERS"));
        let mut in_deps = false;
        for line in text.lines() {
            if line.starts_with('[') {
                in_deps = line.ends_with("dependencies]") && !line.contains("workspace");
            } else if let Some(dep) = line.strip_prefix("swamp-").filter(|_| in_deps) {
                let dep = dep.split(['.', ' ', '=']).next().unwrap_or(dep);
                assert!(allowed.contains(&dep), "`{name}` → `{dep}` inverts layers");
            }
        }
    }
}
