#!/usr/bin/env bash
# Offline CI for the SWAMP workspace: formatting, lints, tier-1
# build+test, then the full workspace test suite. Everything here runs
# without network access — the workspace has no registry deps.
set -euo pipefail
cd "$(dirname "$0")"

# Both tracked lock files must already match their manifests: a
# `[dependencies]` edit that would make a later build (the benchmark's
# `run.sh` among them) rewrite `Cargo.lock` or `benchmark/Cargo.lock` in
# the worktree fails here instead of passing silently.
echo "== lock files up to date (cargo metadata --locked)"
cargo metadata --locked --offline --format-version 1 > /dev/null
cargo metadata --locked --offline --format-version 1 \
    --manifest-path benchmark/Cargo.toml > /dev/null

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Invariants of library and binary code the compiler does not hold on its
# own, as one lint list (tests, examples and benches keep their unwraps):
# no reachable panic (a documented invariant carries `#[expect(...,
# reason)]` next to its `# Panics` section), no silently discarded
# `Result`, no `unsafe` (hence no `static mut` shared between workers),
# and — through crates/clippy.toml — no wall clock. The two wire-format
# scopes additionally deny `clippy::as_conversions` in source
# (crates/codec/src/lib.rs, crates/fog/src/sync.rs). What a lint
# cannot see is measured instead: allocation budgets by the alloc_counts
# suites, hash-order and worker-order leaks by the byte-identity suites,
# layering by tests/workspace_layering.rs (DESIGN.md §10 has the table).
echo "== cargo clippy --workspace --lib --bins (the invariant lint list)"
cargo clippy --workspace --lib --bins -- -D warnings \
    -D unsafe_code \
    -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic \
    -D clippy::unreachable -D clippy::todo -D clippy::unimplemented \
    -D clippy::let_underscore_must_use -D clippy::unused_result_ok

echo "== rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

# The examples drive the platform end to end through the public API
# (fog_failover is the only end-to-end CloudOnly run outside the tests); each
# runs once, output discarded, so a panic fails CI. All four finish in
# well under a second. The pilot binary's four seasons (MATOPIBA's VRI
# pilot among them) get the same runtime smoke test.
echo "== examples: run each once (release)"
for example in examples/*.rs; do
    cargo run --release -q --example "$(basename "$example" .rs)" > /dev/null
done
cargo run --release -q -p swamp-pilots --bin pilot -- all > /dev/null

# Observability must stay effectively free on the ingest+pump hot path:
# bench_obs times the same workload with instrumentation live vs muted
# (the median of 11 paired live/muted ratios, alternating which side runs
# first) and --check fails the build if that aggregate overhead exceeds
# 5%. Uses the release binaries built above.
echo "== bench-guard: obs overhead <= 5% (bench_obs --check)"
cargo run --release -q -p swamp-pilots --bin bench_obs -- --check 100 1000 > /dev/null

# Every member crate's tests, including the three differential suites
# (shard, detector, compaction), each of which runs its grid at seeds 42
# and 1337. The root package `swamp` is excluded: tier-1 `cargo test -q`
# above already ran its tests (experiments_smoke among them).
echo "== cargo test --workspace --exclude swamp -q"
cargo test --workspace --exclude swamp -q

# Wall-clock cost has one instrument: the reference benchmark
# (BENCHMARK.json, benchmark/). check.sh lints and unit-tests the harness;
# the 1-second smoke run drives all five workloads end to end and its
# exit code is the correctness gate — record conservation at every layer
# boundary, the flat-history reference on read_mixed, and detector
# precision/recall on storm_lossy. Timings from a 1-second run are not
# compared here: a metric is judged against the parent commit's, within
# the bound BENCHMARK.json fixes (DESIGN.md §18).
echo "== benchmark: harness lint + unit tests (benchmark/check.sh)"
bash benchmark/check.sh

echo "== benchmark: smoke run, conservation/reference/precision-recall gate (benchmark/run.sh)"
bash benchmark/run.sh --seconds 1 --trace 0 > /dev/null

# The same gate on a held-out seed: the defaults (seed 42) are what the
# code was tuned and measured on, so conservation, the flat reference, the
# lossless no-retransmit check and precision/recall must also hold where
# nothing was tuned.
echo "== benchmark: smoke run on the held-out seed 1337"
bash benchmark/run.sh --seconds 1 --trace 0 --seed 1337 > /dev/null

echo "CI OK"
