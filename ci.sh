#!/usr/bin/env bash
# Offline CI for the SWAMP workspace: formatting, lints, tier-1
# build+test, then the full workspace test suite. Everything here runs
# without network access — the workspace has no registry deps (the
# proptest suites are feature-gated off).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The platform path must not panic on reachable errors: unwrap/panic are
# denied in the core and fog library targets via in-source
# `#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]`
# (command-line -D flags would leak to every workspace dependency cargo
# re-checks). Tests keep their unwraps; documented invariants use expect
# with a # Panics section. This step lints exactly those two lib targets.
echo "== cargo clippy -p swamp-core -p swamp-fog --lib (deny unwrap/panic)"
cargo clippy -p swamp-core -p swamp-fog --lib -- -D warnings

# Workspace invariants the compiler can't see: determinism (no wall
# clocks/OS entropy outside sanctioned harnesses; HashMap/HashSet
# iteration reachable from serialization entry points), panic-freedom in
# all lib targets, no silent Result discards, the crate-layering DAG, no
# revival of removed APIs — plus the four call-graph rules
# from the v2 item graph: hot-path-alloc (no allocation reachable from
# pump/sync/worker/obs entries), cast-safety (no numeric `as` in wire
# paths), concurrency-discipline (disjoint `&mut` chunks only under
# `thread::scope`), and obs-name-drift (every family-prefixed instrument
# name resolves to exactly one registration of the matching kind).
# Exceptions live in analyzer.allow.toml with written justifications —
# including `symbol =`-scoped cold cuts, which go stale (and fail this
# step) the moment the hot path stops reaching them; see DESIGN.md §10
# and §15. Wall time is measured here in the shell: the analyzer itself
# is subject to its own determinism rule, so it never touches a clock.
echo "== swamp-analyzer --deny-all"
analyzer_start_ns=$(date +%s%N)
cargo run -q -p swamp-analyzer -- --deny-all
analyzer_end_ns=$(date +%s%N)
echo "   analyzer wall time: $(( (analyzer_end_ns - analyzer_start_ns) / 1000000 )) ms"

echo "== rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

# Observability must stay effectively free on the ingest+pump hot path:
# bench_obs times the same workload with instrumentation live vs muted
# (best-of-3 interleaved) and --check fails the build if the aggregate
# overhead exceeds 5%. Uses the release binaries built above.
echo "== bench-guard: obs overhead <= 5% (bench_obs --check)"
cargo run --release -q -p swamp-pilots --bin bench_obs -- --check 100 1000 > /dev/null

# Includes the three differential suites (shard, detector, compaction),
# each of which runs its grid at seeds 42 and 1337.
echo "== cargo test --workspace -q"
cargo test --workspace -q

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

echo "CI OK"
