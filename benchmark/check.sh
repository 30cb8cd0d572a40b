#!/usr/bin/env bash
# Format, lint and unit-test the benchmark's own workspace. The root
# ci.sh does not call this yet; wiring it in belongs to the change that
# retires the bench_* binaries.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release -q
