#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the arguments
# given; results and span files land in benchmark/out/.
#
#   benchmark/run.sh                              all five workloads
#   benchmark/run.sh --trace 1                    ... plus the traced run
#   benchmark/run.sh --aa                         two sets, compared
#   benchmark/run.sh --workload fleet_wide --seed 7 --seconds 12 --trace 0
#
# The last form is how BENCHMARK.json's command is run; its standard
# output ends with the one-line JSON result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
