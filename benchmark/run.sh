#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json names it).
#
#   benchmark/run.sh [--seed N]                      all six workloads, both passes,
#                                                    benchmark/out/results.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                                    one pass of one workload; the last
#                                                    line of stdout is the result object
#   benchmark/run.sh compare A.json B.json           apply the bounds to two results
#
# Builds the standalone package offline (into $CARGO_TARGET_DIR when set,
# else benchmark/target) and runs it from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
