#!/usr/bin/env bash
# Runs the whole benchmark N times (default 2) on one build and one seed and
# holds the two sets of runs against the bounds declared in BENCHMARK.json:
# every workload x end-to-end metric must agree within its bound, and the
# simulated time and cache counts must repeat exactly. Exits non-zero
# otherwise.
#
#   benchmark/repeat.sh            # 2 runs, seed 1
#   benchmark/repeat.sh 4 --seed 2 # 4 runs, another seed
set -euo pipefail
cd "$(dirname "$0")/.."
repeat="${1:-2}"
shift || true
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --repeat "$repeat" "$@"
