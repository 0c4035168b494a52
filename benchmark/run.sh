#!/usr/bin/env bash
# The SafetyPin service benchmark: builds the benchmark package from
# source (offline, into its own target directory) and runs it.
#
#   benchmark/run.sh [--seed S] [--workload W] [--traced] [--smoke]
#       every workload (or W), each result printed by name with its unit,
#       outputs checked; writes benchmark/out/set_<label>.json
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one run; the last line of output is its one-line JSON result
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh spread RESULT.json...
#   benchmark/run.sh manifest            prints BENCHMARK.json
#
# See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Cargo's own output goes to stderr; stdout stays the benchmark's.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

if [ -z "${BENCH_GIT_COMMIT:-}" ] && [ -e "$root/.git" ]; then
    BENCH_GIT_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
fi
export BENCH_GIT_COMMIT="${BENCH_GIT_COMMIT:-unknown}"

exec "${CARGO_TARGET_DIR:-$here/target}/release/safetypin-benchmark" "$@"
