#!/usr/bin/env bash
# The repo benchmark's one command: builds the package beside this
# script and runs it. README.md, also beside it, is the manual.
#
#   benchmark/run.sh                      every workload, one JSON document
#   benchmark/run.sh --repeat 2           two timed sets and whether they agree
#   benchmark/run.sh --traced             only the traced pass
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                         one workload under BENCHMARK.json
#
# Run it from the repository root. The result goes to standard output,
# the log to standard error.
set -euo pipefail
here="$(dirname "$0")"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/hack-benchmark"

# What the numbers were made with, for the output header.
cpu="$(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo 2>/dev/null | head -n 1 || true)"
rustc="$(rustc -V 2>/dev/null || true)"
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || true)"

exec "$bin" --out "$here/out" \
    --cpu "${cpu:-unknown}" --rustc "${rustc:-unknown}" --commit "${commit:-unknown}" "$@"
