#!/usr/bin/env bash
# Build the release gedd and gedbench, then run the benchmark.
# Usage (from anywhere): benchmark/run.sh [--workload NAME] [--seed N]
#   [--seconds S] [--reps R] [--trace 0|1] [--smoke] [--aa]   (see --help)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both builds; the acceptance driver sets its own.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet -p ged-daemon --bin gedd 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

exec "$CARGO_TARGET_DIR/release/gedbench" \
  --gedd "$CARGO_TARGET_DIR/release/gedd" \
  --out benchmark/out --bounds BENCHMARK.json "$@"
