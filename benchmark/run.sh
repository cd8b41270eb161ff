#!/usr/bin/env bash
# Builds np-serve and the benchmark from source, then runs one workload:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the result is the last line of stdout.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/serve ]]; then
    echo "run.sh: run from the repository root (no Cargo.toml or crates/serve here)" >&2
    exit 2
fi
bench_dir="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p np-serve >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/benchmark" --np-serve "$CARGO_TARGET_DIR/release/np-serve" "$@"
