#!/usr/bin/env bash
# Builds the `renuver` CLI and the `perfbench` benchmark from source, then runs
# one workload from the root of the checkout:
#
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). The last
# line of stdout is the JSON result; see perfbench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "perfbench: run from a checkout of the renuver repository" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin renuver >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
# Not `exec`: perfbench reads its children's peak RSS from getrusage,
# which an exec'd process would inherit from the cargo builds above.
"$CARGO_TARGET_DIR/release/perfbench" --renuver "$CARGO_TARGET_DIR/release/renuver" "$@"
