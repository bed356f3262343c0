#!/usr/bin/env bash
# Builds the nvm-llcd daemon and the benchmark from source, then runs one
# workload:
#   bash llcbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); only the benchmark's result goes to stdout.
set -euo pipefail
root="$(pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in /*) target="$CARGO_TARGET_DIR" ;; *) target="$root/$CARGO_TARGET_DIR" ;; esac
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p nvm-llc-serve --bin nvm-llcd >&2
cargo build --release --offline --quiet --manifest-path "$root/llcbench/Cargo.toml" >&2
export LLCBENCH_DAEMON="$target/release/nvm-llcd"
exec "$target/release/llcbench" "$@"
