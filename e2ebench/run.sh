#!/usr/bin/env bash
# Builds the `sage` binary (the fleet workload's daemons) and the
# benchmark from source, then runs one workload:
#
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build). The last line of standard output is the JSON
# result; build logs go to standard error.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p sage --bin sage >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/sage-e2ebench" --sage "$CARGO_TARGET_DIR/release/sage" "$@"
