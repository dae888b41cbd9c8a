#!/usr/bin/env bash
# Builds the `knnshap` binary and the benchmark runner from source, then runs
# the runner with the arguments given (see README.md). Run from the root of a
# checkout:  bash perfbench/run.sh --workload exact_value --seed 1 --seconds 10 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p knnshap_cli --bin knnshap 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
# Not exec: the runner must not inherit the build's children, whose peak
# memory would show in the benchmark's `peak_rss_mb`.
"$CARGO_TARGET_DIR/release/perfbench" "$@"
