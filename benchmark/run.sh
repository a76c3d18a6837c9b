#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh
#       all four workloads untraced, then traced, at the default seed and
#       --seconds 10; folds them into benchmark/out/report.json
#   benchmark/run.sh --workload NAME [--seed N] [--seconds N] [--trace 0|1]
#                    [--smoke] [--out DIR]
#       one run of one workload in its own process (peak_rss_mb is per
#       workload); --trace 1 runs the binary with the counting allocator
#   benchmark/run.sh compare A.json B.json [--benchmark BENCHMARK.json]
#   benchmark/run.sh merge DIR
#
# Builds from source on every call (a no-op once built). Traffic is
# loopback TCP, closed loop, 2 connections; CPR_THREADS is fixed at 2.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CPR_THREADS=2

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin_dir="${CARGO_TARGET_DIR:-benchmark/target}/release"

if [ "$#" -eq 0 ]; then
    for workload in lookup-steady batch-steady churn-mixed bringup-1024; do
        "$bin_dir/cpr-benchmark" --workload "$workload" --trace 0
    done
    for workload in lookup-steady batch-steady churn-mixed bringup-1024; do
        "$bin_dir/cpr-benchmark-traced" --workload "$workload" --trace 1
    done
    exec "$bin_dir/cpr-benchmark" merge benchmark/out
fi

bin="$bin_dir/cpr-benchmark"
previous=""
for arg in "$@"; do
    if [ "$previous" = "--trace" ] && [ "$arg" != "0" ]; then
        bin="$bin_dir/cpr-benchmark-traced"
    fi
    previous="$arg"
done
exec "$bin" "$@"
