#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the benchmark from source inside the
# checkout (build cache, temporary files and the go command's own counter
# files included, under .bench_build/) and runs it from bench/, so result
# files land in bench/out/.
#
#   bash bench/run.sh --workload match-drift --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
cd "$root/bench"
go build -o "$build/genas-bench" .
exec "$build/genas-bench" "$@"
