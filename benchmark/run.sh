#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it.
# Usage (from the repository root):
#   bash benchmark/run.sh --workload plain_small --seed 1 --seconds 10 --trace 0
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$build/maqs-benchmark" .
exec "$build/maqs-benchmark" "$@"
