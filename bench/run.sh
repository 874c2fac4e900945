#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the three programs under
# test and the benchmark from source into .bench_build/ (go's own cache
# included, so nothing outside the checkout is written), then runs the
# benchmark with the arguments it was given.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off
t0=$(date +%s%N)
go build -o "$root/.bench_build/bin/" ./cmd/mtmlf-serve ./cmd/mtmlf-train ./cmd/mtmlf-datagen
go build -C bench -o "$root/.bench_build/bin/bench" .
export BENCH_BUILD_MS=$(( ($(date +%s%N) - t0) / 1000000 ))
exec "$root/.bench_build/bin/bench" "$@"
