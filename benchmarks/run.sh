#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): builds benchmarks/e2e from
# the checkout's own source and runs it with the arguments given, e.g.
#
#   bash benchmarks/run.sh --workload gw_small --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/hear-e2e" ./benchmarks/e2e
exec "$build/hear-e2e" "$@"
