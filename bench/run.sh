#!/usr/bin/env bash
# Builds the benchmark and the server it drives, then runs the benchmark.
# Run from the repository root: bash bench/run.sh --workload steady_1cam ...
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/odin-serve ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the root of the repository (go.mod, cmd/odin-serve and bench/ must be here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# Nothing is downloaded (the only requirement is replaced by ../), and the
# toolchain keeps its caches inside the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local

(cd bench && go build -o "$build/odin-benchmark" .)
go build -o "$build/odin-serve" ./cmd/odin-serve

exec "$build/odin-benchmark" "$@"
