#!/usr/bin/env bash
# The driver's entry point: build the benchmark from source with every
# build output (compile cache, temp files, the binary) inside the checkout,
# then run it. People can use `go run ./benchmark` instead.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-buildvcs=false
go build -o "$build/imca-benchmark" ./benchmark
exec "$build/imca-benchmark" "$@"
