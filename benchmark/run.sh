#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it with the
# given arguments. Everything the Go toolchain writes — build cache, temporary
# files, the binary — stays under .bench_build in that checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
