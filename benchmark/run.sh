#!/usr/bin/env bash
# The command of BENCHMARK.json: builds the benchmark from the checkout's
# source and runs it with the arguments given. Go's build cache and
# temporary files are kept in .bench_build/ of the checkout, so that a
# run reads and writes nothing outside it; the first run in a checkout
# therefore compiles the standard library too (about a minute).
# `go run ./benchmark` is the same program built in the user's own cache.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
