#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from the tree it
# sits in and runs it with the caller's arguments. Everything Go writes
# (build cache, module cache, telemetry) is kept under .bench_build/ in the
# checkout, so a run touches nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
