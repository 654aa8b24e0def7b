#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload evaluate --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, and the run's scratch files,
# traces and self-time tables (.bench_build/out).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
