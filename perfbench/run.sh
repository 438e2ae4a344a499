#!/usr/bin/env bash
# Builds aliasd and the benchmark from this checkout, then runs one
# benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binaries, run directories and
# reports) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/runs"
# The go command keeps its caches and its local telemetry counters under
# these directories; point all of them into the build directory.
export XDG_CONFIG_HOME="$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go build -o "$build/bin/aliasd" ./cmd/aliasd
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" --aliasd "$build/bin/aliasd" --out "$build/runs" "$@"
