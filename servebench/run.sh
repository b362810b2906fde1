#!/usr/bin/env bash
# Builds the serving benchmark and the routed daemon from this checkout, then
# runs the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash servebench/run.sh --workload grid8-lp --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# repository root (Go build cache included), and no network is used.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C servebench -o "$build/servebench" .
go build -o "$build/routed" ./cmd/routed
exec "$build/servebench" -routed "$build/routed" -dir "$build" "$@"
