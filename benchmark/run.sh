#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the sources
# of the checkout it is started in, then runs it with the arguments given.
# Everything the build and the run leave behind stays under .bench_build in
# that checkout (Go's build cache and temporary files included), so nothing
# is read or written outside it.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/vinestalkd" ]; then
	echo "benchmark/run.sh: start it from the root of a vinestalk checkout (no go.mod and cmd/vinestalkd in $root)" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
# GOPATH and the XDG directories are where the go command would otherwise
# keep its module cache, its env file and its telemetry counters.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/xdg-config" XDG_CACHE_HOME="$out/xdg-cache"
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
