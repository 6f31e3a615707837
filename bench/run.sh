#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the
# toolchain and the benchmark write inside ./.bench_build of the directory
# it is run from (the checkout root). BENCHMARK.json names this script as
# the driver's command; by hand, `go run ./bench` does the same with the
# user's own Go cache.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/ecmbench" ./bench
exec "$out/ecmbench" "$@"
