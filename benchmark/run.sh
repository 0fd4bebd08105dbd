#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. BENCHMARK.json names
# this script as its command; every argument is passed through, e.g.
#
#   bash benchmark/run.sh --workload bulk-egress --seed 1 --seconds 25 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, temporary
# files, the binary) goes under .bench_build/ in the checkout root, so a run
# writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME moves the toolchain's telemetry counters in as well.
GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	go -C benchmark build -o "$build/endbox-bench" .
exec "$build/endbox-bench" "$@"
