#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload greedy-hgenome --seed 1404 --seconds 25 --trace 0
#
# Run it from the root of the checkout. The binary, the Go build cache and
# everything the benchmark writes stay under .bench_build/. The build
# needs the repository's own module one directory up, so outside a full
# checkout it fails and nothing runs.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
