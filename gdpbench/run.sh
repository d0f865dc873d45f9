#!/usr/bin/env bash
# Builds gdpsim and the benchmark program from this checkout's sources and runs
# one benchmark workload. Run it from the repository root:
#
#   bash gdpbench/run.sh --workload fig3-cold --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs leave behind (Go build cache, binaries,
# cached references, span dumps, scratch directories) goes to .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/gdpsim || ! -f gdpbench/go.mod || ! -f BENCHMARK.json ]]; then
	echo "gdpbench: run from the root of a full source checkout (go.mod, cmd/gdpsim, BENCHMARK.json)" >&2
	exit 2
fi

state="$PWD/.bench_build"
mkdir -p "$state/bin"
# Keep the Go toolchain's caches and per-user files (build cache, module
# cache, telemetry counters) inside the checkout, and never reach the network.
export GOCACHE="$state/gocache" GOPATH="$state/gopath" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off \
	XDG_CONFIG_HOME="$state/config" XDG_CACHE_HOME="$state/cache"
go build -o "$state/bin/gdpsim" ./cmd/gdpsim
(cd gdpbench && go build -o "$state/bin/gdpbench" .)
exec "$state/bin/gdpbench" "$@"
