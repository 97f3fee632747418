#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload chaos-sweep --seed 1 --seconds 20 --trace 0
#
# Run from anywhere; it works from the root of the repository checkout.
# Build products, the Go build cache and the go command's own config and
# telemetry files (via XDG_CONFIG_HOME) stay under .bench_build/ there.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
