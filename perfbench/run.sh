#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload dmv-batch --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build artefact, the Go build cache
# and the Go tool's own configuration included, stays under .bench_build/ in
# the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
