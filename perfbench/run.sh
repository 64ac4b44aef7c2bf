#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
# Run from the repository root. Every build artefact (Go build cache,
# binary, scratch stores) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gomodcache"
export GOCACHE="$out/gocache" TMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
