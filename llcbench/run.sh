#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through. Run from the repository root:
#
#   bash llcbench/run.sh --workload grid --seed 1 --seconds 30 --trace 0
#
# The build cache, temporary files and the binary stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$root/llcbench" && go build -o "$out/llcbench" .)
exec "$out/llcbench" --expected "$root/llcbench/expected.json" --workdir "$out/work" "$@"
