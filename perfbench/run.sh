#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload train-products-ec --seed 1 --seconds 30 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
