#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload scenario-midsize --seed 1 --seconds 10 --trace 0
#
# Everything it writes (the Go build cache, the binary, temporary stores and
# span files) stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
