#!/usr/bin/env bash
# Builds the end-to-end benchmark and the scrubd daemon from this checkout,
# then runs the benchmark with the given arguments, for example:
#
#   bash e2ebench/run.sh --workload replay-busy --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh --workload all --seed 1 --out e2ebench/results
#
# Everything the build and the runs write stays under .bench_build/ at the
# root of the checkout; no module or toolchain is downloaded.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off

cd "$root/e2ebench"
go build -o "$build/e2ebench" .
cd "$root"
go build -o "$build/scrubd" ./cmd/scrubd

exec "$build/e2ebench" -root "$root" -scrubd "$build/scrubd" "$@"
