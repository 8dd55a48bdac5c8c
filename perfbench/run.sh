#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout; every argument is passed on, e.g.
#
#   bash perfbench/run.sh --workload solve-hot --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the run's scratch files stay in
# .bench_build at the root of the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
