#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload paper_fig4 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary) stays in .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
(
  cd "$root/perfbench"
  HOME="$out/home" GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
    GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off \
    go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
