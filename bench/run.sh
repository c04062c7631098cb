#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash bench/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
#   bash bench/run.sh compare A.jsonl B.jsonl
#
# Every file the build and the run write (binary, Go build cache, traces)
# stays under $CARGO_TARGET_DIR, which defaults to .bench_build in the
# current directory.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

go -C bench build -o "$out/bench.tmp" .
mv -f "$out/bench.tmp" "$out/bench"
exec "$out/bench" "$@"
