#!/usr/bin/env bash
# Builds the COBRA workload benchmark from this checkout's sources and runs
# it. Run from the repository root:
#
#   bash benchmark/run.sh --workload whatif-serve --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, temp files, the binary) and
# everything the benchmark writes (spill files, traces) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "benchmark/run.sh: run from the repository root (module sources not found)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/benchmark" && go build -o "$out/cobra-workloads" .)
exec "$out/cobra-workloads" --workdir "$out" "$@"
