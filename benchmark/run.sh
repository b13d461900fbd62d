#!/usr/bin/env bash
# Builds the benchmark (bmpbench) and the bmpcast daemon from the source in
# this checkout, then runs one workload, for example:
#
#   bash benchmark/run.sh --workload cold --seed 1 --seconds 10 --trace 0
#
# The last line of standard output is the JSON result. Everything the
# build and the run write (Go build cache, binaries, primed plan stores,
# span dumps) stays under benchmark/.build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/.build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
cd "$here"
go build -o "$out/bmpbench" . >&2
go build -o "$out/bmpcast" repro/cmd/bmpcast >&2
exec "$out/bmpbench" -bin "$out/bmpcast" -work "$out" "$@"
