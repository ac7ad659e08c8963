#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash bench/run.sh --workload wire-small --seed 7 --seconds 25 --trace 0
#
# Everything the build and the run leave behind (the Go build cache, the
# binary, temp journal directories, span files) goes under .bench_build/ in
# the checkout, so a run reads and writes nothing outside it. The build needs
# no network: the benchmark is a package of the repository's module, which has
# no dependencies outside the standard library.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd "$root"
go build -o "$out/bench" ./bench >&2
exec "$out/bench" "$@"
