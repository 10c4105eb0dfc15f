#!/usr/bin/env bash
# Builds sketchd and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload embed --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --report 10 --seconds 20
#
# Run it from the repository root. Everything it builds, caches and
# writes stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/sketchd || ! -f benchmark/go.mod ]]; then
	echo "benchmark: run from the root of a repro checkout" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

go build -o "$out/bin/sketchd" ./cmd/sketchd
(cd benchmark && go build -o "$out/bin/benchmark" .)
exec "$out/bin/benchmark" -sketchd "$out/bin/sketchd" -work "$out/work" "$@"
