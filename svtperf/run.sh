#!/usr/bin/env bash
# Builds the svtperf serving benchmark from this checkout's source and
# runs it. Run from the repository root:
#
#   bash svtperf/run.sh --workload interactive-wire --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory: the Go build cache and the toolchain's config
# directory, the binary, the WAL directories (removed after each run) and
# the traced run's span dumps.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd svtperf && go build -o "$out/svtperf" .)
exec "$out/svtperf" --dir "$out" "$@"
