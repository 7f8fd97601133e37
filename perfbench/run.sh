#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root; the build cache, the binary and
# everything a run writes stay under .bench_build there:
#
#   bash perfbench/run.sh --workload train-job --seed 1 --seconds 40 --trace 0
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C perfbench -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
