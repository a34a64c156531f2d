#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh -workload rank_short -seed 1 -seconds 15 -trace 0
#   bash bench/run.sh compare PARENT.jsonl CHANGE.jsonl
#
# Run it from the repository root. Everything the build writes (the Go build
# cache and the binary) stays in .bench_build/ under the current directory,
# and no module is downloaded: the benchmark imports only this repository
# and the standard library.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$build/bench" .
exec "$build/bench" "$@"
