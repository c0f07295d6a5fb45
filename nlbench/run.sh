#!/usr/bin/env bash
# Builds the NewsLink benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash nlbench/run.sh --workload partial-query --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the working directory.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/nlbench" && go build -buildvcs=false -o "$build/nlbench" .)
exec "$build/nlbench" "$@"
