#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload table4 --seed 0 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build in the working directory. The binary runs as a child of this
# script, not through exec, so that its resource usage for children counts
# its own worker subprocesses only, never the compiler.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

go -C "$root/perfbench" build -o "$build/perfbench" .
"$build/perfbench" "$@"
