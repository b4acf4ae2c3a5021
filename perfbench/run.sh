#!/bin/sh
# Builds the benchmark from the checkout it is run in and executes it with
# the given arguments, e.g.
#
#	bash perfbench/run.sh --workload node-small --seed 42 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ (compiler cache, temporary files, the go
# command's configuration and telemetry, the binary and the trace
# directory). The build fails, and nothing runs, when the yhccl module the
# benchmark measures is not next to this directory.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
