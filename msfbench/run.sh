#!/usr/bin/env bash
# Builds the benchmark and msfud from this checkout's sources, then runs
# the benchmark with the given arguments, e.g.
#
#   bash msfbench/run.sh --workload table1_quick --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# stores and trace files all stay under .bench_build in that root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp" \
	GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off XDG_CONFIG_HOME="$build/config" GOPROXY=off
go -C "$root/msfbench" build -o "$build/msfbench" .
go -C "$root/msfbench" build -o "$build/msfud" magicstate/cmd/msfud
exec "$build/msfbench" --msfud "$build/msfud" "$@"
