#!/usr/bin/env bash
# Builds the benchmark and the triangled daemon from this checkout's source,
# then runs the benchmark with the given arguments, for example:
#
#   bash perfbench/run.sh --workload planar-scan --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache stay
# inside .bench_build in the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/triangled ]]; then
	echo "perfbench: run from the repository root (go.mod and cmd/triangled not found)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local
# With telemetry on, the go command may start a background child that
# outlives the build; turning it off keeps every process in the foreground.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/perfbench" ./perfbench
go build -o "$build/triangled" ./cmd/triangled
exec "$build/perfbench" --triangled "$build/triangled" "$@"
