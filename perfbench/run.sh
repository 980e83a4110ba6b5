#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload replay-1 --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs and the Go build cache stay
# under .bench_build/ in the current directory, so nothing is written
# outside the checkout. The last line of standard output is the result
# object; everything before it is a human-readable report.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/fleet" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found in $root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local
export GOMODCACHE="$build/gomod"
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/pfmbench" .)

if [[ -z "${PFMBENCH_REV:-}" ]]; then
	PFMBENCH_REV=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export PFMBENCH_REV
fi
exec "$build/pfmbench" "$@"
