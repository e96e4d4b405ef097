#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload synth --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, the Go configuration directory and span
# files stay under .bench_build/ in the current directory, so a run writes
# only inside the checkout. The benchmark is its own module
# (perfbench/go.mod) that replaces the vase module with the enclosing
# directory; without that directory the build fails and the script exits
# non-zero before printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

(
	cd "$root/perfbench"
	go telemetry off
	go build -trimpath -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
