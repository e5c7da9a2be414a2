#!/usr/bin/env bash
# Builds the benchmark and runs it. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ask-cold --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh repeat --workloads ask-cold --runs 10
#
# Every build output goes under .bench_build/ in the repository: the Go
# build and module caches, the go command's temporary files and its
# telemetry counters (kept under XDG_CONFIG_HOME), so the benchmark writes
# nothing outside the tree it measures.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
