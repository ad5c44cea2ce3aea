#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload pipeline_deep --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artefact, the Go build cache,
# temporary session stores and span files stay under .bench_build/ in the
# current directory. Without the parent module next to perfbench/ the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
