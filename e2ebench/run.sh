#!/usr/bin/env bash
# Builds the e2ebench binary from the checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload scalar-zipf-k64 --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. Every build product and the Go
# build cache stay inside the checkout, under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOTELEMETRY=off

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
