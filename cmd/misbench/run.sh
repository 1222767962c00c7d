#!/usr/bin/env bash
# Builds misbench from source and runs it with the given arguments, e.g.
#   bash cmd/misbench/run.sh --workload dyn-hub --seed 3 --seconds 15 --trace 0
# Run from the repository root. Every build output and cache stays under
# $CARGO_TARGET_DIR (default .bench_build) in the working directory, and no
# network access is attempted.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$(pwd)/$out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go -C cmd/misbench build -o "$out/misbench" .
exec "$out/misbench" "$@"
