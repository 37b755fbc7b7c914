#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
