#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload chromatic-honest --seed 1 --seconds 25 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary, trace dumps) stays under .bench_build in the repository root.
# Outside a full checkout the build fails and so does this script.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
