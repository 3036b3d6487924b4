#!/usr/bin/env bash
# Builds the InfoGram benchmark from this checkout's sources and runs it.
# Build outputs, the Go build and module caches and the go command's own
# configuration directory stay inside the checkout under .bench_build, so
# the benchmark writes nothing outside it.
#
#   bash igbench/run.sh --workload query-hot --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/igbench" .)
cd "$root"
exec "$build/igbench" -state "$build" "$@"
