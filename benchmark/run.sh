#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (binary and Go
# build cache both stay inside the checkout) and runs it with the given
# arguments from the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$here" -o "$build/roar-benchmark" .
cd "$root"
exec "$build/roar-benchmark" "$@"
