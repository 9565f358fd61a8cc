#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# arguments given.  Everything the build writes stays in the checkout:
# the binary and Go's build cache go under .bench_build at its root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/go-cache}"
export GOTOOLCHAIN=local

cd "$here"
go build -o "$build/archbench" .
exec "$build/archbench" "$@"
