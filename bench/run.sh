#!/usr/bin/env bash
# Builds the benchmark and runs it, keeping every file it writes (Go's build
# cache included) inside the checkout.  Arguments go to the benchmark as they
# are: see bench/README.md.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
# Nothing is fetched: the module has no dependencies outside this checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
