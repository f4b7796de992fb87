#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source and run it with
# the arguments given. Everything it writes stays inside the checkout: the Go
# build cache, temporary files and the binary under .bench_build/, scratch
# data, results and traces under bench/out/. In a directory without the
# repository's source the build fails and this exits non-zero without a
# result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/onlinebench" .)
cd "$root"
exec "$build/onlinebench" -out "$here/out" "$@"
