#!/bin/sh
# Builds the benchmark harness from this checkout and runs it with the
# given arguments (see main.go). Everything the build and the runs write
# stays in .bench_build/ at the checkout root, including the Go build
# cache, so the first run compiles from scratch and later runs reuse it.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -repo "$root" "$@"
