#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the toolchain and the benchmark write stays
# under the checkout: the build cache and binary in .bench_build/, traces,
# spill files and result files in bench/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/bench" && go build -o "$build/exabench" .)
cd "$root"
exec "$build/exabench" "$@"
