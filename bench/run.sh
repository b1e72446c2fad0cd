#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
# Run from the repository root:
#
#	bash bench/run.sh --workload serve-sim --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary, the children's temp
# dirs and trace.json. The Go toolchain is used offline (GOPROXY=off); the
# module needs nothing outside this repository.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"

(cd "$root/bench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
