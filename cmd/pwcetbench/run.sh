#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash cmd/pwcetbench/run.sh --workload pfail-sweep-256 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, binary, configuration) goes under $CARGO_TARGET_DIR, or
# .bench_build when that is unset, inside the current directory.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomodcache
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C "$root/cmd/pwcetbench" build -o "$build/pwcetbench" .
exec "$build/pwcetbench" "$@"
