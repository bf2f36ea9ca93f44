#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload fault-cold --seed 42 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry) and the benchmark's own scratch stores stay under the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build, at the root of
# the checkout. The toolchain never downloads: the only module outside the
# standard library is the repository itself, replaced from ../.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
    /*) ;;
    *) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/config" "$build/gopath"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

go build -C "$root/bench" -o "$build/tpsbench" .
cd "$root"
exec "$build/tpsbench" -workdir "$build" "$@"
