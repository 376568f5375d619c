#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark described in BENCHMARK.json.
#
#   bash e2ebench/run.sh --workload rush-4m --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh --workload all --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, serve
# state, span files) goes under .bench_build/e2ebench in the checkout, and
# the toolchain is pinned to the local one with the module proxy off, so a
# run never reaches the network. The binary is built with the committed
# default.pgo profile when the checkout has one, as `make bench` builds.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
work="$root/.bench_build/e2ebench"
mkdir -p "$work/gocache" "$work/gopath" "$work/tmp" "$work/config"

export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOMODCACHE="$work/gopath/pkg/mod"
export GOTMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

pgo=off
if [ -f "$root/default.pgo" ]; then
	pgo="$root/default.pgo"
fi
bin="$work/e2ebench"
(cd "$here" && go build -pgo="$pgo" -o "$bin.tmp.$$" .)
mv -f "$bin.tmp.$$" "$bin"

exec "$bin" --root "$root" --work "$work" "$@"
