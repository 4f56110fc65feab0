#!/usr/bin/env bash
# Builds the switch benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash switchbench/run.sh --workload c1_ecmp_hot --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, trace files) stays
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/switchbench" && go build -o "$out/switchbench" .) >&2
exec "$out/switchbench" --testdata "$root/testdata" --trace-out "$out/traces" "$@"
