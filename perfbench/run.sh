#!/usr/bin/env bash
# Builds the workload benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sweep-mcf --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. The build cache, temporary files and
# the binary stay under .bench_build there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
