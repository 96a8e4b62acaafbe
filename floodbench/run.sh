#!/usr/bin/env bash
# Builds the flooding benchmark from the sources of the checkout it is run
# from, then runs it. Run from the root of the checkout:
#
#   bash floodbench/run.sh --workload meg-1m --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, checkpoints and span files.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/floodbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$bench" && go build -o "$out/floodbench" .)
exec "$out/floodbench" --dir "$out" "$@"
