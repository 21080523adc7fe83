#!/usr/bin/env bash
# Builds the absorption benchmark from the checkout's sources and runs it
# with the given arguments, e.g.
#   bash absorbbench/run.sh --workload trickle --seed 1 --seconds 30 --trace 0
#   bash absorbbench/run.sh steady
# Run it from the repository root. Build outputs, the Go build cache and the
# Go tool's own state stay under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/absorbbench" && go build -o "$out/absorbbench" .) >&2
exec "$out/absorbbench" "$@"
