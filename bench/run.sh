#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the root of the checkout (the only place it writes) and
# runs it with the arguments given. Every Go cache and temp directory is
# pointed there so nothing outside the checkout is touched.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
out="$(cd .. && pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOENV=off
bin="$out/db4ml-bench"
# Rebuild only when a source file is newer than the binary: a driver checkout
# never changes, so the 150-odd runs there share one build.
if [ ! -x "$bin" ] || [ -n "$(find .. -path ../.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	go build -o "$bin" .
fi
exec "$bin" -tmp "$out/tmp" "$@"
