#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into <checkout>/.bench_build and runs it with the given arguments.
# Everything the Go toolchain writes (build cache, temp files, telemetry)
# is pinned inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$out/nfdbench" .
cd "$root"
exec "$out/nfdbench" "$@"
