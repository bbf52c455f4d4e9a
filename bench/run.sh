#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write stays inside the checkout, under
# .bench_build/: the Go build cache, the binary, and the run's temp files
# (checkpoint directories, traces, the ledger).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"

export GOCACHE=$build/go-cache GOTMPDIR=$build/tmp GOMODCACHE=$build/go-mod
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/fedpkd-bench" .)

cd "$root"
TMPDIR=$build/tmp exec "$build/fedpkd-bench" "$@"
