#!/usr/bin/env bash
# Builds the dexpanderd benchmark from source and runs it with the given
# arguments (see perfbench/README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest-count --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temp files, telemetry,
# the binary) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -trace-dir "$out/traces" "$@"
