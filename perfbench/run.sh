#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs one workload:
#
#   bash perfbench/run.sh --workload steady16 --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and the go command's own config and
# telemetry files stay inside the checkout, under .bench_build; per-run
# detail and span files go to .bench_out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home"
(
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath"
	export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
	cd "$here" && go build -trimpath -o "$build/perfbench" .
) >&2
exec "$build/perfbench" -root "$root" -out "$root/.bench_out" "$@"
