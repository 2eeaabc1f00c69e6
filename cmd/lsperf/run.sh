#!/usr/bin/env bash
# Builds lsperf, lsserved and lsrouter from this checkout into .bench_build
# and runs lsperf with the given flags. Run it from the repository root:
#
#   bash cmd/lsperf/run.sh -workload all -seed 1 -json out.json
#
# Everything the build and the run write stays under .bench_build: the Go
# build cache, temporary files, the go command's telemetry (kept under the
# user config directory), the binaries and the workload's scratch
# directories.
set -euo pipefail

if [[ ! -f go.mod || ! -f cmd/lsserved/main.go || ! -f cmd/lsrouter/main.go ]]; then
	echo "lsperf: run from the root of the lucidscript repository" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin" "$build/work" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go build -o "$build/bin/" ./cmd/lsserved ./cmd/lsrouter
(cd cmd/lsperf && go build -o "$build/bin/lsperf" .)
exec "$build/bin/lsperf" -bin-dir "$build/bin" -work-dir "$build/work" "$@"
