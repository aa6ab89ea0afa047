#!/usr/bin/env bash
# Builds lacebm from source into .bench_build/ and runs it with the
# given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload read-cold --seed 3 --seconds 20 --trace 0
#
# Every file the build and the run write (Go build cache, binary,
# write-ahead logs, span traces) stays under .bench_build/.
set -euo pipefail

if [ ! -f bench/go.mod ] || [ ! -f go.mod ]; then
	echo "run.sh: run from the repository root, next to go.mod" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The go command keeps telemetry counters under the user config directory.
(cd bench && XDG_CONFIG_HOME="$build/config" go build -o "$build/lacebm" ./lacebm)
exec "$build/lacebm" "$@"
