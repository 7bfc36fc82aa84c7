#!/usr/bin/env bash
# Builds the decomposed daemon and the benchmark from this checkout, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload query-warm --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays in the checkout: binaries and the Go
# build cache in .bench_build/, run records and spans in .bench_out/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/decomposed" ]; then
	echo "perfbench: run from the repository root (cmd/decomposed not found)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOPROXY=off
go build -o "$build/decomposed" ./cmd/decomposed
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
