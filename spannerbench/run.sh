#!/usr/bin/env bash
# Builds spannerbench from source and runs it with the given arguments.
# Run it from the repository root; everything it builds or writes stays
# under .bench_build/ there:
#
#   bash spannerbench/run.sh --workload read-plain --seed 1 --seconds 24 --trace 0
#
# The last line of standard output is the run's JSON result. Outside a
# checkout of the repository (no ../go.mod) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/spannerbench-bin"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/spannerbench" && go build -buildvcs=false -o "$build/spannerbench" .)
exec "$build/spannerbench" "$@"
