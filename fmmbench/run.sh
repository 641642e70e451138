#!/usr/bin/env bash
# Builds fmmbench from source and runs it with the given arguments. This is
# the command BENCHMARK.json names; run it from the repository root:
#
#   bash fmmbench/run.sh --workload wire_mix --seed 1 --seconds 10 --trace 0
#
# The driver lets a benchmark write only inside its checkout, so the binary,
# Go's build cache and its temporary files go to .bench_build/ under the
# repository root, which .gitignore names.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"

(cd "$here" && go build -o "$build/fmmbench" .)
cd "$root"
exec "$build/fmmbench" "$@"
