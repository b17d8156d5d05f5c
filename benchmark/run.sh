#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g.
#
#   bash benchmark/run.sh --workload tpcc-fit --seed 1 --seconds 20 --trace 0
#
# The binary, Go's build cache and its temporary files all go under
# .bench_build/ at the repository root, so a run writes nothing outside
# the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd benchmark && go build -o "$out/btrimbench" .)
exec "$out/btrimbench" "$@"
