#!/usr/bin/env bash
# Builds the stack benchmark from the source tree it sits in and runs it
# with the given arguments, e.g.
#
#   bash stackbench/run.sh --workload keyed_heartbeat --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build cache and the binary live
# in .bench_build/ under the current directory, and each run's data
# directories under stackbench/.data/ (removed when the run ends), so
# nothing is written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/stackbench" .)
exec "$out/stackbench" --data "$here/.data" "$@"
