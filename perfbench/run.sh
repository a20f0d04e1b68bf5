#!/usr/bin/env bash
# Builds perfbench and the smserve binary its serve-mix workload drives,
# then runs perfbench with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload iscas-suite --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh compare -bench BENCHMARK.json OLD_RESULTS NEW_RESULTS
#
# Binaries, the Go build cache, results, traces and server state all go to
# .bench_build/ under the current directory; nothing is written elsewhere.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go -C "$here" build -o "$out/perfbench" .
go -C "$here" build -o "$out/smserve" splitmfg/cmd/smserve
exec "$out/perfbench" -out "$out" -smserve "$out/smserve" "$@"
