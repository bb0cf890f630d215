#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash _perfbench/run.sh --workload serve-idle --seed 1 --seconds 20 --trace 0
#   bash _perfbench/run.sh steady --workload serve-idle --runs 5 --seconds 20
#
# Run it from the repository root. Everything the build writes (Go
# build cache, temporary files, the binary, span dumps) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
export PERFBENCH_OUT=$out
PERFBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT

(cd "$root/_perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
