#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash _bench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, temporary files and span files go
# to $CARGO_TARGET_DIR (default .bench_build) so the run writes only
# inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
export CARGO_TARGET_DIR="$out"
(cd _bench && go build -o "$out/molbench" .)
exec "$out/molbench" "$@"
