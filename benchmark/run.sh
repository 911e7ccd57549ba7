#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through:
#
#   bash benchmark/run.sh -workload deep -seed 4100 -seconds 25 -trace 0
#
# Everything the build writes (Go build cache, Go settings, the binary)
# stays in .bench_build/ under the repository root. The build fails, and
# nothing is run, unless the library's sources sit next to benchmark/.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd benchmark && go build -buildvcs=false -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
