#!/usr/bin/env bash
# Builds credist, datagen and the benchmark from this checkout's source
# into .bench_build/ (Go build cache included), then runs the benchmark:
#
#   bash cdbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
#
# The last line of standard output is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/credist" ]; then
	echo "cdbench: $root holds no credist source tree to build" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd "$root" && go build -o "$out/bin/credist" ./cmd/credist && go build -o "$out/bin/datagen" ./cmd/datagen) >&2
(cd "$root/cdbench" && go build -o "$out/bin/cdbench" .) >&2
exec "$out/bin/cdbench" -root "$root" "$@"
