#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs one
# workload:
#
#   bash e2ebench/run.sh --workload flat_1k --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout (Go build cache, temporary files, the go command's
# configuration, the binary and the workloads' data directories).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS="" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
[ -f "$XDG_CONFIG_HOME/go/telemetry/mode" ] || go telemetry off
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
