#!/usr/bin/env bash
# Builds comaperf from source and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload sim-ecp --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Everything the Go toolchain writes
# (build cache, module cache, temporary files, telemetry) stays under
# .bench_build/ in the current directory, and no network is used.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
(cd "$here" && go build -o "$out/comaperf" ./comaperf)
exec "$out/comaperf" "$@"
