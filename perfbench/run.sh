#!/usr/bin/env bash
# Builds the benchmark driver and the daemons it drives (hetsynthd,
# hetsynthrouter) from this checkout's sources into .bench_build/, then runs
# the driver with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sweep-hot --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays under
# .bench_build/, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/bin/" . hetsynth/cmd/hetsynthd hetsynth/cmd/hetsynthrouter) >&2
exec "$out/bin/perfbench" -bin "$out/bin" "$@"
