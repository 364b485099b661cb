#!/usr/bin/env bash
# Builds the benchmark and the emptcpsim CLI from the checkout it is run
# in, both with the CLI's PGO profile, then runs the benchmark with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign-cold --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --seed 1     # every workload, timed and traced
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory: the Go build cache, and the go command's
# configuration and telemetry directory (XDG_CONFIG_HOME) too.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config"

# With telemetry on (the default, "local"), the first go command under a
# fresh configuration directory starts a detached upload process that
# outlives this script. Turning it off first starts none.
go telemetry off

pgo="$root/cmd/emptcpsim/default.pgo"
go build -pgo="$pgo" -o "$out/emptcpsim" ./cmd/emptcpsim
go -C perfbench build -pgo="$pgo" -o "$out/perfbench" .

exec "$out/perfbench" "$@"
