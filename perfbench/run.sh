#!/usr/bin/env bash
# Builds the benchmark and relcalcd from this checkout into .bench_build
# and runs one workload; every argument is passed on, e.g.
#
#   bash perfbench/run.sh --workload cold-compile --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The Go build cache, temporary files and
# the trace files stay under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

# Every other go command would otherwise fork a detached telemetry
# upload process that outlives this script; "go telemetry off" itself
# starts none and records the mode under $XDG_CONFIG_HOME.
go telemetry off
go build -o "$out/relcalcd" ./cmd/relcalcd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -relcalcd "$out/relcalcd" -out "$out" "$@"
