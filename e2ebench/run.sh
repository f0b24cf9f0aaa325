#!/usr/bin/env bash
# Builds and runs MedSen's end-to-end benchmark from the repository root:
#
#   bash e2ebench/run.sh --workload diagnose|ingest|batch --seed N --seconds S --trace 0|1
#
# Every build and run artifact (Go build cache, binary, temporary state
# directories) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/cache" "$out/tmp" "$out/home"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
