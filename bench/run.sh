#!/usr/bin/env bash
# Builds the qhorn benchmark from source and runs it with the given
# flags. Run from the repository root:
#
#   bash bench/run.sh --workload http-qhorn1 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes to .bench_build/
# under the current directory: the Go build cache, the binary and, with
# --trace 1, the traced run's spans.jsonl and layers.json.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local

(cd bench && go build -o "$out/qhornbench" .)
exec "$out/qhornbench" "$@"
